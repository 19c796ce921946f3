/**
 * @file
 * Power and energy-efficiency model (Fig. 13 / Table V substitution).
 *
 * The paper measures rail power through the Android interface; we model
 * DSP power as a calibrated linear function of how hard the compiled
 * model drives the machine:
 *
 *   P = P_base + c_u * utilization + c_b * min(1, bandwidth / BW_peak)
 *
 * with the dynamic terms fit so that the GCD2-compiled ResNet-50 draws
 * the paper's 2.6 W (Table V; pinned by
 * FrameworksGeomeanTest.PowerCalibrationPinsResnetWatts). Better-utilizing
 * binaries draw *more* power but far more inference frames per Watt --
 * the paper's headline relationship (Section V-D).
 */
#ifndef GCD2_RUNTIME_POWER_MODEL_H
#define GCD2_RUNTIME_POWER_MODEL_H

#include "runtime/compiler.h"

namespace gcd2::runtime {

/** Calibrated DSP power model constants. */
struct DspPowerModel
{
    double baseWatts = 1.3;
    double utilizationWatts = 2.02; ///< at 100% issue utilization
    double bandwidthWatts = 0.48;   ///< at peak streaming bandwidth
    double peakBytesPerCycle = 64.0;

    double
    watts(const CompiledModel &model) const
    {
        const double bw =
            std::min(1.0, model.bandwidth() / peakBytesPerCycle);
        return baseWatts + utilizationWatts * model.utilization() +
               bandwidthWatts * bw;
    }
};

/** Inference frames per second at the modeled clock. */
inline double
framesPerSecond(const CompiledModel &model)
{
    return 1000.0 / model.latencyMs();
}

/** Frames per Watt (the paper's FPW metric). */
inline double
framesPerWatt(const CompiledModel &model,
              const DspPowerModel &power = {})
{
    return framesPerSecond(model) / power.watts(model);
}

} // namespace gcd2::runtime

#endif // GCD2_RUNTIME_POWER_MODEL_H
