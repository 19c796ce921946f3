/**
 * @file
 * End-to-end framework baseline tests beyond the support matrix: every
 * supported model must reproduce the Table IV ordering and land in the
 * paper's speedup regime; utilization and bandwidth must order as Fig. 8.
 * The latency and power calibrations are pinned to the paper's ResNet-50.
 */
#include <gtest/gtest.h>

#include "baselines/frameworks.h"
#include "common/table.h"
#include "runtime/power_model.h"

namespace gcd2::baselines {
namespace {

using models::ModelId;

class FrameworkOrdering : public ::testing::TestWithParam<ModelId>
{
};

TEST_P(FrameworkOrdering, Gcd2FastestOnEverySupportedModel)
{
    const ModelId id = GetParam();
    const auto gcd2 = runFramework(Framework::Gcd2, id);
    ASSERT_TRUE(gcd2.has_value());

    const auto tflite = runFramework(Framework::TfLite, id);
    const auto snpe = runFramework(Framework::Snpe, id);

    if (tflite) {
        EXPECT_LT(gcd2->latencyMs(), tflite->latencyMs());
        const double speedup = tflite->latencyMs() / gcd2->latencyMs();
        EXPECT_GT(speedup, 1.2);
        EXPECT_LT(speedup, 8.0); // paper range is 1.5x - 6.0x
        EXPECT_GT(gcd2->utilization(), tflite->utilization());
        EXPECT_GT(gcd2->bandwidth(), tflite->bandwidth());
    }
    if (snpe) {
        EXPECT_LT(gcd2->latencyMs(), snpe->latencyMs());
        EXPECT_GT(gcd2->utilization(), snpe->utilization());
    }
    if (tflite && snpe) {
        EXPECT_LT(snpe->latencyMs(), tflite->latencyMs());
    }
}

std::string
orderingName(const ::testing::TestParamInfo<ModelId> &info)
{
    std::string name = models::modelInfo(info.param).name;
    std::string out;
    for (char c : name)
        if (std::isalnum(static_cast<unsigned char>(c)))
            out += c;
    return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, FrameworkOrdering,
    ::testing::Values(ModelId::MobileNetV3, ModelId::EfficientNetB0,
                      ModelId::ResNet50, ModelId::WdsrB, ModelId::PixOr,
                      ModelId::EfficientDetD0, ModelId::TinyBert),
    orderingName);

TEST(FrameworksGeomeanTest, SpeedupsLandInThePaperRegime)
{
    std::vector<double> overT, overS;
    for (const auto &info : models::allModels()) {
        const auto gcd2 = runFramework(Framework::Gcd2, info.id);
        const auto tflite = runFramework(Framework::TfLite, info.id);
        const auto snpe = runFramework(Framework::Snpe, info.id);
        if (tflite)
            overT.push_back(tflite->latencyMs() / gcd2->latencyMs());
        if (snpe)
            overS.push_back(snpe->latencyMs() / gcd2->latencyMs());
    }
    ASSERT_EQ(overT.size(), 8u); // 8 TFLite-supported models
    ASSERT_EQ(overS.size(), 7u);

    const double geoT = geometricMean(overT);
    const double geoS = geometricMean(overS);
    // Paper geomeans: 2.8x / 2.1x; our behavioral baselines land in the
    // same qualitative regime (well above 1, overT > overS).
    EXPECT_GT(geoT, 1.4);
    EXPECT_GT(geoS, 1.2);
    EXPECT_GT(geoT, geoS);
}

TEST(FrameworksGeomeanTest, CalibrationPinsResnetLatency)
{
    // The cycles->ms constant is pinned so GCD2's ResNet-50 matches the
    // paper's 7.1 ms (guards accidental recalibration drift).
    const auto gcd2 = runFramework(Framework::Gcd2, ModelId::ResNet50);
    EXPECT_NEAR(gcd2->latencyMs(), 7.1, 0.4);
}

TEST(FrameworksGeomeanTest, PowerCalibrationPinsResnetWatts)
{
    // The power model's dynamic terms are fit so GCD2's ResNet-50 draws
    // the paper's 2.6 W (Table V); a kernel change that moves its
    // utilization must re-fit them in the open.
    const auto gcd2 = runFramework(Framework::Gcd2, ModelId::ResNet50);
    EXPECT_NEAR(runtime::DspPowerModel{}.watts(*gcd2), 2.6, 0.15);
}

} // namespace
} // namespace gcd2::baselines
