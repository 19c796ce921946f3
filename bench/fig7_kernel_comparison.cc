/**
 * @file
 * Fig. 7: per-kernel speedup and packet counts of GCD_b / GCD2 against
 * Halide, TVM, and RAKE on the first 8 unique ResNet-50 Conv2D kernels
 * (C0-C7), normalized by Halide.
 */
#include <iostream>
#include <vector>

#include "baselines/kernel_compilers.h"
#include "common/table.h"

using namespace gcd2;
using baselines::KernelCompiler;

int
main()
{
    std::cout << "Fig. 7: Kernel Speedup and Packet Counts vs Halide "
                 "(ResNet-50 Conv2D C0-C7)\n\n";

    const auto compilers = {KernelCompiler::Halide, KernelCompiler::Tvm,
                            KernelCompiler::Rake, KernelCompiler::GcdB,
                            KernelCompiler::Gcd2};

    Table speedup({"Kernel", "Halide", "TVM", "RAKE", "GCD_b", "GCD2"});
    Table packets(
        {"Kernel", "Halide", "TVM", "RAKE", "GCD_b", "GCD2"});

    std::vector<double> packetRatioVsHalide, packetRatioVsTvm,
        packetRatioVsRake;
    const auto &kernels = baselines::resnetConvKernels();
    for (size_t i = 0; i < kernels.size(); ++i) {
        std::string label = "C";
        label += std::to_string(i);
        std::vector<std::string> speedRow{label};
        std::vector<std::string> packetRow{label};
        double halideCycles = 0, halidePackets = 0;
        double tvmPackets = 0, rakePackets = 0, gcd2Packets = 0;
        for (KernelCompiler compiler : compilers) {
            const auto result =
                baselines::compileConv(kernels[i], compiler);
            if (compiler == KernelCompiler::Halide) {
                halideCycles = static_cast<double>(result.cycles);
                halidePackets =
                    static_cast<double>(result.dynamicPackets);
            }
            if (compiler == KernelCompiler::Tvm)
                tvmPackets = static_cast<double>(result.dynamicPackets);
            if (compiler == KernelCompiler::Rake)
                rakePackets = static_cast<double>(result.dynamicPackets);
            if (compiler == KernelCompiler::Gcd2)
                gcd2Packets = static_cast<double>(result.dynamicPackets);
            speedRow.push_back(fmtSpeedup(
                halideCycles / static_cast<double>(result.cycles)));
            packetRow.push_back(fmtDouble(
                static_cast<double>(result.dynamicPackets) /
                    halidePackets,
                2));
        }
        speedup.addRow(speedRow);
        packets.addRow(packetRow);
        packetRatioVsHalide.push_back(gcd2Packets / halidePackets);
        packetRatioVsTvm.push_back(gcd2Packets / tvmPackets);
        packetRatioVsRake.push_back(gcd2Packets / rakePackets);
    }

    std::cout << "Speedup over Halide (left plot):\n";
    speedup.print(std::cout);
    std::cout << "\nExecuted packets normalized by Halide (right plot):\n";
    packets.print(std::cout);

    auto mean = [](const std::vector<double> &v) {
        double sum = 0;
        for (double x : v)
            sum += x;
        return sum / static_cast<double>(v.size());
    };
    std::cout << "\nGCD2 packets vs Halide: "
              << fmtDouble(100.0 * (1.0 - mean(packetRatioVsHalide)), 0)
              << "% fewer (paper 25%), vs TVM: "
              << fmtDouble(100.0 * (1.0 - mean(packetRatioVsTvm)), 0)
              << "% fewer (paper 19%), vs RAKE: "
              << fmtDouble(100.0 * (1.0 - mean(packetRatioVsRake)), 0)
              << "% fewer (paper 21%)\n"
              << "paper headline speedups over Halide/TVM/RAKE: up to "
                 "4.5x / 3.4x / 4.0x; GCD_b (tensor opts only) up to "
                 "3.8x / 2.7x / 3.3x.\n";
    return 0;
}
