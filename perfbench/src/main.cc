/**
 * @file
 * gcd2_perfbench: runs one named workload under a seed and prints, as its
 * last stdout line, {"correct", "attempted", "failed", "metrics"}. With
 * --trace 0 the metrics are the end-to-end ones; with --trace 1 the
 * per-layer ones, and the spans are written to the work directory.
 *
 *   gcd2_perfbench --workload zoo-cold|zoo-deep|serve-mix --seed N
 *                  --seconds S --trace 0|1 --work-dir DIR [--self-test]
 *
 * Exit status: 0 when every output check passed, 1 on a correctness
 * failure, 2 on bad arguments.
 */
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>

#include "harness.h"

namespace {

int
usage(const char *why)
{
    std::cerr << "error: " << why
              << "\nusage: gcd2_perfbench --workload zoo-cold|zoo-deep|"
                 "serve-mix --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR [--self-test]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunConfig config;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--self-test") {
            config.selfTest = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage((flag + " needs a value").c_str());
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                config.workload = value;
            else if (flag == "--seed")
                config.seed = std::stoull(value);
            else if (flag == "--seconds")
                config.seconds = std::stod(value);
            else if (flag == "--trace")
                config.trace = value != "0";
            else if (flag == "--work-dir")
                config.workDir = value;
            else
                return usage(("unknown flag " + flag).c_str());
        } catch (const std::exception &) {
            return usage(("bad value for " + flag).c_str());
        }
    }
    if (config.workDir.empty() || config.seconds <= 0.0)
        return usage("--work-dir and a positive --seconds are required");
    std::filesystem::create_directories(config.workDir);

    perfbench::RunResult result;
    if (config.workload == "zoo-cold")
        result = perfbench::runZoo(config, /*deep=*/false);
    else if (config.workload == "zoo-deep")
        result = perfbench::runZoo(config, /*deep=*/true);
    else if (config.workload == "serve-mix")
        result = perfbench::runServeMix(config);
    else
        return usage(("unknown workload " + config.workload).c_str());

    for (const std::string &failure : result.failures)
        std::cerr << "FAIL: " << failure << "\n";
    std::printf("input_digest %016llx\n",
                static_cast<unsigned long long>(result.inputDigest));
    std::printf("fail_ratio %.6g (%llu of %llu)\n",
                perfbench::ratio(static_cast<double>(result.failed),
                                 static_cast<double>(result.attempted)),
                static_cast<unsigned long long>(result.failed),
                static_cast<unsigned long long>(result.attempted));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                result.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed),
                result.metrics.json().c_str());
    return result.failed == 0 ? 0 : 1;
}
