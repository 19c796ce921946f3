/**
 * @file
 * Golden served output: for every zoo model under five option sets, the
 * FNV-1a 64 hash of service::serializeModel, the total cycles and the
 * code packets (static packets over the distinct served programs) must
 * equal a table recorded from an earlier build.
 *
 * The differential suites compare two costing paths inside one build,
 * so a change that moves both sides the same way passes them. This table
 * pins the absolute output instead. A deliberate change to served code
 * or cycles regenerates it: on any mismatch the test prints the whole
 * actual table in source form, ready to paste over kGolden.
 */
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "models/zoo.h"
#include "runtime/compiler.h"
#include "service/artifact_store.h"

namespace gcd2::runtime {
namespace {

struct GoldenRow
{
    const char *model;
    const char *config;
    uint64_t bytesHash;
    uint64_t cycles;
    uint64_t codePackets;

    friend bool operator==(const GoldenRow &a, const GoldenRow &b)
    {
        return std::string(a.model) == b.model &&
               std::string(a.config) == b.config &&
               a.bytesHash == b.bytesHash && a.cycles == b.cycles &&
               a.codePackets == b.codePackets;
    }
};

// clang-format off
const std::vector<GoldenRow> kGolden = {
    {"MobileNet-V3", "default", 0xcc5605df5dbf8f77ull, 4926344ull, 1518ull},
    {"MobileNet-V3", "deep", 0xcc5605df5dbf8f77ull, 4926344ull, 1518ull},
    {"MobileNet-V3", "fusion", 0xa762df1a1258ea37ull, 4911734ull, 1490ull},
    {"MobileNet-V3", "no-lut", 0x5261a3c957e8f300ull, 5192376ull, 1514ull},
    {"MobileNet-V3", "uniform", 0x3aee0a47b2e07569ull, 5674508ull, 1496ull},
    {"EfficientNet-b0", "default", 0xf562f4dd2b1579e7ull, 7980716ull, 1652ull},
    {"EfficientNet-b0", "deep", 0xf562f4dd2b1579e7ull, 7980716ull, 1652ull},
    {"EfficientNet-b0", "fusion", 0x6c66847484ab21c4ull, 7971923ull, 1603ull},
    {"EfficientNet-b0", "no-lut", 0xb68e5922969489eaull, 8527373ull, 1639ull},
    {"EfficientNet-b0", "uniform", 0x56ba8b726cb3f70full, 8416739ull, 1604ull},
    {"ResNet-50", "default", 0x302d380728d1bae5ull, 25093261ull, 850ull},
    {"ResNet-50", "deep", 0x302d380728d1bae5ull, 25093261ull, 850ull},
    {"ResNet-50", "fusion", 0x20433efa33a36732ull, 24908601ull, 850ull},
    {"ResNet-50", "no-lut", 0xaa4256579aa1e30eull, 25191565ull, 850ull},
    {"ResNet-50", "uniform", 0x3be75cc3edc77136ull, 32950121ull, 850ull},
    {"FST", "default", 0xc73dde0abbd4ca7cull, 1279339248ull, 189ull},
    {"FST", "deep", 0xc73dde0abbd4ca7cull, 1279339248ull, 189ull},
    {"FST", "fusion", 0xc73dde0abbd4ca7cull, 1279339248ull, 189ull},
    {"FST", "no-lut", 0xe47cb99a286067full, 1299786480ull, 189ull},
    {"FST", "uniform", 0x543173b5fcfada3full, 1279339248ull, 189ull},
    {"CycleGAN", "default", 0xe822130a57ee69daull, 1127720075ull, 196ull},
    {"CycleGAN", "deep", 0xe822130a57ee69daull, 1127720075ull, 196ull},
    {"CycleGAN", "fusion", 0xb7950f0f4f2217d2ull, 1127699497ull, 189ull},
    {"CycleGAN", "no-lut", 0x16fc8f69bbd94d72ull, 1158334633ull, 195ull},
    {"CycleGAN", "uniform", 0x661f044422dfae16ull, 1127720075ull, 196ull},
    {"WDSR-b", "default", 0x347c47874b86f733ull, 96025928ull, 161ull},
    {"WDSR-b", "deep", 0x347c47874b86f733ull, 96025928ull, 161ull},
    {"WDSR-b", "fusion", 0x8a919657c13a7e2ull, 95377360ull, 156ull},
    {"WDSR-b", "no-lut", 0x347c47874b86f733ull, 96025928ull, 161ull},
    {"WDSR-b", "uniform", 0xd919d029915b7a3eull, 119965352ull, 161ull},
    {"EfficientDet-d0", "default", 0xf81eb3b6abf18ee3ull, 45395990ull, 1666ull},
    {"EfficientDet-d0", "deep", 0xf81eb3b6abf18ee3ull, 45395990ull, 1666ull},
    {"EfficientDet-d0", "fusion", 0x5e066067e9c9c4b1ull, 45503856ull, 1617ull},
    {"EfficientDet-d0", "no-lut", 0x2c2e6225d1bee676ull, 45886953ull, 1653ull},
    {"EfficientDet-d0", "uniform", 0x393197b5b2238e44ull, 47767692ull, 1618ull},
    {"PixOr", "default", 0xa61f1c305eae7447ull, 60748583ull, 786ull},
    {"PixOr", "deep", 0xa61f1c305eae7447ull, 60748583ull, 786ull},
    {"PixOr", "fusion", 0xb087c98bf42b9b16ull, 60148515ull, 786ull},
    {"PixOr", "no-lut", 0xa61f1c305eae7447ull, 60748583ull, 786ull},
    {"PixOr", "uniform", 0xff5d988aa1965573ull, 88786087ull, 786ull},
    {"TinyBERT", "default", 0xdcc7e72a9c93b912ull, 15954492ull, 328ull},
    {"TinyBERT", "deep", 0xdcc7e72a9c93b912ull, 15954492ull, 328ull},
    {"TinyBERT", "fusion", 0xc431fc7ec9871744ull, 15912938ull, 328ull},
    {"TinyBERT", "no-lut", 0xbefaa32316f067ccull, 112910598ull, 327ull},
    {"TinyBERT", "uniform", 0x1361dfbe4541d7bcull, 17856028ull, 338ull},
    {"Conformer", "default", 0x57f0d94361cf066full, 47728535ull, 501ull},
    {"Conformer", "deep", 0x57f0d94361cf066full, 47728535ull, 501ull},
    {"Conformer", "fusion", 0x7e00a2006fc86dbull, 47336903ull, 501ull},
    {"Conformer", "no-lut", 0xe07f7af7f2bc6637ull, 179609223ull, 500ull},
    {"Conformer", "uniform", 0x305df4e01a7b45daull, 58435143ull, 501ull},
};
// clang-format on

struct GoldenConfig
{
    const char *name;
    CompileOptions options;
};

std::vector<GoldenConfig>
goldenConfigs()
{
    CompileOptions base;
    base.numThreads = 2;
    std::vector<GoldenConfig> configs;
    configs.push_back({"default", base});
    CompileOptions deep = base;
    deep.audit = AuditMode::Deep;
    configs.push_back({"deep", deep});
    CompileOptions fusion = base;
    fusion.enableExtendedFusion = true;
    configs.push_back({"fusion", fusion});
    CompileOptions noLut = base;
    noLut.cost.lutOptimization = false;
    configs.push_back({"no-lut", noLut});
    CompileOptions uniform = base;
    uniform.selection = SelectionMode::Uniform;
    configs.push_back({"uniform", uniform});
    return configs;
}

uint64_t
fnv1a64(const std::vector<uint8_t> &bytes)
{
    uint64_t hash = 0xcbf29ce484222325ull;
    for (uint8_t b : bytes) {
        hash ^= b;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

uint64_t
codePackets(const CompiledModel &model)
{
    std::set<const dsp::PackedProgram *> seen;
    uint64_t packets = 0;
    for (const CompiledModel::ServedSchedule &sched : model.schedules)
        if (sched.program && seen.insert(sched.program.get()).second)
            packets += sched.program->packets.size();
    return packets;
}

std::string
formatTable(const std::vector<GoldenRow> &rows)
{
    std::ostringstream out;
    out << "const std::vector<GoldenRow> kGolden = {\n";
    for (const GoldenRow &row : rows)
        out << "    {\"" << row.model << "\", \"" << row.config << "\", 0x"
            << std::hex << row.bytesHash << std::dec << "ull, "
            << row.cycles << "ull, " << row.codePackets << "ull},\n";
    out << "};\n";
    return out.str();
}

TEST(GoldenServedTest, ZooServedBytesCyclesAndPacketsMatchRecording)
{
    std::vector<GoldenRow> actual;
    for (const models::ModelInfo &info : models::allModels()) {
        const graph::Graph g = models::buildModel(info.id);
        for (const GoldenConfig &config : goldenConfigs()) {
            const CompiledModel model = compile(g, config.options);
            actual.push_back({info.name, config.name,
                              fnv1a64(service::serializeModel(model)),
                              model.totals.cycles, codePackets(model)});
        }
    }
    EXPECT_TRUE(actual == kGolden)
        << "served output differs from the recorded table; if the "
           "change is deliberate, replace kGolden with:\n"
        << formatTable(actual);
}

} // namespace
} // namespace gcd2::runtime
