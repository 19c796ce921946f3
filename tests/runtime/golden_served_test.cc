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
    {"MobileNet-V3", "default", 0x7fa45c7c2c605638ull, 7998451ull, 1560ull},
    {"MobileNet-V3", "deep", 0x7fa45c7c2c605638ull, 7998451ull, 1560ull},
    {"MobileNet-V3", "fusion", 0x3af9953fd4944973ull, 7983841ull, 1532ull},
    {"MobileNet-V3", "no-lut", 0xbb78cbab023cfdbdull, 8264262ull, 1494ull},
    {"MobileNet-V3", "uniform", 0x80a13386c49384aull, 8942125ull, 1548ull},
    {"EfficientNet-b0", "default", 0xa8a3a581dc4cd543ull, 13052101ull, 1699ull},
    {"EfficientNet-b0", "deep", 0xa8a3a581dc4cd543ull, 13052101ull, 1699ull},
    {"EfficientNet-b0", "fusion", 0x5a4765d5732eb88dull, 13043338ull, 1657ull},
    {"EfficientNet-b0", "no-lut", 0xc307ef403a3f9d99ull, 13598370ull, 1687ull},
    {"EfficientNet-b0", "uniform", 0xf46ed68432fe3bedull, 13829070ull, 1662ull},
    {"ResNet-50", "default", 0x3f1c387f5071c484ull, 44248363ull, 882ull},
    {"ResNet-50", "deep", 0x3f1c387f5071c484ull, 44248363ull, 882ull},
    {"ResNet-50", "fusion", 0xe6208395ab4c0d09ull, 44063703ull, 882ull},
    {"ResNet-50", "no-lut", 0x1a91c37a409c2102ull, 44346667ull, 882ull},
    {"ResNet-50", "uniform", 0x3599f05bf7f96f10ull, 52105223ull, 882ull},
    {"FST", "default", 0x7a0b303a29dce774ull, 2193009392ull, 195ull},
    {"FST", "deep", 0x7a0b303a29dce774ull, 2193009392ull, 195ull},
    {"FST", "fusion", 0x7a0b303a29dce774ull, 2193009392ull, 195ull},
    {"FST", "no-lut", 0xc2b35bea5bf9e6f7ull, 2213456624ull, 195ull},
    {"FST", "uniform", 0x4d930edca77cc143ull, 2193009392ull, 195ull},
    {"CycleGAN", "default", 0x9534af277093327aull, 2178436019ull, 202ull},
    {"CycleGAN", "deep", 0x9534af277093327aull, 2178436019ull, 202ull},
    {"CycleGAN", "fusion", 0xd9439345b9e56d3full, 2178415441ull, 195ull},
    {"CycleGAN", "no-lut", 0xc83db9df9048f45bull, 2209050577ull, 201ull},
    {"CycleGAN", "uniform", 0xcd0dee9f845f964cull, 2178436019ull, 202ull},
    {"WDSR-b", "default", 0xe6814c664300fef4ull, 142210664ull, 145ull},
    {"WDSR-b", "deep", 0xe6814c664300fef4ull, 142210664ull, 145ull},
    {"WDSR-b", "fusion", 0xa5bc7cc04369d4bdull, 141562096ull, 140ull},
    {"WDSR-b", "no-lut", 0xe6814c664300fef4ull, 142210664ull, 145ull},
    {"WDSR-b", "uniform", 0x824c8a9377ea083ull, 190003112ull, 169ull},
    {"EfficientDet-d0", "default", 0x3516b1249276385ull, 62171741ull, 1754ull},
    {"EfficientDet-d0", "deep", 0x3516b1249276385ull, 62171741ull, 1754ull},
    {"EfficientDet-d0", "fusion", 0x9b3446f70f4ef336ull, 62315207ull, 1760ull},
    {"EfficientDet-d0", "no-lut", 0xe3ffdf92a083ff4cull, 62661722ull, 1749ull},
    {"EfficientDet-d0", "uniform", 0xfd1673e3e27073b2ull, 67498753ull, 1680ull},
    {"PixOr", "default", 0x50b2aabc42510cc2ull, 110752907ull, 818ull},
    {"PixOr", "deep", 0x50b2aabc42510cc2ull, 110752907ull, 818ull},
    {"PixOr", "fusion", 0x76d9c5ea88685b4dull, 110152839ull, 818ull},
    {"PixOr", "no-lut", 0x50b2aabc42510cc2ull, 110752907ull, 818ull},
    {"PixOr", "uniform", 0xada336053a380603ull, 138790411ull, 818ull},
    {"TinyBERT", "default", 0xe3751b8a18a53a29ull, 22452723ull, 337ull},
    {"TinyBERT", "deep", 0xe3751b8a18a53a29ull, 22452723ull, 337ull},
    {"TinyBERT", "fusion", 0x8f0ca6864389994dull, 22411169ull, 337ull},
    {"TinyBERT", "no-lut", 0x22a226108859ea93ull, 119408829ull, 336ull},
    {"TinyBERT", "uniform", 0xf207107e388c5350ull, 24701587ull, 346ull},
    {"Conformer", "default", 0x9c64596ad355f94eull, 124042167ull, 510ull},
    {"Conformer", "deep", 0x9c64596ad355f94eull, 124042167ull, 510ull},
    {"Conformer", "fusion", 0x9f2c9998f6768a25ull, 123650535ull, 510ull},
    {"Conformer", "no-lut", 0xc8a4f481fa4ed63eull, 255922855ull, 509ull},
    {"Conformer", "uniform", 0x30152f26499e8bfdull, 134748775ull, 510ull},
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
