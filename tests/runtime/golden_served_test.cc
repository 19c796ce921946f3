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
    {"MobileNet-V3", "default", 0x46f37697451f9934ull, 7998658ull, 1560ull},
    {"MobileNet-V3", "deep", 0x46f37697451f9934ull, 7998658ull, 1560ull},
    {"MobileNet-V3", "fusion", 0xf6ab12ddfe2a3db9ull, 7983995ull, 1532ull},
    {"MobileNet-V3", "no-lut", 0x6b9995285dc2d9f0ull, 8264460ull, 1494ull},
    {"MobileNet-V3", "uniform", 0xd2db36b8abb58957ull, 8942322ull, 1548ull},
    {"EfficientNet-b0", "default", 0xdcb4d90a6d138197ull, 13052715ull, 1699ull},
    {"EfficientNet-b0", "deep", 0xdcb4d90a6d138197ull, 13052715ull, 1699ull},
    {"EfficientNet-b0", "fusion", 0x7e4e4353c4c44a51ull, 13043923ull, 1657ull},
    {"EfficientNet-b0", "no-lut", 0xbd0be472b0cd0ba5ull, 13598967ull, 1687ull},
    {"EfficientNet-b0", "uniform", 0x3b4c1ddabecf0bc2ull, 13829662ull, 1662ull},
    {"ResNet-50", "default", 0xc24c3ae672f2a428ull, 44249174ull, 882ull},
    {"ResNet-50", "deep", 0xc24c3ae672f2a428ull, 44249174ull, 882ull},
    {"ResNet-50", "fusion", 0x81c7d143bcf765feull, 44063814ull, 882ull},
    {"ResNet-50", "no-lut", 0x124d60134dc3474eull, 44347478ull, 882ull},
    {"ResNet-50", "uniform", 0xa19db71b4181f3b0ull, 52106013ull, 882ull},
    {"FST", "default", 0xc627b7b534aac8bull, 2193049328ull, 195ull},
    {"FST", "deep", 0xc627b7b534aac8bull, 2193049328ull, 195ull},
    {"FST", "fusion", 0xc627b7b534aac8bull, 2193049328ull, 195ull},
    {"FST", "no-lut", 0x4a8ae4ad48b960fcull, 2213496560ull, 195ull},
    {"FST", "uniform", 0x670233cc2b91c8b8ull, 2193049328ull, 195ull},
    {"CycleGAN", "default", 0x701c146be9a64df5ull, 2178458328ull, 202ull},
    {"CycleGAN", "deep", 0x701c146be9a64df5ull, 2178458328ull, 202ull},
    {"CycleGAN", "fusion", 0x27a9108996b2b7e1ull, 2178437750ull, 195ull},
    {"CycleGAN", "no-lut", 0x3bac69e381b5c323ull, 2209072886ull, 201ull},
    {"CycleGAN", "uniform", 0xed54b2b2d1269877ull, 2178458328ull, 202ull},
    {"WDSR-b", "default", 0xe0a96f51543372d4ull, 142213168ull, 145ull},
    {"WDSR-b", "deep", 0xe0a96f51543372d4ull, 142213168ull, 145ull},
    {"WDSR-b", "fusion", 0xa5bc7cc04369d4bdull, 141562096ull, 140ull},
    {"WDSR-b", "no-lut", 0xe0a96f51543372d4ull, 142213168ull, 145ull},
    {"WDSR-b", "uniform", 0xf221f539abf5290cull, 190005616ull, 169ull},
    {"EfficientDet-d0", "default", 0x783deabe3e44634aull, 62175154ull, 1754ull},
    {"EfficientDet-d0", "deep", 0x783deabe3e44634aull, 62175154ull, 1754ull},
    {"EfficientDet-d0", "fusion", 0x74c198249365ca23ull, 62318450ull, 1760ull},
    {"EfficientDet-d0", "no-lut", 0x3ae8eadfb6bd665dull, 62665135ull, 1749ull},
    {"EfficientDet-d0", "uniform", 0xc5208289f3664a58ull, 67502166ull, 1680ull},
    {"PixOr", "default", 0xd57d804dca607285ull, 110755363ull, 818ull},
    {"PixOr", "deep", 0xd57d804dca607285ull, 110755363ull, 818ull},
    {"PixOr", "fusion", 0x8772564363c98dadull, 110152977ull, 818ull},
    {"PixOr", "no-lut", 0xd57d804dca607285ull, 110755363ull, 818ull},
    {"PixOr", "uniform", 0x427fea3f4cedededull, 138792867ull, 818ull},
    {"TinyBERT", "default", 0x60894e0b1dd6c7cfull, 22453735ull, 337ull},
    {"TinyBERT", "deep", 0x60894e0b1dd6c7cfull, 22453735ull, 337ull},
    {"TinyBERT", "fusion", 0x2d3c18bcabf5225eull, 22412085ull, 337ull},
    {"TinyBERT", "no-lut", 0xb8472f08a8233631ull, 119415241ull, 336ull},
    {"TinyBERT", "uniform", 0xe0609af56646622cull, 24702599ull, 346ull},
    {"Conformer", "default", 0x9af5ab6ce3705073ull, 124044501ull, 510ull},
    {"Conformer", "deep", 0x9af5ab6ce3705073ull, 124044501ull, 510ull},
    {"Conformer", "fusion", 0x476aa700719040beull, 123652533ull, 510ull},
    {"Conformer", "no-lut", 0xa60810c75d7ece90ull, 255930197ull, 509ull},
    {"Conformer", "uniform", 0x773eacd3fe8b1ad0ull, 134751093ull, 510ull},
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
