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
    {"MobileNet-V3", "default", 0xb95347d27fb6f59full, 5493769ull, 1560ull},
    {"MobileNet-V3", "deep", 0xb95347d27fb6f59full, 5493769ull, 1560ull},
    {"MobileNet-V3", "fusion", 0x7e79eaf380471404ull, 5479159ull, 1532ull},
    {"MobileNet-V3", "no-lut", 0x9a58120223d7b521ull, 5759801ull, 1556ull},
    {"MobileNet-V3", "uniform", 0x9a536b8bc7a050beull, 6297499ull, 1548ull},
    {"EfficientNet-b0", "default", 0x73a07286e34af167ull, 8892792ull, 1693ull},
    {"EfficientNet-b0", "deep", 0x73a07286e34af167ull, 8892792ull, 1693ull},
    {"EfficientNet-b0", "fusion", 0xc474c5789a1192afull, 8884029ull, 1651ull},
    {"EfficientNet-b0", "no-lut", 0x931933235b22ffb6ull, 9439051ull, 1687ull},
    {"EfficientNet-b0", "uniform", 0xd6a70a853955198cull, 9419263ull, 1662ull},
    {"ResNet-50", "default", 0xcf648f9c31e95344ull, 33789227ull, 882ull},
    {"ResNet-50", "deep", 0xcf648f9c31e95344ull, 33789227ull, 882ull},
    {"ResNet-50", "fusion", 0xc5a3380ed77563faull, 33604567ull, 882ull},
    {"ResNet-50", "no-lut", 0x68c1159a41c090dfull, 33887531ull, 882ull},
    {"ResNet-50", "uniform", 0xeb19e505a3d592d1ull, 41646087ull, 882ull},
    {"FST", "default", 0x4f2799076fd4b1c9ull, 1721969392ull, 195ull},
    {"FST", "deep", 0x4f2799076fd4b1c9ull, 1721969392ull, 195ull},
    {"FST", "fusion", 0x4f2799076fd4b1c9ull, 1721969392ull, 195ull},
    {"FST", "no-lut", 0x2a4b0ebd5e23b15eull, 1742416624ull, 195ull},
    {"FST", "uniform", 0xcef482ac50dc2160ull, 1721969392ull, 195ull},
    {"CycleGAN", "default", 0xf2a85037ed2e26bfull, 1631402363ull, 202ull},
    {"CycleGAN", "deep", 0xf2a85037ed2e26bfull, 1631402363ull, 202ull},
    {"CycleGAN", "fusion", 0x1ae265577c87c5deull, 1631381785ull, 195ull},
    {"CycleGAN", "no-lut", 0x641fadebfd9ca5b2ull, 1662016921ull, 201ull},
    {"CycleGAN", "uniform", 0x6cc21882648ad923ull, 1631402363ull, 202ull},
    {"WDSR-b", "default", 0x98f0d0ce2e226ec8ull, 128863304ull, 169ull},
    {"WDSR-b", "deep", 0x98f0d0ce2e226ec8ull, 128863304ull, 169ull},
    {"WDSR-b", "fusion", 0xbe176466edcd62a5ull, 128214736ull, 164ull},
    {"WDSR-b", "no-lut", 0x98f0d0ce2e226ec8ull, 128863304ull, 169ull},
    {"WDSR-b", "uniform", 0xe6a92b64dfad7d6ull, 152802728ull, 169ull},
    {"EfficientDet-d0", "default", 0x48402b9e2322361dull, 49912837ull, 1711ull},
    {"EfficientDet-d0", "deep", 0x48402b9e2322361dull, 49912837ull, 1711ull},
    {"EfficientDet-d0", "fusion", 0xbe797f8488e453eeull, 50020733ull, 1669ull},
    {"EfficientDet-d0", "no-lut", 0xa9d0c96212362d30ull, 50403402ull, 1705ull},
    {"EfficientDet-d0", "uniform", 0x53c4443493c72e53ull, 52758765ull, 1680ull},
    {"PixOr", "default", 0xd7e3c388438a7cb4ull, 84397191ull, 818ull},
    {"PixOr", "deep", 0xd7e3c388438a7cb4ull, 84397191ull, 818ull},
    {"PixOr", "fusion", 0xd1fcbf28105f04e3ull, 83797123ull, 818ull},
    {"PixOr", "no-lut", 0xd7e3c388438a7cb4ull, 84397191ull, 818ull},
    {"PixOr", "uniform", 0x5bef8a9578d2ad72ull, 112434695ull, 818ull},
    {"TinyBERT", "default", 0x28788fb7ac582c69ull, 18544474ull, 337ull},
    {"TinyBERT", "deep", 0x28788fb7ac582c69ull, 18544474ull, 337ull},
    {"TinyBERT", "fusion", 0xa96d129c0b45eebaull, 18502920ull, 337ull},
    {"TinyBERT", "no-lut", 0x61e1a9bafc486b1eull, 115500580ull, 336ull},
    {"TinyBERT", "uniform", 0x91dd8768bc2865c0ull, 20470346ull, 346ull},
    {"Conformer", "default", 0x70a3100db894ab94ull, 56870087ull, 515ull},
    {"Conformer", "deep", 0x70a3100db894ab94ull, 56870087ull, 515ull},
    {"Conformer", "fusion", 0x6c81d955da5b9e66ull, 56478455ull, 515ull},
    {"Conformer", "no-lut", 0x93e5934ca2d6ab67ull, 188750775ull, 514ull},
    {"Conformer", "uniform", 0x226439550d375519ull, 67576695ull, 515ull},
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
