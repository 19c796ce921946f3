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
    {"MobileNet-V3", "default", 0xbaef4839947d3a02ull, 4803845ull, 1541ull},
    {"MobileNet-V3", "deep", 0xbaef4839947d3a02ull, 4803845ull, 1541ull},
    {"MobileNet-V3", "fusion", 0x512e1f8cf4738118ull, 4789235ull, 1513ull},
    {"MobileNet-V3", "no-lut", 0x6d7769a7178a06acull, 5069877ull, 1537ull},
    {"MobileNet-V3", "uniform", 0x759f137cdfbeaca6ull, 5490857ull, 1582ull},
    {"EfficientNet-b0", "default", 0x9fa9971a704bb045ull, 7765522ull, 1764ull},
    {"EfficientNet-b0", "deep", 0x9fa9971a704bb045ull, 7765522ull, 1764ull},
    {"EfficientNet-b0", "fusion", 0xa2e4b9f861336a70ull, 7756729ull, 1715ull},
    {"EfficientNet-b0", "no-lut", 0xe6287f7f35543d6full, 8312179ull, 1751ull},
    {"EfficientNet-b0", "uniform", 0xbb00297a77da78f2ull, 8107521ull, 1728ull},
    {"ResNet-50", "default", 0x3e8b7aeb73e2431eull, 23126173ull, 815ull},
    {"ResNet-50", "deep", 0x3e8b7aeb73e2431eull, 23126173ull, 815ull},
    {"ResNet-50", "fusion", 0xf63c358afe05b05full, 22941513ull, 815ull},
    {"ResNet-50", "no-lut", 0xc128b9ef7c613fabull, 23224477ull, 815ull},
    {"ResNet-50", "uniform", 0xeb0ff39e3b8e18f2ull, 30983033ull, 815ull},
    {"FST", "default", 0xb21d5e11f1140191ull, 1110420208ull, 238ull},
    {"FST", "deep", 0xb21d5e11f1140191ull, 1110420208ull, 238ull},
    {"FST", "fusion", 0xb21d5e11f1140191ull, 1110420208ull, 238ull},
    {"FST", "no-lut", 0x99fe09ce46daf76ull, 1130867440ull, 238ull},
    {"FST", "uniform", 0x37a3b3e34b90b182ull, 1110420208ull, 238ull},
    {"CycleGAN", "default", 0xfaf0eca041c1f65ull, 977372775ull, 245ull},
    {"CycleGAN", "deep", 0xfaf0eca041c1f65ull, 977372775ull, 245ull},
    {"CycleGAN", "fusion", 0xc1e6771720cf1efbull, 977352197ull, 238ull},
    {"CycleGAN", "no-lut", 0x81c2dce618454416ull, 1007987333ull, 244ull},
    {"CycleGAN", "uniform", 0xace99309907b9339ull, 977372775ull, 245ull},
    {"WDSR-b", "default", 0xbcd4431f6c26b723ull, 80076072ull, 209ull},
    {"WDSR-b", "deep", 0xbcd4431f6c26b723ull, 80076072ull, 209ull},
    {"WDSR-b", "fusion", 0xcbe316e92439db4dull, 79427504ull, 204ull},
    {"WDSR-b", "no-lut", 0xbcd4431f6c26b723ull, 80076072ull, 209ull},
    {"WDSR-b", "uniform", 0x53d6346a49f83df5ull, 104015496ull, 209ull},
    {"EfficientDet-d0", "default", 0x3389a0ecce42c0d4ull, 43384555ull, 1611ull},
    {"EfficientDet-d0", "deep", 0x3389a0ecce42c0d4ull, 43384555ull, 1611ull},
    {"EfficientDet-d0", "fusion", 0xc706a7b63df2a3afull, 43492421ull, 1562ull},
    {"EfficientDet-d0", "no-lut", 0x6a3ff51a927e70dfull, 43875518ull, 1598ull},
    {"EfficientDet-d0", "uniform", 0xbf0b505f7ecc84faull, 45258593ull, 1626ull},
    {"PixOr", "default", 0xc8b43bbf98e143b6ull, 51979579ull, 799ull},
    {"PixOr", "deep", 0xc8b43bbf98e143b6ull, 51979579ull, 799ull},
    {"PixOr", "fusion", 0x32bbbf087ae21b04ull, 51379511ull, 799ull},
    {"PixOr", "no-lut", 0xc8b43bbf98e143b6ull, 51979579ull, 799ull},
    {"PixOr", "uniform", 0x2eca24cf88662b96ull, 80017083ull, 799ull},
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
