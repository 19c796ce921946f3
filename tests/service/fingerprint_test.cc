/**
 * @file
 * Pinned content fingerprints: the request key of one zoo model
 * (service::fingerprintRequest), and the pack-cache and decode-cache keys
 * (vliw::fingerprintForPacking, dsp::fingerprintProgram) of every
 * distinct program its compile serves, must equal values recorded from
 * an earlier build.
 *
 * These keys name artifacts on disk and entries in the process-wide
 * caches, so a refactor of the hashing code must not move them. On a
 * mismatch the test prints the actual values in source form.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "dsp/decoded.h"
#include "models/zoo.h"
#include "runtime/compiler.h"
#include "service/fingerprint.h"
#include "vliw/pack_cache.h"

namespace gcd2::service {
namespace {

/** FNV-1a 64 over a list of 64-bit words (test-local, independent of
 *  the hashing code under test). */
uint64_t
foldWords(const std::vector<uint64_t> &words)
{
    uint64_t hash = 0xcbf29ce484222325ull;
    for (uint64_t word : words) {
        for (int shift = 0; shift < 64; shift += 8) {
            hash ^= (word >> shift) & 0xff;
            hash *= 0x100000001b3ull;
        }
    }
    return hash;
}

std::string
hex(uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016llxull",
                  static_cast<unsigned long long>(value));
    return buf;
}

TEST(FingerprintTest, ZooModelAndServedProgramKeysMatchRecording)
{
    const graph::Graph g = models::buildModel(models::ModelId::WdsrB);
    const runtime::CompileOptions options;

    const ModelKey request = fingerprintRequest(g, options);

    const runtime::CompiledModel model = runtime::compile(g, options);
    std::set<const dsp::PackedProgram *> seen;
    std::vector<uint64_t> packWords;
    std::vector<uint64_t> decodeWords;
    for (const runtime::CompiledModel::ServedSchedule &sched :
         model.schedules) {
        if (!sched.program || !seen.insert(sched.program.get()).second)
            continue;
        const vliw::PackKey pack = vliw::fingerprintForPacking(
            sched.program->program, options.cost.packOptions);
        packWords.insert(packWords.end(),
                         {pack.h0, pack.h1, pack.instructions,
                          uint64_t{pack.policy}});
        const dsp::DecodeKey decode = dsp::fingerprintProgram(*sched.program);
        decodeWords.insert(decodeWords.end(),
                           {decode.h0, decode.h1, decode.instructions,
                            decode.packets});
    }

    const uint64_t programs = seen.size();
    const uint64_t packDigest = foldWords(packWords);
    const uint64_t decodeDigest = foldWords(decodeWords);
    const std::string actual =
        "request " + hex(request.h0) + " " + hex(request.h1) + " " +
        std::to_string(request.nodes) + "; programs " +
        std::to_string(programs) + "; pack " + hex(packDigest) +
        "; decode " + hex(decodeDigest);

    EXPECT_EQ(request.h0, 0xc776f91410991520ull) << actual;
    EXPECT_EQ(request.h1, 0xadb567560b972543ull) << actual;
    EXPECT_EQ(request.nodes, 48u) << actual;
    EXPECT_EQ(programs, 5u) << actual;
    EXPECT_EQ(packDigest, 0x32699192e18edacbull) << actual;
    EXPECT_EQ(decodeDigest, 0xa7b3dcef0fb1c453ull) << actual;
}

} // namespace
} // namespace gcd2::service
