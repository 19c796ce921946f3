#include "vliw/pack_cache.h"

#include <bit>
#include <cstring>
#include <type_traits>

#include "common/fnv.h"
#include "common/timer.h"
#include "vliw/pack_fast.h"

namespace gcd2::vliw {

namespace {

void
hashRequest(const dsp::Program &prog, const PackOptions &opts,
            common::FnvPair &fnv)
{
    dsp::hashProgramCode(prog, fnv);
    // Options: the policy plus the exact bit patterns of the scoring
    // tunables (two doubles that differ in any bit pack differently).
    fnv.value(uint64_t{0x9acc});
    fnv.value(static_cast<uint8_t>(opts.policy));
    fnv.value(std::bit_cast<uint64_t>(opts.w));
    fnv.value(std::bit_cast<uint64_t>(opts.penaltyScale));
}

/** Append the object representation of @p v to @p out. */
template <typename T>
void
put(std::vector<uint8_t> &out, const T &v)
{
    static_assert(std::is_trivially_copyable_v<T>);
    const size_t at = out.size();
    out.resize(at + sizeof(v));
    std::memcpy(out.data() + at, &v, sizeof(v));
}

void
putOperand(std::vector<uint8_t> &out, const dsp::Operand &operand)
{
    put(out, static_cast<uint8_t>(operand.cls));
    put(out, operand.idx);
}

} // namespace

PackKey
fingerprintForPacking(const dsp::Program &prog, const PackOptions &opts)
{
    common::FnvPair fnv;
    hashRequest(prog, opts, fnv);
    fnv.secondLaneValue(uint64_t{0x5eed});
    PackKey key;
    key.h0 = fnv.first();
    key.h1 = fnv.second();
    key.instructions = prog.code.size();
    key.policy = static_cast<uint8_t>(opts.policy);
    return key;
}

std::shared_ptr<const dsp::PackedProgram>
PackCache::lookupOrPack(const dsp::Program &prog, const PackOptions &opts)
{
    return lru_.lookupOrCompute(fingerprintForPacking(prog, opts), [&] {
        Timer timer;
        auto packed = std::make_shared<const dsp::PackedProgram>(
            detail::packBlocks(prog, [&](const BasicBlock &block,
                                         const dsp::AliasAnalysis &alias) {
                return packBlock(prog, block, alias, opts);
            }));
        packNanos_.fetch_add(static_cast<uint64_t>(timer.seconds() * 1e9),
                             std::memory_order_relaxed);
        return packed;
    });
}

BlockPackingKey
blockPackingKey(const dsp::Program &prog, const BasicBlock &block,
                const dsp::AliasAnalysis &alias, const PackOptions &opts)
{
    BlockPackingKey key;
    std::vector<uint8_t> &bytes = key.bytes;
    bytes.reserve(32 + 7 * block.size());
    put(bytes, static_cast<uint8_t>(opts.policy));
    put(bytes, std::bit_cast<uint64_t>(opts.w));
    put(bytes, std::bit_cast<uint64_t>(opts.penaltyScale));
    put(bytes, static_cast<uint64_t>(block.size()));
    std::vector<size_t> mems;
    for (size_t i = block.begin; i < block.end; ++i) {
        const dsp::Instruction &inst = prog.code[i];
        put(bytes, static_cast<uint8_t>(inst.op));
        putOperand(bytes, inst.dst[0]);
        putOperand(bytes, inst.src[0]);
        putOperand(bytes, inst.src[1]);
        if (inst.info().mem != dsp::MemKind::None)
            mems.push_back(i);
    }
    uint8_t bits = 0;
    int used = 0;
    for (size_t b = 0; b < mems.size(); ++b) {
        const bool store = prog.code[mems[b]].info().mem ==
                           dsp::MemKind::Store;
        for (size_t a = 0; a < b; ++a) {
            if (!store &&
                prog.code[mems[a]].info().mem != dsp::MemKind::Store)
                continue; // load-load: never read
            if (alias.mayAlias(mems[a], mems[b]))
                bits = static_cast<uint8_t>(bits | (1u << used));
            if (++used == 8) {
                bytes.push_back(bits);
                bits = 0;
                used = 0;
            }
        }
    }
    if (used > 0)
        bytes.push_back(bits);
    common::Fnv fnv;
    fnv.bytes(bytes.data(), bytes.size());
    key.hash = fnv.digest();
    return key;
}

std::vector<dsp::Packet>
PackCache::packBlock(const dsp::Program &prog, const BasicBlock &block,
                     const dsp::AliasAnalysis &alias,
                     const PackOptions &opts)
{
    const std::shared_ptr<const BlockPackets> cached = blocks_.lookupOrCompute(
        blockPackingKey(prog, block, alias, opts), [&] {
            auto out = std::make_shared<BlockPackets>();
            for (const dsp::Packet &packet :
                 detail::packBlock(prog, block, alias, opts)) {
                for (size_t inst : packet.insts)
                    out->insts.push_back(
                        static_cast<uint32_t>(inst - block.begin));
                out->sizes.push_back(
                    static_cast<uint8_t>(packet.insts.size()));
            }
            return std::shared_ptr<const BlockPackets>(std::move(out));
        });

    std::vector<dsp::Packet> packets(cached->sizes.size());
    size_t next = 0;
    for (size_t p = 0; p < packets.size(); ++p) {
        packets[p].insts.resize(cached->sizes[p]);
        for (size_t &inst : packets[p].insts)
            inst = block.begin + cached->insts[next++];
    }
    return packets;
}

PackCache::Stats
PackCache::stats() const
{
    const common::CacheStats s = lru_.stats();
    const common::CacheStats b = blocks_.stats();
    return Stats{s.hits,
                 s.misses,
                 s.evictions,
                 static_cast<double>(
                     packNanos_.load(std::memory_order_relaxed)) *
                     1e-9,
                 b.hits,
                 b.misses};
}

void
PackCache::clear()
{
    lru_.clear();
    blocks_.clear();
    packNanos_.store(0, std::memory_order_relaxed);
}

PackCache &
PackCache::global()
{
    static PackCache cache;
    return cache;
}

} // namespace gcd2::vliw
