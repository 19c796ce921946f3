#include "select/tiered_cost.h"

#include <sstream>

#include "common/round.h"
#include "common/timer.h"
#include "kernels/runner.h"
#include "dsp/alias.h"
#include "vliw/pack_cache.h"

namespace gcd2::select {

namespace {

using kernels::MatMulConfig;
using kernels::MatMulShape;

/** Anchor inner-loop trip counts for the affine certification. */
constexpr int64_t kAnchors[3] = {8, 12, 16};

NodeExecStats
fromRun(const kernels::KernelRunResult &run)
{
    NodeExecStats stats;
    stats.cycles = run.stats.cycles;
    stats.instructions = run.stats.instructionsExecuted;
    stats.packets = run.stats.packetsExecuted;
    stats.bytesLoaded = run.stats.bytesLoaded;
    stats.bytesStored = run.stats.bytesStored;
    return stats;
}

/** field-wise base + iters * slope. */
NodeExecStats
affineAt(const NodeExecStats &base, const NodeExecStats &slope,
         int64_t iters)
{
    const uint64_t n = static_cast<uint64_t>(iters);
    NodeExecStats out;
    out.cycles = base.cycles + n * slope.cycles;
    out.instructions = base.instructions + n * slope.instructions;
    out.packets = base.packets + n * slope.packets;
    out.bytesLoaded = base.bytesLoaded + n * slope.bytesLoaded;
    out.bytesStored = base.bytesStored + n * slope.bytesStored;
    return out;
}

/**
 * Exact integer affine fit of one stat field from the three anchors:
 * f(a) = base + a * slope with equal deltas across both anchor gaps and
 * an exactly divisible slope. Returns false when the field is not affine
 * in the trip count (the class then stays uncertified).
 */
bool
fitField(uint64_t f8, uint64_t f12, uint64_t f16, uint64_t *base,
         uint64_t *slope)
{
    if (f12 < f8 || f16 < f12)
        return false;
    const uint64_t d1 = f12 - f8;
    const uint64_t d2 = f16 - f12;
    if (d1 != d2 || d1 % (kAnchors[1] - kAnchors[0]) != 0)
        return false;
    *slope = d1 / (kAnchors[1] - kAnchors[0]);
    if (f8 < static_cast<uint64_t>(kAnchors[0]) * *slope)
        return false;
    *base = f8 - static_cast<uint64_t>(kAnchors[0]) * *slope;
    return true;
}

int64_t
itersFor(const MatMulShape &tile, const MatMulConfig &config)
{
    return common::ceilDiv(tile.k,
                           kernels::kQuantum(config.scheme, config.unrollK));
}

/** The class member at the @p anchor-th anchor depth. */
MatMulShape
anchorTile(MatMulShape tile, const MatMulConfig &config, int anchor)
{
    tile.k = kernels::kQuantum(config.scheme, config.unrollK) *
             kAnchors[anchor];
    return tile;
}

/** The blockPackingKey of every block of @p prog, in program order. */
std::vector<vliw::BlockPackingKey>
packingKeys(const dsp::Program &prog, const vliw::PackOptions &opts)
{
    const dsp::AliasAnalysis alias(prog);
    std::vector<vliw::BlockPackingKey> keys;
    for (const vliw::BasicBlock &block : vliw::buildCfg(prog).blocks)
        keys.push_back(vliw::blockPackingKey(prog, block, alias, opts));
    return keys;
}

/** transplantCompatible short of the block keys. */
bool
sameFrame(const dsp::Program &a, const dsp::Program &b)
{
    if (a.code.size() != b.code.size() || a.labels != b.labels ||
        a.noaliasRegs != b.noaliasRegs)
        return false;
    for (size_t i = 0; i < a.code.size(); ++i)
        if (a.code[i].isBranch() && a.code[i].imm != b.code[i].imm)
            return false;
    return true;
}

/** @p prog served with @p anchor's packets and label map. */
std::shared_ptr<const dsp::PackedProgram>
transplant(const dsp::PackedProgram &anchor, const dsp::Program &prog)
{
    return std::make_shared<const dsp::PackedProgram>(
        dsp::PackedProgram{prog, anchor.packets, anchor.labelPacket});
}

} // namespace

std::vector<int64_t>
tileClassKey(const MatMulShape &tile, const MatMulConfig &config)
{
    return {static_cast<int64_t>(config.scheme),
            config.unrollOut,
            config.unrollCols,
            config.unrollK,
            config.shift16,
            config.shiftWordHalf,
            config.shiftHalfByte,
            tile.m,
            tile.n};
}

size_t
tileClassProgramSize(const MatMulShape &tile, const MatMulConfig &config)
{
    return kernels::MatMulKernel(anchorTile(tile, config, 0), config)
        .program()
        .code.size();
}

bool
transplantCompatible(const dsp::Program &a, const dsp::Program &b)
{
    return sameFrame(a, b) && packingKeys(a, {}) == packingKeys(b, {});
}

struct TieredCoster::TileClass
{
    std::mutex mu;
    bool tried = false;
    bool certified = false;
    /** Program at the low anchor; the structural template of the class. */
    dsp::Program canonical;
    /** packingKeys of canonical, so a member check analyses the member
     *  alone. */
    std::vector<vliw::BlockPackingKey> canonicalKeys;
    /** The one real pack of the class (low anchor, via the PackCache). */
    std::shared_ptr<const dsp::PackedProgram> anchorPack;
    NodeExecStats base;            ///< affine fit: f(iters) = base +
    NodeExecStats slope;           ///<   iters * slope, per field
    NodeExecStats anchorStats[3];  ///< raw anchor sims (audit evidence)
    AnalyticBounds canonicalBounds;///< tier-1 bounds of the low anchor
    /** Transplanted schedules by trip count (shared across nodes). */
    std::map<int64_t, std::shared_ptr<const dsp::PackedProgram>> packs;
    /** Tier-1 analytic bounds by trip count. */
    std::map<int64_t, AnalyticBounds> bounds;
    /** admits() of the member at each trip count: a member's program
     *  depends only on the class key and its depth, so each depth is
     *  generated and checked once. */
    std::map<int64_t, bool> admitted;

    /** transplantCompatible(canonical, @p prog) under @p opts. */
    bool admits(const dsp::Program &prog,
                const vliw::PackOptions &opts) const
    {
        return sameFrame(canonical, prog) &&
               packingKeys(prog, opts) == canonicalKeys;
    }
};

TieredCoster::TieredCoster(const vliw::PackOptions &packOptions)
    : packOptions_(packOptions)
{
}

TieredCoster::~TieredCoster() = default;

TieredCoster::TileClass &
TieredCoster::classFor(const MatMulShape &tile, const MatMulConfig &config)
{
    const std::vector<int64_t> key = tileClassKey(tile, config);
    std::lock_guard<std::mutex> lock(mu_);
    std::unique_ptr<TileClass> &slot = classes_[key];
    if (!slot)
        slot = std::make_unique<TileClass>();
    return *slot;
}

void
TieredCoster::certify(TileClass &cls, const MatMulShape &tile,
                      const MatMulConfig &config)
{
    cls.tried = true;
    const Timer timer;
    NodeExecStats stats[3];
    for (int a = 0; a < 3; ++a) {
        const kernels::MatMulKernel kernel(anchorTile(tile, config, a),
                                           config);
        if (a == 0) {
            cls.canonical = kernel.program();
            cls.canonicalKeys = packingKeys(cls.canonical, packOptions_);
            cls.anchorPack = vliw::PackCache::global().lookupOrPack(
                cls.canonical, packOptions_);
            cls.packs[kAnchors[0]] = cls.anchorPack;
        } else if (cls.admits(kernel.program(), packOptions_)) {
            cls.packs[kAnchors[a]] =
                transplant(*cls.anchorPack, kernel.program());
        } else {
            uncertifiedClasses_.fetch_add(1, std::memory_order_relaxed);
            certifyMicros_.fetch_add(
                static_cast<uint64_t>(timer.seconds() * 1e6),
                std::memory_order_relaxed);
            return;
        }
        const kernels::KernelRunResult run = kernels::runPackedKernel(
            cls.packs[kAnchors[a]], kernel.buffers(), {}, {});
        anchorSims_.fetch_add(1, std::memory_order_relaxed);
        stats[a] = fromRun(run);
        cls.anchorStats[a] = stats[a];
    }

    NodeExecStats base;
    NodeExecStats slope;
    const bool affine =
        fitField(stats[0].cycles, stats[1].cycles, stats[2].cycles,
                 &base.cycles, &slope.cycles) &&
        fitField(stats[0].instructions, stats[1].instructions,
                 stats[2].instructions, &base.instructions,
                 &slope.instructions) &&
        fitField(stats[0].packets, stats[1].packets, stats[2].packets,
                 &base.packets, &slope.packets) &&
        fitField(stats[0].bytesLoaded, stats[1].bytesLoaded,
                 stats[2].bytesLoaded, &base.bytesLoaded,
                 &slope.bytesLoaded) &&
        fitField(stats[0].bytesStored, stats[1].bytesStored,
                 stats[2].bytesStored, &base.bytesStored,
                 &slope.bytesStored);

    cls.canonicalBounds = analyzeProgram(cls.canonical);
    const bool bracketed =
        !cls.canonicalBounds.certified ||
        (cls.canonicalBounds.lower <= stats[0].cycles &&
         stats[0].cycles <= cls.canonicalBounds.upper);

    if (affine && bracketed) {
        cls.base = base;
        cls.slope = slope;
        cls.certified = true;
        certifiedClasses_.fetch_add(1, std::memory_order_relaxed);
    } else {
        uncertifiedClasses_.fetch_add(1, std::memory_order_relaxed);
    }
    certifyMicros_.fetch_add(
        static_cast<uint64_t>(timer.seconds() * 1e6),
        std::memory_order_relaxed);
}

NodeExecStats
TieredCoster::tileStats(const MatMulShape &tile, const MatMulConfig &config)
{
    const int64_t iters = itersFor(tile, config);
    TileClass &cls = classFor(tile, config);
    std::lock_guard<std::mutex> lock(cls.mu);
    if (!cls.tried)
        certify(cls, tile, config);

    if (cls.certified && admitsDepth(cls, tile, config, iters)) {
        if (iters >= kAnchors[0]) {
            plansDerived_.fetch_add(1, std::memory_order_relaxed);
            return affineAt(cls.base, cls.slope, iters);
        }
        // Shallow reductions sit below the certified anchor range;
        // simulate them on the transplanted schedule (still one pack
        // for the whole class).
        plansSimulated_.fetch_add(1, std::memory_order_relaxed);
        const kernels::MatMulKernel kernel(tile, config);
        return fromRun(kernels::runPackedKernel(
            transplanted(cls, iters, kernel.program()), kernel.buffers(),
            {}, {}));
    }

    if (cls.certified)
        structuralFallbacks_.fetch_add(1, std::memory_order_relaxed);
    plansSimulated_.fetch_add(1, std::memory_order_relaxed);
    const kernels::MatMulKernel kernel(tile, config);
    return fromRun(kernels::runKernel(kernel.program(), kernel.buffers(),
                                      {}, {}, packOptions_));
}

std::shared_ptr<const dsp::PackedProgram>
TieredCoster::tileSchedule(const MatMulShape &tile,
                           const MatMulConfig &config)
{
    const int64_t iters = itersFor(tile, config);
    TileClass &cls = classFor(tile, config);
    std::lock_guard<std::mutex> lock(cls.mu);
    if (!cls.tried)
        certify(cls, tile, config);

    // A certified class stores a depth's pack only once that depth's
    // program passed the structural check below, and the program depends
    // only on the class key and the padded depth iters * quantum: the
    // stored pack is what the check and transplant would give again.
    if (cls.certified) {
        const auto stored = cls.packs.find(iters);
        if (stored != cls.packs.end())
            return stored->second;
    }

    const kernels::MatMulKernel kernel(tile, config);
    if (cls.certified && admitsDepth(cls, tile, config, iters))
        return transplanted(cls, iters, kernel.program());
    if (cls.certified)
        structuralFallbacks_.fetch_add(1, std::memory_order_relaxed);
    return vliw::PackCache::global().lookupOrPack(kernel.program(),
                                                  packOptions_);
}

bool
TieredCoster::admitsDepth(TileClass &cls, const MatMulShape &tile,
                          const MatMulConfig &config, int64_t iters) const
{
    const auto [it, inserted] = cls.admitted.try_emplace(iters, false);
    if (inserted)
        it->second = cls.admits(
            kernels::MatMulKernel(tile, config).program(), packOptions_);
    return it->second;
}

std::shared_ptr<const dsp::PackedProgram>
TieredCoster::transplanted(TileClass &cls, int64_t iters,
                           const dsp::Program &prog)
{
    std::shared_ptr<const dsp::PackedProgram> &packed = cls.packs[iters];
    if (!packed) {
        packed = transplant(*cls.anchorPack, prog);
        transplantedPacks_.fetch_add(1, std::memory_order_relaxed);
    }
    return packed;
}

uint64_t
TieredCoster::tileLowerBound(const MatMulShape &tile,
                             const MatMulConfig &config)
{
    const int64_t iters = itersFor(tile, config);
    TileClass &cls = classFor(tile, config);
    std::lock_guard<std::mutex> lock(cls.mu);
    auto it = cls.bounds.find(iters);
    if (it == cls.bounds.end()) {
        const Timer timer;
        const kernels::MatMulKernel kernel(tile, config);
        it = cls.bounds.emplace(iters, analyzeProgram(kernel.program()))
                 .first;
        analyticMicros_.fetch_add(
            static_cast<uint64_t>(timer.seconds() * 1e6),
            std::memory_order_relaxed);
    }
    return it->second.certified ? it->second.lower : 0;
}

void
TieredCoster::notePruned(uint64_t count)
{
    plansPruned_.fetch_add(count, std::memory_order_relaxed);
}

TieredCounters
TieredCoster::counters() const
{
    TieredCounters c;
    c.plansDerived = plansDerived_.load(std::memory_order_relaxed);
    c.plansSimulated = plansSimulated_.load(std::memory_order_relaxed);
    c.plansPruned = plansPruned_.load(std::memory_order_relaxed);
    c.anchorSims = anchorSims_.load(std::memory_order_relaxed);
    c.transplantedPacks =
        transplantedPacks_.load(std::memory_order_relaxed);
    c.certifiedClasses = certifiedClasses_.load(std::memory_order_relaxed);
    c.uncertifiedClasses =
        uncertifiedClasses_.load(std::memory_order_relaxed);
    c.structuralFallbacks =
        structuralFallbacks_.load(std::memory_order_relaxed);
    return c;
}

double
TieredCoster::certifySeconds() const
{
    return static_cast<double>(
               certifyMicros_.load(std::memory_order_relaxed)) *
           1e-6;
}

double
TieredCoster::analyticSeconds() const
{
    return static_cast<double>(
               analyticMicros_.load(std::memory_order_relaxed)) *
           1e-6;
}

std::vector<std::string>
TieredCoster::audit(size_t *classesChecked) const
{
    std::vector<std::string> errors;
    size_t checked = 0;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &entry : classes_) {
        TileClass &cls = *entry.second;
        std::lock_guard<std::mutex> classLock(cls.mu);
        if (!cls.certified)
            continue;
        ++checked;
        for (int a = 0; a < 3; ++a) {
            const NodeExecStats derived =
                affineAt(cls.base, cls.slope, kAnchors[a]);
            const NodeExecStats &simmed = cls.anchorStats[a];
            if (derived.cycles != simmed.cycles ||
                derived.instructions != simmed.instructions ||
                derived.packets != simmed.packets ||
                derived.bytesLoaded != simmed.bytesLoaded ||
                derived.bytesStored != simmed.bytesStored) {
                std::ostringstream msg;
                msg << "tiered class fit does not reproduce anchor "
                    << kAnchors[a] << " (derived " << derived.cycles
                    << " cycles, simulated " << simmed.cycles << ")";
                errors.push_back(msg.str());
            }
        }
        if (cls.canonicalBounds.certified &&
            (cls.canonicalBounds.lower > cls.anchorStats[0].cycles ||
             cls.anchorStats[0].cycles > cls.canonicalBounds.upper)) {
            std::ostringstream msg;
            msg << "analytic bounds [" << cls.canonicalBounds.lower
                << ", " << cls.canonicalBounds.upper
                << "] do not bracket anchor simulation "
                << cls.anchorStats[0].cycles;
            errors.push_back(msg.str());
        }
    }
    if (classesChecked != nullptr)
        *classesChecked = checked;
    return errors;
}

} // namespace gcd2::select
