/**
 * @file
 * Tier 2 of the tiered plan coster: shared-structure affine costing of
 * matmul tile kernels with packet transplantation (DESIGN.md section 16).
 * Tier 1, the certified analytic lower bound (select/analytic.h), is
 * served through tileLowerBound and prefilters exhaustive unroll search.
 *
 * Cold compiles are dominated by costing candidate plans: every matmul
 * tile is generated, VLIW-packed, and simulated at its full reduction
 * depth. But tiles of one (scheme, unroll choice, tile geometry) *class*
 * differ only in reduction depth K, which the generated loop nests encode
 * purely in immediates, and packing reads immediates only through the
 * in-block alias bits of vliw::blockPackingKey (DESIGN.md section 11).
 * So class members whose keys match have the same packet structure:
 *
 *  - *packet transplantation*: pack one class member, reuse its packet
 *    index lists (and label->packet map) verbatim on every other member.
 *    This is not an approximation -- it is the same schedule the packer
 *    would produce, checked by transplantCompatible before every reuse
 *    and re-verified against direct packs in tests;
 *  - *affine derivation*: the timing simulator charges cycles as a pure
 *    function of packet structure, static alias relations, and trip
 *    counts, so each stat field is affine in the inner-loop trip count.
 *    Three anchor simulations (8/12/16 iterations) certify the fit with
 *    exact integer collinearity -- f(12)-f(8) == f(16)-f(12), divisible
 *    slope, non-negative base -- and every deeper member's stats are
 *    derived in O(1). Shallower members (< 8 iterations) and anything
 *    failing the structural check fall back to a real simulation.
 *
 * One pack + three short simulations per class replace one pack + one
 * full-depth simulation per *candidate*, which is where the >=2x
 * cold-compile win comes from; the deep audit (select/audit.h) re-costs
 * served selections through the exhaustive path to prove bit-equality.
 */
#ifndef GCD2_SELECT_TIERED_COST_H
#define GCD2_SELECT_TIERED_COST_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "kernels/matmul.h"
#include "select/analytic.h"
#include "select/exec_stats.h"
#include "vliw/packer.h"

namespace gcd2::select {

/** Monotone counters of the tiered coster (for PipelineReport). */
struct TieredCounters
{
    uint64_t plansDerived = 0;      ///< stats from a certified affine fit
    uint64_t plansSimulated = 0;    ///< stats from a real simulation
    uint64_t plansPruned = 0;       ///< unroll candidates prefiltered
    uint64_t anchorSims = 0;        ///< certification anchor simulations
    uint64_t transplantedPacks = 0; ///< schedules served by transplant
    uint64_t certifiedClasses = 0;
    uint64_t uncertifiedClasses = 0;
    uint64_t structuralFallbacks = 0; ///< certified class, program mismatch
};

/**
 * Shared-structure coster for matmul tile kernels. One instance per
 * CostModel; thread-safe (concurrent costing of different classes
 * proceeds in parallel, same-class requests serialize on the class).
 */
class TieredCoster
{
  public:
    explicit TieredCoster(const vliw::PackOptions &packOptions);
    ~TieredCoster();

    TieredCoster(const TieredCoster &) = delete;
    TieredCoster &operator=(const TieredCoster &) = delete;

    /**
     * Raw simulated-equivalent stats of the tile kernel for @p tile under
     * @p config (no drain adjustment -- the cost model layers that on
     * top, since it is piecewise in K rather than affine in iterations).
     * Exact: either a real simulation or a certified affine derivation.
     */
    NodeExecStats tileStats(const kernels::MatMulShape &tile,
                            const kernels::MatMulConfig &config);

    /**
     * The schedule to serve for the tile kernel: the transplanted packet
     * structure of the class anchor when certified (memoized, so every
     * node of the class shares one PackedProgram object), or a direct
     * PackCache pack otherwise. Bit-identical to packing the program
     * directly either way.
     */
    std::shared_ptr<const dsp::PackedProgram>
    tileSchedule(const kernels::MatMulShape &tile,
                 const kernels::MatMulConfig &config);

    /**
     * Certified analytic lower bound on the tile's raw simulated cycles
     * (tier 1; memoized per class and depth). Returns 0 when the program
     * cannot be certified -- callers must treat 0 as "no bound".
     */
    uint64_t tileLowerBound(const kernels::MatMulShape &tile,
                            const kernels::MatMulConfig &config);

    /** Record unroll candidates the caller (cost model) prefiltered by
     *  tileLowerBound. */
    void notePruned(uint64_t count);

    TieredCounters counters() const;

    /** Time spent certifying classes (packs + anchor sims), summed over
     *  every thread that certified one -- CPU time, not wall time. */
    double certifySeconds() const;
    /** Time spent in tier-1 analytic bound computations, summed over
     *  threads like certifySeconds(). */
    double analyticSeconds() const;

    /**
     * Cheap always-on self-audit: re-derives every certified class's
     * anchor stats from the stored affine fit and re-checks the analytic
     * bounds bracket the anchor simulation. Returns human-readable
     * violations (empty = pass) and the number of classes checked.
     */
    std::vector<std::string> audit(size_t *classesChecked = nullptr) const;

  private:
    struct TileClass;

    TileClass &classFor(const kernels::MatMulShape &tile,
                        const kernels::MatMulConfig &config);
    void certify(TileClass &cls, const kernels::MatMulShape &tile,
                 const kernels::MatMulConfig &config);
    /** The class's transplant onto @p prog, its member at @p iters
     *  (memoized in the class). */
    std::shared_ptr<const dsp::PackedProgram>
    transplanted(TileClass &cls, int64_t iters, const dsp::Program &prog);

    vliw::PackOptions packOptions_;

    mutable std::mutex mu_; ///< guards classes_ (map nodes are stable)
    std::map<std::vector<int64_t>, std::unique_ptr<TileClass>> classes_;

    mutable std::atomic<uint64_t> plansDerived_{0};
    mutable std::atomic<uint64_t> plansSimulated_{0};
    mutable std::atomic<uint64_t> plansPruned_{0};
    mutable std::atomic<uint64_t> anchorSims_{0};
    mutable std::atomic<uint64_t> transplantedPacks_{0};
    mutable std::atomic<uint64_t> certifiedClasses_{0};
    mutable std::atomic<uint64_t> uncertifiedClasses_{0};
    mutable std::atomic<uint64_t> structuralFallbacks_{0};
    mutable std::atomic<uint64_t> certifyMicros_{0};
    mutable std::atomic<uint64_t> analyticMicros_{0};
};

/**
 * Key of the tile class of (@p tile, @p config): the scheme, the unroll
 * choice and shift configuration, and the tile's m x n. Class members
 * differ only in the reduction depth tile.k.
 */
std::vector<int64_t> tileClassKey(const kernels::MatMulShape &tile,
                                  const kernels::MatMulConfig &config);

/**
 * Instruction count of the class's canonical program (the low-anchor
 * kernel certification packs and simulates), so certification cost
 * grows with it.
 */
size_t tileClassProgramSize(const kernels::MatMulShape &tile,
                            const kernels::MatMulConfig &config);

/**
 * Whether @p b may be served @p a's packets and label map: equal code
 * size, labels, noalias declarations and branch immediates, and an equal
 * vliw::blockPackingKey on every block of vliw::buildCfg. The keys hold
 * all that packing reads, so vliw::pack gives both programs the same
 * packets and labelPacket.
 */
bool transplantCompatible(const dsp::Program &a, const dsp::Program &b);

} // namespace gcd2::select

#endif // GCD2_SELECT_TIERED_COST_H
