/**
 * @file
 * Structured compilation diagnostics.
 *
 * A Diag records one per-pass (and optionally per-node) event that the
 * pipeline chose to report instead of throwing: audit findings, fallback
 * decisions, selector cross-checks. Diagnostics flow through a thread-safe
 * DiagLog owned by the CompilationSession and ship inside the
 * PipelineReport, so a served compile always tells the caller *how* it
 * was produced -- which degradation rung ran, which invariants were
 * checked, and what (if anything) looked wrong.
 *
 * Severity semantics:
 *  - Info: normal bookkeeping worth surfacing (audit passed, solver
 *    switched by a cross-check).
 *  - Warning: the compile succeeded but degraded (fallback rung served,
 *    a cross-check that could not run).
 *  - Error: an auditor found a violated invariant; the artifact may be
 *    wrong and callers should treat the compile as suspect.
 */
#ifndef GCD2_COMMON_DIAG_H
#define GCD2_COMMON_DIAG_H

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace gcd2::common {

enum class DiagSeverity : uint8_t
{
    Info,
    Warning,
    Error,
};

const char *diagSeverityName(DiagSeverity severity);

/**
 * Machine-readable classification of a diagnostic. Codes are stable
 * identifiers (golden tests and CI scripts match on them, not on message
 * text): `Sched*` codes come from the shared packed-schedule check table
 * (dsp/schedule_checks.h) and always mean a violated structural
 * invariant; `Lint*` codes come from the static dataflow analyzers
 * (analysis/lint.h). None marks diagnostics that predate the code
 * taxonomy (fallback decisions, audit summaries).
 */
enum class DiagCode : uint16_t
{
    None = 0,

    // Packed-schedule structural invariants (shared check table).
    SchedEmptyPacket,
    SchedOversizedPacket,
    SchedBadInstIndex,
    SchedSlotInfeasible,
    SchedPacketOrder,
    SchedHardDepInPacket,
    SchedInstCoverage,
    SchedLabelMapSize,
    SchedLabelPastEnd,
    SchedLabelBoundary,

    // Dataflow lint analyzers.
    LintUseBeforeDef,   ///< read with no prior write on any path (Error)
    LintMaybeUninit,    ///< read with no prior write on some path (Warning)
    LintDeadStore,      ///< register write never observed (Warning)
    LintDeadPacket,     ///< every write in the packet is dead (Warning)
    LintWriteConflict,  ///< two same-packet writes of one register
    LintSlotOvercommit, ///< packet oversubscribes mult/branch resources
    LintDelayClaim,     ///< packer delay claim contradicts dsp::deps
    LintNoaliasOverlap, ///< claimed-noalias pair provably overlaps
    LintNoaliasDupBase, ///< one register declared as two disjoint buffers
    LintRedundantLoad,  ///< load of a value provably already in a register
    LintOutOfBounds,    ///< access provably outside its declared buffer
};

/** Stable kebab-case name of a code ("sched-empty-packet", ...). */
const char *diagCodeName(DiagCode code);

/** One structured diagnostic event. */
struct Diag
{
    DiagSeverity severity = DiagSeverity::Info;
    /** Pipeline pass or subsystem that produced it ("selection", ...). */
    std::string pass;
    /** Graph node id / instruction index the event is about; -1 = whole
     *  artifact. */
    int64_t node = -1;
    std::string message;
    /** Machine-readable classification (None for uncoded events). */
    DiagCode code = DiagCode::None;

    /** "[error] selection (node 7) [lint-dead-store]: ..." rendering. */
    std::string toString() const;
};

/**
 * Thread-safe diagnostic sink. Appends may come from pool workers (deep
 * kernel audits run under parallelFor); reads take a snapshot. The log
 * deliberately never throws and never filters -- policy (abort on error,
 * ignore warnings) belongs to the caller inspecting the report.
 */
class DiagLog
{
  public:
    void add(Diag diag);
    void add(DiagSeverity severity, std::string pass, int64_t node,
             std::string message);

    /** Copy of everything recorded so far, in append order. */
    std::vector<Diag> snapshot() const;

    size_t count(DiagSeverity severity) const;
    size_t size() const;

  private:
    mutable std::mutex mutex_;
    std::vector<Diag> entries_;
};

} // namespace gcd2::common

#endif // GCD2_COMMON_DIAG_H
