#include "common/diag.h"

#include <sstream>

namespace gcd2::common {

const char *
diagSeverityName(DiagSeverity severity)
{
    switch (severity) {
      case DiagSeverity::Info:
        return "info";
      case DiagSeverity::Warning:
        return "warning";
      case DiagSeverity::Error:
        return "error";
    }
    return "?";
}

const char *
diagCodeName(DiagCode code)
{
    switch (code) {
      case DiagCode::None:
        return "none";
      case DiagCode::SchedEmptyPacket:
        return "sched-empty-packet";
      case DiagCode::SchedOversizedPacket:
        return "sched-oversized-packet";
      case DiagCode::SchedBadInstIndex:
        return "sched-bad-inst-index";
      case DiagCode::SchedSlotInfeasible:
        return "sched-slot-infeasible";
      case DiagCode::SchedPacketOrder:
        return "sched-packet-order";
      case DiagCode::SchedHardDepInPacket:
        return "sched-hard-dep-in-packet";
      case DiagCode::SchedInstCoverage:
        return "sched-inst-coverage";
      case DiagCode::SchedLabelMapSize:
        return "sched-label-map-size";
      case DiagCode::SchedLabelPastEnd:
        return "sched-label-past-end";
      case DiagCode::SchedLabelBoundary:
        return "sched-label-boundary";
      case DiagCode::SchedDelayClaim:
        return "sched-delay-claim";
      case DiagCode::LintUseBeforeDef:
        return "lint-use-before-def";
      case DiagCode::LintMaybeUninit:
        return "lint-maybe-uninit";
      case DiagCode::LintDeadStore:
        return "lint-dead-store";
      case DiagCode::LintDeadPacket:
        return "lint-dead-packet";
      case DiagCode::LintNoaliasOverlap:
        return "lint-noalias-overlap";
      case DiagCode::LintNoaliasDupBase:
        return "lint-noalias-dup-base";
      case DiagCode::LintRedundantLoad:
        return "lint-redundant-load";
      case DiagCode::LintOutOfBounds:
        return "lint-out-of-bounds";
    }
    return "?";
}

std::string
Diag::toString() const
{
    std::ostringstream out;
    out << "[" << diagSeverityName(severity) << "] " << pass;
    if (node >= 0)
        out << " (node " << node << ")";
    if (code != DiagCode::None)
        out << " [" << diagCodeName(code) << "]";
    out << ": " << message;
    return out.str();
}

void
DiagLog::add(Diag diag)
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.push_back(std::move(diag));
}

void
DiagLog::add(DiagSeverity severity, std::string pass, int64_t node,
             std::string message)
{
    add(Diag{severity, std::move(pass), node, std::move(message)});
}

std::vector<Diag>
DiagLog::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_;
}

size_t
DiagLog::count(DiagSeverity severity) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t n = 0;
    for (const Diag &diag : entries_)
        if (diag.severity == severity)
            ++n;
    return n;
}

size_t
DiagLog::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

} // namespace gcd2::common
