/**
 * @file
 * End-of-run conservation auditing.
 *
 * Long sweeps are only as trustworthy as their bookkeeping: a leaked
 * request record or a never-drained walk buffer corrupts every derived
 * speedup without failing a single test. Components therefore register
 * named Invariant closures with a per-System Auditor, which evaluates
 * them at configurable tick intervals during a run and exhaustively at
 * teardown, after the event queue has drained. Checks are
 * observation-only: they read component state and never mutate it, so
 * an audit-enabled run simulates the exact same ticks as a plain one.
 *
 * A violation is recorded (and warned about immediately) rather than
 * fatal, so one broken identity does not mask the others: the full
 * list lands in RunStats and the report JSON, and callers decide
 * whether to fail.
 */

#ifndef GPUWALK_SIM_AUDIT_HH
#define GPUWALK_SIM_AUDIT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/ticks.hh"

namespace gpuwalk::sim {

/** Audit knobs (off by default; excluded from config fingerprints). */
struct AuditConfig
{
    /** Master switch: when false, no Auditor is built at all. */
    bool enabled = false;

    /**
     * Tick period of in-run checks; 0 means teardown-only. Periodic
     * checks use weaker identities (in-flight work is legal mid-run)
     * but catch leaks millions of events before the end of the run.
     */
    Tick interval = 0;
};

/** When a check ran, which decides how strict it may be. */
enum class AuditPhase : std::uint8_t
{
    Periodic, ///< mid-run: in-flight work is legal
    Final,    ///< teardown, event queue drained: everything conserved
};

/** Short name of @p phase ("periodic" / "final"). */
const char *toString(AuditPhase phase);

/** One recorded invariant violation. */
struct AuditViolation
{
    std::string invariant; ///< registered name, e.g. "iommu.buffer_drained"
    std::string message;   ///< what the check observed
    Tick tick = 0;         ///< simulated time of the check
    AuditPhase phase = AuditPhase::Final;
};

class Auditor;

/**
 * Handed to each invariant closure per evaluation. Checks read the
 * phase to pick the right strictness and report through fail() /
 * require(); everything else (naming, timestamps, warning) is
 * attached here so closures stay one-liners.
 */
class AuditContext
{
  public:
    /** Phase of this evaluation. */
    AuditPhase phase() const { return phase_; }

    /** True at teardown, when all in-flight state must be drained. */
    bool final() const { return phase_ == AuditPhase::Final; }

    /** Simulated time of this evaluation. */
    Tick now() const { return now_; }

    /** Records a violation of the current invariant. */
    template <typename... Args>
    void
    fail(Args &&...args)
    {
        record(detail::concat(std::forward<Args>(args)...));
    }

    /** fail(args...) unless @p cond holds. @return cond. */
    template <typename... Args>
    bool
    require(bool cond, Args &&...args)
    {
        if (!cond)
            fail(std::forward<Args>(args)...);
        return cond;
    }

  private:
    friend class Auditor;

    AuditContext(Auditor &auditor, AuditPhase phase, Tick now)
        : auditor_(auditor), phase_(phase), now_(now)
    {}

    void record(std::string message);

    Auditor &auditor_;
    AuditPhase phase_;
    Tick now_;
    const std::string *invariant_ = nullptr;
};

/**
 * The registry and evaluator of conservation invariants.
 *
 * One Auditor per System; components register closures at
 * construction time (registerInvariants hooks) and the System drives
 * check() from a periodic event and once after the run drains.
 */
class Auditor
{
  public:
    /** An invariant closure; called once per check() evaluation. */
    using Check = std::function<void(AuditContext &)>;

    /** Registers @p check under @p name (shown in violations). */
    void
    registerInvariant(std::string name, Check check)
    {
        invariants_.push_back(
            {std::move(name), std::move(check)});
    }

    /**
     * Evaluates every registered invariant for @p phase at simulated
     * time @p now. @return violations recorded by this evaluation.
     */
    std::size_t check(AuditPhase phase, Tick now);

    /** All violations recorded so far, in evaluation order. */
    const std::vector<AuditViolation> &violations() const
    {
        return violations_;
    }

    /** True while no invariant has ever failed. */
    bool clean() const { return violations_.empty(); }

    /** Registered invariants. */
    std::size_t invariantCount() const { return invariants_.size(); }

    /** Total invariant evaluations across all check() calls. */
    std::uint64_t checksRun() const { return checksRun_; }

    /** Violations discarded past the storage cap (still counted). */
    std::uint64_t violationsDropped() const { return dropped_; }

    /** Total violations recorded, including dropped ones. */
    std::uint64_t violationCount() const
    {
        return violations_.size() + dropped_;
    }

  private:
    friend class AuditContext;

    struct Invariant
    {
        std::string name;
        Check check;
    };

    /** A persistent violation re-fires every periodic check; cap the
     *  stored list so a long run cannot hoard unbounded messages. */
    static constexpr std::size_t maxStoredViolations = 256;

    void record(const std::string &name, std::string message,
                AuditPhase phase, Tick now);

    std::vector<Invariant> invariants_;
    std::vector<AuditViolation> violations_;
    std::uint64_t checksRun_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace gpuwalk::sim

#endif // GPUWALK_SIM_AUDIT_HH
