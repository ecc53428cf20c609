/**
 * @file
 * Parallel sweep execution.
 *
 * Every job builds its own System (own page table, TLBs, RNG streams,
 * event queue), so simulated results are bit-for-bit identical
 * regardless of thread count — parallelism only changes host wall
 * time. Results land at their job's expansion index, keeping report
 * row order deterministic too.
 */

#ifndef GPUWALK_EXP_RUNNER_HH
#define GPUWALK_EXP_RUNNER_HH

#include <string>
#include <vector>

#include "exp/sweep.hh"

namespace gpuwalk::exp {

/**
 * The outcome of one sweep: per-run results in expansion order plus
 * aggregate execution facts.
 */
class SweepResult
{
  public:
    const std::vector<RunResult> &runs() const { return runs_; }

    /**
     * The run matching the given labels; an empty @p scheduler or
     * @p variant matches anything. panic() if nothing matches (a
     * label typo is a bench bug, not a runtime condition).
     */
    const RunResult &at(const std::string &workload,
                        const std::string &scheduler = "",
                        const std::string &variant = "") const;

    /** Overload keyed on the scheduler enum. */
    const RunResult &at(const std::string &workload,
                        core::SchedulerKind scheduler,
                        const std::string &variant = "") const;

    /** Shorthand for at(...).stats. */
    const system::RunStats &stats(const std::string &workload,
                                  core::SchedulerKind scheduler,
                                  const std::string &variant = "") const;

    /** Host seconds for the whole sweep (parallel wall time). */
    double wallSeconds() const { return wall_seconds_; }

    /** Worker threads actually used. */
    unsigned jobsUsed() const { return jobs_used_; }

  private:
    friend SweepResult runJobs(const std::vector<Job> &, unsigned);

    std::vector<RunResult> runs_;
    double wall_seconds_ = 0.0;
    unsigned jobs_used_ = 1;
};

/**
 * Executes @p jobs on a worker pool of @p workers threads (0 = one
 * per hardware thread; 1 = serially on the calling thread).
 *
 * Work is pulled from an atomic cursor; each result is stored at its
 * job index. The first exception cancels the pool — workers finish
 * their current job, take nothing new — and is rethrown on the
 * caller's thread once all workers joined. Per-job host wall time is
 * recorded on every completed result.
 */
SweepResult runJobs(const std::vector<Job> &jobs, unsigned workers = 0);

/** Expands @p spec and runs the jobs. */
SweepResult runSweep(const SweepSpec &spec, unsigned workers = 0);

} // namespace gpuwalk::exp

#endif // GPUWALK_EXP_RUNNER_HH
