/**
 * @file
 * One way to run a work unit, shared by every execution path: the
 * in-process pool (runPlan), the `sdv_sweep --worker` process and the
 * sweep server's collation all call these functions, so a served sweep
 * is byte-identical to a serial one because both run the same code,
 * not because two copies are kept in step.
 *
 *  - captureSnapshots: a workload's capture pass (its sample set, or
 *    its one-boundary checkpoint image) under the warm-up machine.
 *  - jobForks: a job's shape — whether its machine can fork from those
 *    snapshots or must run in full from reset. Simulator-free, so the
 *    daemon decides shapes without building programs.
 *  - runUnit: one full run, checkpoint restore-or-cold run, or sample
 *    fork.
 *  - JobCollator: each job's unit results, folded into its RunOutcome
 *    (the sample aggregation) when the job's last unit lands.
 */

#ifndef SDV_SWEEP_UNIT_HH
#define SDV_SWEEP_UNIT_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.hh"
#include "sweep/executor.hh"
#include "sweep/sampling.hh"

namespace sdv {
namespace sweep {

/** @return host seconds elapsed since @p t0. */
inline double
secondsSince(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** @p workload's program, pre-decoded so concurrent simulators share it
 *  read-only. */
Program loadProgram(const std::string &workload, unsigned scale,
                    Footprint footprint);

/** One workload's capture-pass result. Sampled: exactly what
 *  captureSamples() returned. One-boundary checkpoint mode: degenerate —
 *  samples[0].bytes holds the single warm image (empty when the warm-up
 *  found no boundary, i.e. captured == false). */
struct SnapshotSet
{
    std::uint64_t programHash = 0; ///< identity of the captured program
    bool sampled = false;          ///< sample set vs one-boundary image
    bool captured = false;         ///< false: no usable boundary; the
                                   ///< workload's jobs run in full
    SampleSet set;
};

/** A plan's workloads in first-use (plan) order, with their jobs. */
struct PlanWorkloads
{
    std::vector<std::string> names;              ///< first-use order
    std::vector<std::size_t> ofJob;              ///< job -> ordinal
    std::vector<std::vector<std::size_t>> jobs;  ///< ordinal -> jobs

    explicit PlanWorkloads(const SweepPlan &plan);
};

/**
 * Capture pass of @p workload (program @p prog) under its deterministic
 * warm-up machine warmConfig(@p plan, @p opt, @p workload): the sample
 * set when @p opt samples, else the one-boundary checkpoint image. A
 * fallback (no usable boundary) leaves captured false and its message
 * in @p note, so parallel callers can print notes in plan order.
 */
SnapshotSet captureSnapshots(const SweepPlan &plan, const ExecOptions &opt,
                             const std::string &workload,
                             const Program &prog, std::string *note);

/**
 * The job-shape decision: @return true when a job on machine @p cfg
 * forks from @p s — s holds captured snapshots, and its deciding image
 * (the first warm sample, or the one-boundary image) is intact, taken
 * from s's program and restorable into cfg's geometry
 * (Checkpoint::validateImage plus a program-hash compare).
 */
bool jobForks(const SnapshotSet &s, const CoreConfig &cfg);

/** Add @p s to @p m's capture counters when it holds snapshots (the
 *  caller counts only captures it ran, not reuse). */
void countCapture(ExecMetrics &m, const SnapshotSet &s);

/** One unit of simulation work. */
struct UnitSpec
{
    const SweepJob &job;
    const Program &prog;
    const ExecOptions &opt;
    /** Snapshots to fork from (jobForks said yes); null runs the job
     *  from reset. */
    const SnapshotSet *source = nullptr;
    int sample = -1; ///< sample fork index; -1 runs the whole job
};

/** What one unit produced. */
struct UnitOutcome
{
    SimResult res{};              ///< zero when the unit contributes
                                  ///< nothing (failed restore, abort)
    std::uint64_t commitHash = 0;
    bool fromCheckpoint = false;  ///< a full run restored its image
    bool timedOut = false;        ///< the abort flag stopped the run
    std::uint64_t restoredBytes = 0; ///< snapshot bytes restored
    double wallSeconds = 0.0;     ///< host timing only

    /** Observers of an exact full run (--trace-events, --telemetry);
     *  in-process only, never on the wire. */
    std::shared_ptr<obs::TraceRecorder> trace;
    std::string telemetryJson;
};

/**
 * Run one unit. Sample forks restore their snapshot (an empty image is
 * the cold-start region, forked from reset) and measure its region; a
 * failed restore or an aborted measurement contributes a zero result,
 * which drops out of the weighted aggregation deterministically. A full
 * run restores the one-boundary image when it has a source (falling
 * back to a cold run if the restore fails). Exact mode (no sampling)
 * applies the fault plan, --verify, the quiesce interval (except on
 * checkpointed sweeps) and the observers in @p u.opt; a sampled sweep's
 * full-run fallback applies only the quiesce interval.
 *
 * @param abort polled by the simulator; when it trips, the run stops
 *        with timedOut set (null: never aborted)
 */
UnitOutcome runUnit(const UnitSpec &u, std::atomic<bool> *abort = nullptr);

/**
 * Per-job collation shared by runPlan and the sweep server: holds each
 * job's unit slots and folds them into the job's RunOutcome when its
 * last unit lands — a sampled job through aggregateSamples and
 * foldSampleHashes in capture order, a full run by copy — so the fold
 * never depends on which thread or process finished what. Not
 * synchronized: callers serialize record(); shape() may run
 * concurrently for different workloads' jobs.
 */
class JobCollator
{
  public:
    /** @p plan and @p opt must outlive the collator. */
    JobCollator(const SweepPlan &plan, const ExecOptions &opt);

    /** Shape the jobs @p jobs of one workload against its snapshots
     *  @p s (null: none taken). A job whose configuration cannot fork
     *  from usable snapshots adds a note to @p notes, once per
     *  configuration. */
    void shape(const std::vector<std::size_t> &jobs, const SnapshotSet *s,
               std::vector<std::string> &notes);

    /** @return job @p i's unit count: its samples when it forks from a
     *  sample set, else 1. */
    unsigned units(std::size_t i) const
    {
        return unsigned(jobs_[i].slots.size());
    }
    /** @return the sample index of job @p i's unit @p k (-1: whole job). */
    int sampleOf(std::size_t i, unsigned k) const
    {
        const SnapshotSet *s = jobs_[i].source;
        return s && s->sampled ? int(k) : -1;
    }
    /** @return the snapshots job @p i forks from, or null. */
    const SnapshotSet *source(std::size_t i) const { return jobs_[i].source; }

    /** Store unit @p k of job @p i, which waited @p queueWait seconds
     *  to start. The job's last unit folds its outcome; recording a
     *  unit of a completed job again (a watchdog retry) refolds it. */
    void record(std::size_t i, unsigned k, UnitOutcome &&r,
                double queueWait);

    bool done(std::size_t i) const { return jobs_[i].left == 0; }
    const UnitOutcome &unit(std::size_t i, unsigned k) const
    {
        return jobs_[i].slots[k];
    }
    RunOutcome &outcome(std::size_t i) { return outcomes_[i]; }
    std::vector<RunOutcome> take() { return std::move(outcomes_); }

    /** Add the units' host metrics to @p m: busy time, restores and
     *  the per-job timings. */
    void addMetrics(ExecMetrics &m) const;
    /** @return the host time spent folding so far. */
    double foldSeconds() const { return foldSeconds_; }

  private:
    struct Job
    {
        const SnapshotSet *source = nullptr;
        std::vector<UnitOutcome> slots = std::vector<UnitOutcome>(1);
        unsigned left = 1; ///< units not yet recorded
        double queueWait = -1.0; ///< min over the units; -1: none ran
    };

    void fold(std::size_t i);

    const SweepPlan &plan_;
    const ExecOptions &opt_;
    std::vector<Job> jobs_;
    std::vector<RunOutcome> outcomes_;
    double foldSeconds_ = 0.0;
};

} // namespace sweep
} // namespace sdv

#endif // SDV_SWEEP_UNIT_HH
