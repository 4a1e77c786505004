/**
 * @file
 * Top-level simulation driver: runs a program on a configured core to
 * completion, verifies the committed stream against an independent
 * functional execution, and gathers every statistic the benchmark
 * harness needs.
 */

#ifndef SDV_SIM_SIMULATOR_HH
#define SDV_SIM_SIMULATOR_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/stat_list.hh"
#include "core/core.hh"
#include "sim/config.hh"

namespace sdv {

namespace obs {
class IntervalTelemetry;
} // namespace obs

/** SimResult's run-level fields (list form of common/stat_list.hh):
 *  statsDiff compares them; the sample fold derives them. */
#define SDV_SIM_RESULT_RUN_FIELDS(F, A)                                     \
    F(bool, finished)       /* HALT committed within the budget */          \
    F(bool, verified)       /* committed stream matches functional */       \
    /* True when an external abort flag (setAbortFlag) stopped the run      \
     * — the sweep executor's job watchdog fired. Implies !finished. */     \
    F(bool, timedOut)                                                       \
    F(Cycle, cycles)                                                        \
    F(std::uint64_t, insts)                                                 \
    F(double, ipc)                                                          \
                                                                            \
    /* True when the result is an interval-sampled estimate: every          \
     * counter is the weighted extrapolation of samplesMeasured             \
     * measured regions (see sweep/sampling.hh), not an exact count. */     \
    F(bool, sampled)                                                        \
    F(unsigned, samplesMeasured)

/** SimResult's counter blocks, B(type, member); each block declares
 *  its own fields through its list (CoreStats: SDV_CORE_STATS, ...). */
#define SDV_SIM_RESULT_BLOCKS(B)                                            \
    B(CoreStats, core)                                                      \
    B(EngineStats, engine)                                                  \
    B(DatapathStats, datapath)                                              \
    B(PortStats, ports)                                                     \
    B(WideBusBreakdown, wideBus) /* Figure 13 */                            \
    B(VecRegFateStats, fates)    /* Figure 15 */                            \
    B(CacheStats, l1d)                                                      \
    B(CacheStats, l1i)                                                      \
    B(CacheStats, l2)

/** Everything measured by one simulation. */
struct SimResult
{
    SDV_SIM_RESULT_RUN_FIELDS(SDV_STAT_MEMBER, SDV_STAT_MEMBER_ARRAY)
    SDV_SIM_RESULT_BLOCKS(SDV_STAT_MEMBER)

    /** Total L1D port requests (the paper's "memory requests"). */
    std::uint64_t
    memoryRequests() const
    {
        return ports.readAccesses + ports.writeAccesses;
    }

    /** Fraction of committed instructions that were validations. */
    double
    validationFraction() const
    {
        return core.committedInsts == 0
                   ? 0.0
                   : double(core.committedValidations) /
                         double(core.committedInsts);
    }

    /** Figure 10 fraction: reused instructions among post-mispredict
     *  window instructions. */
    double
    controlIndependenceFraction() const
    {
        return core.postMispredictWindowInsts == 0
                   ? 0.0
                   : double(core.postMispredictReused) /
                         double(core.postMispredictWindowInsts);
    }
};

/** forEachStat over every counter block of @p r (results side by
 *  side), with StatName::block naming the SimResult member. */
template <typename Fn, typename... R>
    requires(std::is_same_v<std::remove_const_t<R>, SimResult> && ...)
void
forEachCounter(Fn &&fn, R &...r)
{
#define SDV_VISIT_BLOCK(type, name)                                         \
    forEachStat(                                                            \
        [&](StatName n, auto &...w) {                                       \
            n.block = #name;                                                \
            fn(n, w...);                                                    \
        },                                                                  \
        r.name...);
    SDV_SIM_RESULT_BLOCKS(SDV_VISIT_BLOCK)
#undef SDV_VISIT_BLOCK
}

/** Visit every field of @p s: the run-level fields (whose words are
 *  bool, Cycle, double or unsigned), then forEachCounter. */
template <typename Fn, typename... R>
    requires(std::is_same_v<std::remove_const_t<R>, SimResult> && ...)
void
forEachResultField(Fn &&fn, R &...s)
{
    SDV_SIM_RESULT_RUN_FIELDS(SDV_STAT_VISIT, SDV_STAT_VISIT_ARRAY)
    forEachCounter(fn, s...);
}

/**
 * The identity oracle: @return the qualified names ("cycles",
 * "fates.lifetimeHist[3]") of every listed field where @p a and @p b
 * differ, in declaration order, except the names in @p except (each
 * must name a field).
 */
std::vector<std::string>
statsDiff(const SimResult &a, const SimResult &b,
          const std::vector<std::string> &except = {});

/** One-program, one-configuration simulation. */
class Simulator
{
  public:
    /**
     * @param cfg machine configuration
     * @param prog program (must outlive the simulator)
     */
    Simulator(const CoreConfig &cfg, const Program &prog);

    /**
     * Run to HALT (or @p max_cycles).
     * @param verify re-run the program functionally and compare the
     *        committed stream / final state
     * @param quiesce_interval when non-zero, drain the pipeline and
     *        context-switch the transient vector state every this many
     *        fetched instructions (clock and statistics keep
     *        accumulating): the CLI-reproducible form of the
     *        measurement-boundary quiesce, for steady-state
     *        experiments (--quiesce-interval)
     */
    SimResult run(std::uint64_t max_cycles = 50'000'000,
                  bool verify = true,
                  std::uint64_t quiesce_interval = 0);

    /**
     * Warm up: simulate the first @p insts dynamic instructions to
     * completion, drain the pipeline, quiesce transient vector state
     * (context-switch semantics — caches, predictors and the Table of
     * Loads stay warm) and rebase the clock and statistics to zero.
     * The subsequent run() measures only the post-warm-up region; the
     * core is then at the checkpointable measurement boundary that
     * Checkpoint::capture serializes.
     *
     * @param insts dynamic instructions to warm over (> 0)
     * @param max_cycles safety bound on the warm-up itself
     * @retval false when no measurement boundary was reached — the
     *         program ran to HALT inside the warm-up, or the cycle
     *         budget elapsed with the pipeline still in flight. The
     *         simulator is then NOT rebased and must be discarded.
     */
    bool warmup(std::uint64_t insts,
                std::uint64_t max_cycles = 50'000'000);

    /**
     * Generalized warm-up: advance to the measurement boundary at
     * *absolute* committed-instruction count @p target_insts (counted
     * from program start, warm-up regions included), drain, quiesce
     * and rebase exactly like warmup(). Callable repeatedly with
     * increasing targets — the interval-sampling engine walks a run
     * boundary to boundary, capturing a checkpoint at each.
     *
     * @retval false when the boundary is unreachable (the program ran
     *         to HALT first, or the cycle budget elapsed in flight);
     *         the simulator must then be discarded
     */
    bool advanceTo(std::uint64_t target_insts,
                   std::uint64_t max_cycles = 50'000'000);

    /**
     * Measure a bounded region: run until @p insts more instructions
     * have been fetched and fully drained through the pipeline (or
     * HALT commits first), then finalize and return the statistics of
     * the region since the last measurement boundary. Used for the
     * per-sample measurement of an interval-sampled run; run() remains
     * the to-completion path.
     */
    SimResult runInsts(std::uint64_t insts,
                       std::uint64_t max_cycles = 50'000'000);

    /**
     * Attach an external abort flag (nullptr detaches). The run loops
     * poll it every few hundred ticks; once observed true, the current
     * run()/runInsts()/advanceTo() stops at the next tick boundary
     * with SimResult::timedOut set (the simulator state is then
     * mid-flight and must be discarded). The flag is how the sweep
     * executor's wall-clock job watchdog (--job-timeout) cancels a
     * hung simulation from outside the worker thread.
     */
    void
    setAbortFlag(const std::atomic<bool> *flag)
    {
        abort_ = flag;
        aborted_ = false;
        abortPoll_ = 0;
    }

    /** Attach a flight recorder (forwards to the core and every
     *  instrumented component; null detaches). Pure observation. */
    void setRecorder(obs::TraceRecorder *rec) { core_.setRecorder(rec); }

    /** Attach an interval-telemetry collector (null detaches). run()
     *  begins it at loop entry, samples it whenever the clock crosses
     *  an interval boundary, and flushes the final partial interval
     *  before finalize() — so the sample deltas sum exactly to the
     *  end-of-run aggregates. Only run() samples; the bounded-region
     *  entry points (runInsts/advanceTo) ignore it. */
    void setTelemetry(obs::IntervalTelemetry *telemetry)
    {
        telemetry_ = telemetry;
    }

    /** @return the core (inspection/tests). */
    Core &core() { return core_; }

    /** @return the program under simulation. */
    const Program &program() const { return prog_; }

  private:
    /** Gather every statistic of the (finalized) core into @p res. */
    void collect(SimResult &res);

    /** Poll the external abort flag (sticky; sampled every 256th
     *  call so the hot run loops pay almost nothing). */
    bool
    checkAbort()
    {
        if (!abort_ || aborted_)
            return aborted_;
        if ((++abortPoll_ & 0xffu) != 0)
            return false;
        aborted_ = abort_->load(std::memory_order_relaxed);
        return aborted_;
    }

    const Program &prog_;
    Core core_;
    obs::IntervalTelemetry *telemetry_ = nullptr;
    const std::atomic<bool> *abort_ = nullptr;
    bool aborted_ = false;
    std::uint32_t abortPoll_ = 0;
};

/** Convenience wrapper: build, run, return the result. */
SimResult simulate(const CoreConfig &cfg, const Program &prog,
                   std::uint64_t max_cycles = 50'000'000,
                   bool verify = true);

} // namespace sdv

#endif // SDV_SIM_SIMULATOR_HH
