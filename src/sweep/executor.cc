#include "sweep/executor.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "common/histogram.hh"
#include "common/log.hh"
#include "common/random.hh"
#include "obs/telemetry.hh"
#include "sweep/checkpoint.hh"
#include "workloads/workload.hh"

namespace sdv {
namespace sweep {

void
stampOutcome(RunOutcome &out, const SweepJob &job)
{
    out.figure = job.figure;
    out.workload = job.workload;
    out.isFp = job.isFp;
    out.group = job.group;
    out.column = job.column;
    out.configKey = job.configKey;
    out.cfg = job.cfg;
    out.seed = job.seed;
}

namespace {

double
secondsSince(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Wall-clock job watchdog (--job-timeout): one timer slot per pool
 * unit. A worker arms its slot (begin) before running a simulation and
 * disarms it (end) after; the scan thread wakes every 50 ms and trips
 * the abort flag of any armed slot past the timeout. The Simulator
 * polls that flag and stops with SimResult::timedOut set — the worker
 * thread itself is never killed, so no state is torn down mid-write.
 */
class JobWatchdog
{
  public:
    JobWatchdog(std::size_t units, std::uint64_t timeout_sec,
                std::function<std::string(std::size_t)> describe)
        : timeoutMs_(timeout_sec * 1000),
          describe_(std::move(describe)), entries_(units)
    {
        if (timeoutMs_ != 0)
            thread_ = std::thread([this] { scan(); });
    }

    ~JobWatchdog()
    {
        if (thread_.joinable()) {
            stop_.store(true, std::memory_order_relaxed);
            thread_.join();
        }
    }

    bool enabled() const { return timeoutMs_ != 0; }

    /** Arm unit @p u's timer and attach its abort flag to @p sim. */
    void
    begin(std::size_t u, Simulator &sim)
    {
        if (!enabled())
            return;
        Entry &e = entries_[u];
        e.abort.store(false, std::memory_order_relaxed);
        sim.setAbortFlag(&e.abort);
        e.startMs.store(nowMs(), std::memory_order_release);
    }

    /** Disarm unit @p u's timer (the attempt is over). */
    void
    end(std::size_t u)
    {
        if (enabled())
            entries_[u].startMs.store(0, std::memory_order_release);
    }

  private:
    struct Entry
    {
        std::atomic<std::uint64_t> startMs{0}; ///< 0 = not running
        std::atomic<bool> abort{false};
    };

    static std::uint64_t
    nowMs()
    {
        return std::uint64_t(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }

    void
    scan()
    {
        while (!stop_.load(std::memory_order_relaxed)) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
            const std::uint64_t now = nowMs();
            for (std::size_t u = 0; u < entries_.size(); ++u) {
                Entry &e = entries_[u];
                const std::uint64_t t0 =
                    e.startMs.load(std::memory_order_acquire);
                if (t0 == 0 || now < t0 || now - t0 < timeoutMs_)
                    continue;
                if (!e.abort.exchange(true,
                                      std::memory_order_relaxed))
                    warn("job watchdog: aborting ", describe_(u),
                         " after ", (now - t0) / 1000, "s");
            }
        }
    }

    const std::uint64_t timeoutMs_;
    const std::function<std::string(std::size_t)> describe_;
    std::vector<Entry> entries_;
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

/** @p workload's program under @p plan, pre-decoded so worker
 *  threads share it read-only. */
Program
loadProgram(const SweepPlan &plan, const std::string &workload)
{
    Program prog = buildWorkload(workload, plan.scale, plan.footprint);
    prog.predecodeAll();
    return prog;
}

/** A plan's workloads in first-use (plan) order, with their jobs. */
struct PlanWorkloads
{
    std::vector<std::string> names;              ///< first-use order
    std::vector<std::size_t> ofJob;              ///< job -> ordinal
    std::vector<std::vector<std::size_t>> jobs;  ///< ordinal -> jobs

    explicit PlanWorkloads(const SweepPlan &plan) : ofJob(plan.jobs.size())
    {
        std::map<std::string, std::size_t> ordinal;
        for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
            const auto [it, fresh] =
                ordinal.emplace(plan.jobs[i].workload, names.size());
            if (fresh) {
                names.push_back(plan.jobs[i].workload);
                jobs.emplace_back();
            }
            ofJob[i] = it->second;
            jobs[it->second].push_back(i);
        }
    }
};

/** A warning raised by a capture unit. Units buffer them per workload
 *  and printNotes() emits them in plan order after the pool joins, so
 *  stderr does not depend on scheduling. */
struct Note
{
    std::string text;
    bool once = false; ///< at most once per process (warn_once)
};

void
printNotes(const std::vector<std::vector<Note>> &notes)
{
    for (const std::vector<Note> &ws : notes)
        for (const Note &n : ws) {
            if (n.once)
                warn_once(n.text);
            else
                warn(n.text);
        }
}

/**
 * One-boundary checkpoint capture unit: capture (or reuse from disk)
 * the warmed checkpoint of @p workload. The warm-up configuration is
 * the workload's first engine-enabled job (falling back to its first
 * job) — a deterministic choice, so snapshots never depend on
 * scheduling. A workload whose program runs to HALT inside the
 * warm-up gets an empty image: its jobs fall back to cold full runs.
 *
 * Cached snapshot files are keyed by (workload, scale, warm-up
 * length) and validated against the current program and geometry
 * before being trusted; a stale or foreign file is recaptured and
 * overwritten, never silently reused. @p captured is set when the
 * image was taken now rather than reused.
 */
std::vector<std::uint8_t>
captureCheckpoint(const SweepPlan &plan, const ExecOptions &opt,
                  const std::string &workload, const Program &prog,
                  bool &captured, std::vector<Note> &notes)
{
    const CoreConfig cfg = warmConfig(plan, opt, workload);

    // The cache key includes every option that shapes the warm-up
    // run itself: a snapshot captured under a different chaining
    // mode holds differently-warmed caches and TL state.
    const std::string path =
        opt.checkpointDir.empty()
            ? std::string()
            : opt.checkpointDir + "/" + workload + ".s" +
                  std::to_string(plan.scale) + ".w" +
                  std::to_string(opt.warmupInsts) +
                  (opt.eagerChain ? ".eager" : "") + ".ckpt";

    std::vector<std::uint8_t> bytes;
    if (!path.empty()) {
        const auto st = Checkpoint::load(path, bytes);
        if (st == Checkpoint::LoadStatus::Ok) {
            Simulator probe(cfg, prog);
            if (Checkpoint::validate(probe, bytes))
                return bytes;
            notes.push_back(
                {"cached checkpoint " + path + " is stale; recapturing"});
        } else if (st == Checkpoint::LoadStatus::Corrupt) {
            // A missing file is the normal cold-cache path; a
            // present-but-damaged one means something poisoned the
            // cache and deserves visibility.
            notes.push_back({"cached checkpoint " + path +
                                 " is corrupt (torn or truncated "
                                 "write?); recapturing",
                             true});
        }
        bytes.clear();
    }

    Simulator sim(cfg, prog);
    if (!sim.warmup(opt.warmupInsts, opt.maxCycles)) {
        notes.push_back({"workload '" + workload +
                         "' reached no warm-up boundary (program "
                         "finished or budget elapsed); running its "
                         "jobs without a checkpoint"});
        return {};
    }
    bytes = Checkpoint::capture(sim);
    captured = true;
    if (!path.empty() && !Checkpoint::save(path, bytes))
        notes.push_back({"could not write checkpoint " + path});
    return bytes;
}

/** One pool unit: a workload's capture, or a run of one job (the
 *  whole job, or one sample fork of it). */
struct Unit
{
    bool capture = false;
    std::size_t index = 0; ///< capture: workload ordinal; run: job
    int sample = -1;       ///< run: -1 full run, else the sample
};

/**
 * The executor's one scheduler: pool threads drain a ready queue. The
 * queue starts with one capture unit per workload, in plan order, so
 * the long captures start first. A capture unit builds its workload's
 * program, captures the workload's snapshots when the mode uses them,
 * and returns the workload's run units, which its thread appends to
 * the back of the queue. A thread that finds the queue empty waits
 * while a capture is still running (it may release more work) and
 * exits once none is. Units write only their own result slots, so
 * results do not depend on which thread ran what.
 *
 * @param max_units upper bound on all units, captures included; the
 *        pool gets min(jobs, max_units) threads (1 runs inline).
 * @return the number of pool threads used.
 */
unsigned
drainUnits(unsigned jobs, std::size_t workloads, std::size_t max_units,
           const std::function<std::vector<Unit>(std::size_t)> &capture,
           const std::function<void(const Unit &)> &run)
{
    std::deque<Unit> queue;
    for (std::size_t w = 0; w < workloads; ++w)
        queue.push_back({true, w, -1});
    std::size_t capturing = workloads; // capture units not yet finished
    std::mutex m;
    std::condition_variable cv;

    auto worker = [&]() {
        std::unique_lock<std::mutex> lk(m);
        for (;;) {
            cv.wait(lk, [&] { return !queue.empty() || capturing == 0; });
            if (queue.empty())
                return;
            const Unit u = queue.front();
            queue.pop_front();
            lk.unlock();
            if (!u.capture) {
                run(u);
                lk.lock();
                continue;
            }
            const std::vector<Unit> more = capture(u.index);
            lk.lock();
            queue.insert(queue.end(), more.begin(), more.end());
            --capturing;
            cv.notify_all();
        }
    };
    const unsigned nthreads =
        unsigned(std::min<std::size_t>(std::max(1u, jobs), max_units));
    if (nthreads <= 1) {
        worker();
        return nthreads;
    }
    std::vector<std::thread> pool;
    pool.reserve(nthreads);
    for (unsigned t = 0; t < nthreads; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
    return nthreads;
}

/**
 * Interval-sampled plan execution on one ready queue: a capture unit
 * per workload (under its deterministic warm-up configuration) heads
 * the queue. When it finishes, its thread validates the snapshots
 * against each of the workload's distinct configurations and queues
 * the workload's run units — one per (job, sample), each restoring one
 * sample snapshot and measuring its region — so other workloads' forks
 * run while the longest captures are still going. Jobs whose
 * configuration cannot restore the snapshots (geometry mismatch), and
 * every job of a workload whose capture fell back, run as exact full
 * runs, visible via samples == 0. Aggregation is a plan-ordered fold
 * after the pool joins.
 */
std::vector<RunOutcome>
runPlanSampled(const SweepPlan &plan, const ExecOptions &opt,
               ExecMetrics *metrics)
{
    const PlanWorkloads wl(plan);
    const std::size_t nw = wl.names.size();
    const std::size_t nj = plan.jobs.size();
    SamplePlan sp = opt.sample;
    sp.warmupInsts = opt.warmupInsts;

    // Per workload, written by its capture unit before it queues the
    // workload's run units (the queue's lock publishes them to those
    // units) and read again after the join.
    std::vector<Program> programs(nw);
    std::vector<SampleSet> sets(nw);
    std::vector<std::vector<Note>> notes(nw);
    std::vector<double> captureWall(nw, 0.0);

    // Per job; a capture unit sizes its sampled jobs' per-sample slots
    // (empty: the job is one full run).
    std::vector<RunOutcome> outcomes(nj);
    std::vector<std::vector<SimResult>> sampleResults(nj);
    std::vector<std::vector<std::uint64_t>> sampleHashes(nj);
    for (std::size_t i = 0; i < nj; ++i)
        stampOutcome(outcomes[i], plan.jobs[i]);

    // Run units own fixed result slots: a job is sampled (slots 0..S
    // for its cold region and S warm samples) or one full run (slot
    // S+1), so every slot exists before any capture has finished. The
    // per-job totals fold in after the pool joins (a shared += would
    // be a data race).
    const std::size_t stride = std::size_t(opt.sample.samples) + 2;
    const std::size_t nslots = nj * stride;
    auto slotOf = [stride](const Unit &u) {
        return u.index * stride +
               (u.sample < 0 ? stride - 1 : std::size_t(u.sample));
    };
    auto unitAt = [stride](std::size_t slot) {
        const std::size_t k = slot % stride;
        return Unit{false, slot / stride, k == stride - 1 ? -1 : int(k)};
    };
    std::vector<double> unitWall(nslots, 0.0);
    std::vector<double> unitQueueWait(nslots, -1.0); ///< -1: no unit
    std::vector<char> unitTimedOut(nslots, 0);
    std::atomic<std::uint64_t> restoreCount{0}, restoreBytes{0};
    const auto poolStart = std::chrono::steady_clock::now();

    JobWatchdog wd(nslots, opt.jobTimeout,
                   [&plan, unitAt](std::size_t slot) {
                       const Unit u = unitAt(slot);
                       const SweepJob &j = plan.jobs[u.index];
                       std::string d = j.workload + "/" + j.configKey +
                                       " (seed " +
                                       std::to_string(j.seed) + ")";
                       if (u.sample >= 0)
                           d += " sample " + std::to_string(u.sample);
                       return d;
                   });

    auto captureUnit = [&](std::size_t w) {
        const auto t0 = std::chrono::steady_clock::now();
        const Program &prog = programs[w] = loadProgram(plan, wl.names[w]);
        std::string note;
        SampleSet &set = sets[w];
        set = captureSamples(warmConfig(plan, opt, wl.names[w]), prog,
                             sp, opt.maxCycles, &note);
        if (!note.empty())
            notes[w].push_back({note});

        // Each job's mode: sampled when the snapshots validate against
        // its configuration, exact full run otherwise. Validation
        // needs a Simulator (it binds program identity and geometry),
        // so decide once per distinct configuration — a figure grid
        // shares each configuration across jobs.
        std::map<std::string, bool> configOk;
        std::vector<Unit> units;
        for (std::size_t i : wl.jobs[w]) {
            const SweepJob &job = plan.jobs[i];
            bool sampled = false;
            if (set.usable()) {
                auto it = configOk.find(job.configKey);
                if (it == configOk.end()) {
                    CoreConfig cfg = job.cfg;
                    applyExecOverlay(cfg, opt);
                    Simulator probe(cfg, prog);
                    // samples[0] is the cold region (no image); the
                    // first warm snapshot decides whether this config
                    // can fork.
                    const bool ok = Checkpoint::validate(
                        probe, set.samples[1].bytes);
                    if (!ok)
                        notes[w].push_back(
                            {"running " + job.workload + "/" +
                             job.configKey +
                             " as a full run (snapshot geometry "
                             "mismatch)"});
                    it = configOk.emplace(job.configKey, ok).first;
                }
                sampled = it->second;
            }
            if (!sampled) {
                units.push_back({false, i, -1});
                continue;
            }
            sampleResults[i].resize(set.samples.size());
            sampleHashes[i].assign(set.samples.size(), 0);
            for (std::size_t k = 0; k < set.samples.size(); ++k)
                units.push_back({false, i, int(k)});
        }
        captureWall[w] = secondsSince(t0);
        return units;
    };

    auto runUnit = [&](const Unit &unit) {
        const std::size_t slot = slotOf(unit);
        const SweepJob &job = plan.jobs[unit.index];
        CoreConfig cfg = job.cfg;
        applyExecOverlay(cfg, opt);
        const Program &prog = programs[wl.ofJob[unit.index]];
        unitQueueWait[slot] = secondsSince(poolStart);
        const auto t0 = std::chrono::steady_clock::now();
        if (unit.sample < 0) {
            Simulator sim(cfg, prog);
            wd.begin(slot, sim);
            outcomes[unit.index].res =
                sim.run(opt.maxCycles, false, opt.quiesceInterval);
            wd.end(slot);
            unitTimedOut[slot] = outcomes[unit.index].res.timedOut;
            outcomes[unit.index].commitHash = sim.core().commitPcHash();
            unitWall[slot] = secondsSince(t0);
            return;
        }
        const SampleCheckpoint &sc =
            sets[wl.ofJob[unit.index]].samples[size_t(unit.sample)];
        Simulator sim(cfg, prog);
        std::string err;
        // Empty bytes: the exact cold-start region forks from
        // reset instead of restoring a snapshot.
        if (!sc.bytes.empty()) {
            restoreCount.fetch_add(1, std::memory_order_relaxed);
            restoreBytes.fetch_add(sc.bytes.size(),
                                   std::memory_order_relaxed);
        }
        if (!sc.bytes.empty() &&
            !Checkpoint::restore(sim, sc.bytes, &err)) {
            // validate() passed at capture time, so this is
            // exceptional; a zero-inst measurement drops out of the
            // weighted aggregation (deterministically) instead of
            // crashing.
            warn("sample restore failed for ", job.workload, "/",
                 job.configKey, ": ", err);
            return;
        }
        wd.begin(slot, sim);
        SimResult r = sim.runInsts(sc.measureInsts, opt.maxCycles);
        wd.end(slot);
        unitTimedOut[slot] = r.timedOut;
        // An aborted sample contributes nothing (like a failed
        // restore): zero-inst measurements drop out of the weighted
        // aggregation deterministically.
        if (r.timedOut)
            return;
        sampleHashes[unit.index][size_t(unit.sample)] =
            sim.core().commitPcHash();
        sampleResults[unit.index][size_t(unit.sample)] = std::move(r);
        unitWall[slot] = secondsSince(t0);
    };

    const unsigned workers = drainUnits(
        opt.jobs, nw, nw + nj * (stride - 1), captureUnit, runUnit);
    if (metrics) {
        metrics->poolWallSeconds = secondsSince(poolStart);
        metrics->workers = workers;
        metrics->checkpointRestores =
            restoreCount.load(std::memory_order_relaxed);
        metrics->checkpointRestoreBytes =
            restoreBytes.load(std::memory_order_relaxed);
        for (std::size_t w = 0; w < nw; ++w) {
            metrics->busySeconds += captureWall[w];
            if (!sets[w].usable())
                continue;
            ++metrics->checkpointCaptures;
            for (const SampleCheckpoint &sc : sets[w].samples)
                metrics->checkpointCaptureBytes += sc.bytes.size();
        }
    }
    printNotes(notes);

    // Watchdog retry pass: aborted units re-run once, serially, in
    // slot order, with a fresh timer each.
    if (wd.enabled()) {
        for (std::size_t slot = 0; slot < nslots; ++slot) {
            if (!unitTimedOut[slot])
                continue;
            const Unit u = unitAt(slot);
            const SweepJob &j = plan.jobs[u.index];
            warn("job watchdog: retrying ", j.workload, "/",
                 j.configKey, " serially");
            unitTimedOut[slot] = 0;
            runUnit(u);
            outcomes[u.index].retried = true;
        }
        for (std::size_t slot = 0; slot < nslots; ++slot)
            if (unitTimedOut[slot])
                outcomes[slot / stride].timedOut = true;
    }

    // Plan-ordered aggregation: a pure integer fold of the per-sample
    // measurements, independent of which thread measured what.
    const auto collate0 = std::chrono::steady_clock::now();
    for (std::size_t slot = 0; slot < nslots; ++slot)
        outcomes[slot / stride].wallSeconds += unitWall[slot];
    for (std::size_t i = 0; i < nj; ++i) {
        if (sampleResults[i].empty())
            continue;
        const SampleSet &set = sets[wl.ofJob[i]];
        outcomes[i].res = aggregateSamples(set, sampleResults[i]);
        outcomes[i].commitHash = foldSampleHashes(sampleHashes[i]);
        outcomes[i].fromCheckpoint = true;
        outcomes[i].samples = unsigned(set.samples.size());
    }
    if (metrics) {
        metrics->collateSeconds = secondsSince(collate0);
        metrics->jobs.resize(nj);
        for (std::size_t i = 0; i < nj; ++i) {
            ExecMetrics::JobMetrics &jm = metrics->jobs[i];
            jm.workload = plan.jobs[i].workload;
            jm.configKey = plan.jobs[i].configKey;
            jm.queueWaitSeconds = -1.0; // min over the job's units
            jm.runSeconds = outcomes[i].wallSeconds;
        }
        for (std::size_t slot = 0; slot < nslots; ++slot) {
            const double qw = unitQueueWait[slot];
            ExecMetrics::JobMetrics &jm = metrics->jobs[slot / stride];
            if (qw >= 0.0 &&
                (jm.queueWaitSeconds < 0.0 || qw < jm.queueWaitSeconds))
                jm.queueWaitSeconds = qw;
        }
        for (ExecMetrics::JobMetrics &jm : metrics->jobs) {
            if (jm.queueWaitSeconds < 0.0)
                jm.queueWaitSeconds = 0.0;
            metrics->busySeconds += jm.runSeconds;
        }
    }
    return outcomes;
}

} // namespace

FaultPlan
jobFaultPlan(const FaultPlan &base, const SweepJob &job)
{
    FaultPlan plan = base;
    if (plan.enabled)
        plan.seed = deriveSeed(job.workload, "fault:" + job.configKey,
                               base.seed);
    return plan;
}

unsigned
resolveJobs(unsigned requested)
{
    if (requested != 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 1 ? hw - 1 : 1;
}

void
applyExecOverlay(CoreConfig &cfg, const ExecOptions &opt)
{
    cfg.eventSkip = opt.eventSkip;
    cfg.traceExec = opt.trace;
    cfg.engine.eagerChainLoads = opt.eagerChain;
}

CoreConfig
warmConfig(const SweepPlan &plan, const ExecOptions &opt,
           const std::string &workload)
{
    const SweepJob *warm_job = nullptr;
    for (const SweepJob &j : plan.jobs) {
        if (j.workload != workload)
            continue;
        if (!warm_job)
            warm_job = &j;
        if (j.cfg.engine.enabled) {
            warm_job = &j;
            break;
        }
    }
    sdv_assert(warm_job, "warmConfig: workload not in plan");
    CoreConfig cfg = warm_job->cfg;
    applyExecOverlay(cfg, opt);
    return cfg;
}

std::vector<RunOutcome>
runPlan(const SweepPlan &plan, const ExecOptions &opt,
        ExecMetrics *metrics)
{
    if (metrics) {
        *metrics = ExecMetrics{};
        metrics->enabled = true;
        metrics->jobsAuto = opt.jobsAutoDetected;
    }
    if (opt.sample.enabled()) {
        sdv_assert(!opt.verify,
                   "interval sampling produces estimates that cannot "
                   "be functionally verified; drop --verify");
        return runPlanSampled(plan, opt, metrics);
    }

    // One capture unit per workload builds its program, warms its
    // snapshot under --checkpoint, then queues the workload's jobs.
    // Per workload, written by its capture unit and published to the
    // jobs by the queue's lock.
    const PlanWorkloads wl(plan);
    const std::size_t nw = wl.names.size();
    std::vector<Program> programs(nw);
    std::vector<std::vector<std::uint8_t>> checkpoints(nw);
    std::vector<char> captured(nw, 0);
    std::vector<double> captureWall(nw, 0.0);
    std::vector<std::vector<Note>> notes(nw);

    std::vector<RunOutcome> outcomes(plan.jobs.size());
    JobWatchdog wd(plan.jobs.size(), opt.jobTimeout,
                   [&plan](std::size_t u) {
                       const SweepJob &j = plan.jobs[u];
                       return j.workload + "/" + j.configKey +
                              " (seed " + std::to_string(j.seed) + ")";
                   });

    std::vector<double> jobQueueWait(plan.jobs.size(), 0.0);
    std::atomic<std::uint64_t> restoreCount{0}, restoreBytes{0};
    const auto poolStart = std::chrono::steady_clock::now();

    auto runJob = [&](std::size_t i) {
        const SweepJob &job = plan.jobs[i];
        RunOutcome &out = outcomes[i];
        stampOutcome(out, job);

        jobQueueWait[i] = secondsSince(poolStart);
        const auto t0 = std::chrono::steady_clock::now();
        CoreConfig cfg = job.cfg;
        applyExecOverlay(cfg, opt);
        cfg.engine.fault = jobFaultPlan(opt.fault, job);
        out.cfg = cfg; ///< resolved config (fault plan, chaining mode)
        const Program &prog = programs[wl.ofJob[i]];
        std::optional<Simulator> sim;
        sim.emplace(cfg, prog);

        if (opt.checkpoint) {
            const auto &bytes = checkpoints[wl.ofJob[i]];
            // A job whose configuration cannot take the snapshot
            // (e.g. an ablation entry varying checkpointed
            // geometry such as the TL confidence) runs from cold
            // instead — deterministic per job, and visible in the
            // output via from_checkpoint. A failed restore may
            // leave partial state, so the cold path rebuilds the
            // simulator from scratch.
            std::string err;
            if (!bytes.empty() && Checkpoint::validate(*sim, bytes) &&
                Checkpoint::restore(*sim, bytes, &err)) {
                out.fromCheckpoint = true;
                restoreCount.fetch_add(1, std::memory_order_relaxed);
                restoreBytes.fetch_add(bytes.size(),
                                       std::memory_order_relaxed);
            } else if (!bytes.empty()) {
                warn("running ", job.workload, "/", job.configKey,
                     " cold", err.empty() ? "" : ": ", err);
                sim.emplace(cfg, prog);
            }
        }

        // Flight recorder + interval telemetry (pure observation: the
        // simulated outcome is bit-identical with or without them).
        obs::IntervalTelemetry telemetry(
            opt.telemetryInterval ? opt.telemetryInterval : 1);
        if (opt.traceEvents) {
            out.trace = std::make_shared<obs::TraceRecorder>();
            out.trace->configure(opt.traceCategories, opt.traceLast);
            sim->setRecorder(out.trace.get());
        }
        if (opt.telemetryInterval)
            sim->setTelemetry(&telemetry);

        wd.begin(i, *sim);
        out.res = sim->run(opt.maxCycles, opt.verify,
                           opt.checkpoint ? 0 : opt.quiesceInterval);
        wd.end(i);
        out.timedOut = out.res.timedOut;
        out.commitHash = sim->core().commitPcHash();
        out.wallSeconds = secondsSince(t0);
        if (opt.telemetryInterval)
            out.telemetryJson = telemetry.toJson();
    };

    auto captureUnit = [&](std::size_t w) {
        const auto t0 = std::chrono::steady_clock::now();
        programs[w] = loadProgram(plan, wl.names[w]);
        if (opt.checkpoint) {
            bool took = false;
            checkpoints[w] = captureCheckpoint(
                plan, opt, wl.names[w], programs[w], took, notes[w]);
            captured[w] = took;
        }
        captureWall[w] = secondsSince(t0);
        std::vector<Unit> units;
        for (std::size_t i : wl.jobs[w])
            units.push_back({false, i, -1});
        return units;
    };
    const unsigned workers =
        drainUnits(opt.jobs, nw, nw + plan.jobs.size(), captureUnit,
                   [&](const Unit &u) { runJob(u.index); });
    printNotes(notes);

    // Watchdog retry pass: every aborted job gets one serial re-run
    // with an uncontended machine and a fresh timer. A job that times
    // out again stays marked failed (timedOut && !finished).
    if (wd.enabled()) {
        for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
            if (!outcomes[i].timedOut)
                continue;
            warn("job watchdog: retrying ", plan.jobs[i].workload, "/",
                 plan.jobs[i].configKey, " serially");
            outcomes[i] = RunOutcome{};
            runJob(i);
            outcomes[i].retried = true;
        }
    }
    if (metrics) {
        metrics->poolWallSeconds = secondsSince(poolStart);
        metrics->workers = workers;
        for (std::size_t w = 0; w < nw; ++w) {
            metrics->busySeconds += captureWall[w];
            if (!captured[w])
                continue;
            ++metrics->checkpointCaptures;
            metrics->checkpointCaptureBytes += checkpoints[w].size();
        }
        metrics->checkpointRestores =
            restoreCount.load(std::memory_order_relaxed);
        metrics->checkpointRestoreBytes =
            restoreBytes.load(std::memory_order_relaxed);
        metrics->jobs.resize(plan.jobs.size());
        for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
            ExecMetrics::JobMetrics &jm = metrics->jobs[i];
            jm.workload = plan.jobs[i].workload;
            jm.configKey = plan.jobs[i].configKey;
            jm.queueWaitSeconds = jobQueueWait[i];
            jm.runSeconds = outcomes[i].wallSeconds;
            metrics->busySeconds += jm.runSeconds;
        }
    }
    return outcomes;
}

std::string
resultRecordJson(const RunOutcome &o)
{
    std::string out;
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "  {\"bench\": \"sweep:%s\", \"workload\": \"%s\", "
        "\"config\": \"%s\", \"cycles\": %llu, \"insts\": %llu, "
        "\"ipc\": %.4f, \"commit_hash\": \"0x%016llx\", "
        "\"finished\": %s, \"from_checkpoint\": %s, "
        "\"seed\": %llu, \"val_mismatches\": %llu",
        o.figure.c_str(), o.workload.c_str(), o.configKey.c_str(),
        static_cast<unsigned long long>(o.res.cycles),
        static_cast<unsigned long long>(o.res.insts), o.res.ipc,
        static_cast<unsigned long long>(o.commitHash),
        o.res.finished ? "true" : "false",
        o.fromCheckpoint ? "true" : "false",
        static_cast<unsigned long long>(o.seed),
        static_cast<unsigned long long>(
            o.res.engine.validationValueMismatches));
    out += buf;
    // Sampled estimates carry their sample count; exact runs keep
    // the pre-sampling record layout byte for byte.
    if (o.samples > 0) {
        std::snprintf(buf, sizeof(buf), ", \"samples\": %u",
                      o.samples);
        out += buf;
    }
    // Every field below appears only when its mode was active, so
    // default-mode documents stay byte-identical to the checked-in
    // baselines.
    if (o.timedOut || o.retried) {
        std::snprintf(buf, sizeof(buf),
                      ", \"timed_out\": %s, \"retried\": %s",
                      o.timedOut ? "true" : "false",
                      o.retried ? "true" : "false");
        out += buf;
    }
    if (o.res.core.quiesceEvents > 0) {
        // Transient-exposure report of the timing-channel
        // experiments (--quiesce-interval): speculative state
        // alive at each boundary plus the register lifetime
        // histogram (ascending 4x buckets from < 8 cycles).
        std::snprintf(
            buf, sizeof(buf),
            ", \"quiesce_events\": %llu, "
            "\"quiesce_live_vregs\": %llu, "
            "\"quiesce_transient_elems\": %llu",
            static_cast<unsigned long long>(
                o.res.core.quiesceEvents),
            static_cast<unsigned long long>(
                o.res.core.quiesceLiveVregs),
            static_cast<unsigned long long>(
                o.res.core.quiesceTransientElems));
        out += buf;
        out += ", \"vreg_lifetime_hist\": ";
        out += bucketArrayJson(o.res.fates.lifetimeHist, 8);
    }
    if (o.cfg.engine.fault.armed()) {
        std::snprintf(
            buf, sizeof(buf),
            ", \"fault_elem_flips\": %llu, "
            "\"fault_vrmt_flips\": %llu, "
            "\"faults_detected\": %llu, "
            "\"faults_benign\": %llu, "
            "\"faults_vanished\": %llu, "
            "\"chain_demotions\": %llu, "
            "\"chain_reenables\": %llu, "
            "\"fault_tl_flips\": %llu, "
            "\"fault_gmrbb_flips\": %llu",
            static_cast<unsigned long long>(
                o.res.engine.faultElemFlips),
            static_cast<unsigned long long>(
                o.res.engine.faultVrmtFlips),
            static_cast<unsigned long long>(
                o.res.engine.faultValidationDetects +
                o.res.engine.faultTaintDetects +
                o.res.engine.faultVrmtDetects),
            static_cast<unsigned long long>(
                o.res.engine.faultValidationBenign),
            static_cast<unsigned long long>(
                o.res.fates.faultInjectedVanished +
                o.res.fates.faultTaintVanished),
            static_cast<unsigned long long>(
                o.res.engine.faultChainDemotions),
            static_cast<unsigned long long>(
                o.res.engine.faultChainReenables),
            static_cast<unsigned long long>(
                o.res.engine.faultTlFlips),
            static_cast<unsigned long long>(
                o.res.engine.faultGmrbbFlips));
        out += buf;
    }
    // Interval telemetry rides along only when it was sampled
    // (--telemetry): default-mode records stay byte-identical.
    if (!o.telemetryJson.empty() && o.telemetryJson != "[]") {
        out += ", \"telemetry\": ";
        out += o.telemetryJson;
    }
    out += "}";
    return out;
}

std::string
resultsJson(const std::vector<RunOutcome> &outcomes)
{
    // Assembled from the same per-record serializer the server streams
    // over the wire, so served and in-process output cannot diverge.
    std::string out = "[\n";
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        out += resultRecordJson(outcomes[i]);
        out += i + 1 < outcomes.size() ? ",\n" : "\n";
    }
    out += "]";
    return out;
}

std::vector<obs::TraceSource>
traceSources(const std::vector<RunOutcome> &outcomes)
{
    std::vector<obs::TraceSource> sources;
    for (const RunOutcome &o : outcomes)
        if (o.trace)
            sources.push_back(
                {o.trace.get(), o.workload + "/" + o.configKey});
    return sources;
}

std::string
ExecMetrics::toJson() const
{
    char buf[256];
    std::string out = "{";
    std::snprintf(
        buf, sizeof(buf),
        "\"workers\": %u, \"jobs_auto\": %s, "
        "\"pool_wall_seconds\": %.6f, "
        "\"busy_seconds\": %.6f, \"utilization\": %.4f, "
        "\"collate_seconds\": %.6f",
        workers, jobsAuto ? "true" : "false", poolWallSeconds,
        busySeconds, utilization(), collateSeconds);
    out += buf;
    if (serve) {
        std::snprintf(
            buf, sizeof(buf),
            ", \"serve\": {\"cache_hits\": %llu, "
            "\"cache_misses\": %llu, \"cache_waits\": %llu, "
            "\"units_dispatched\": %llu, \"unit_retries\": %llu, "
            "\"worker_restarts\": %llu, \"queue_depth_peak\": %llu, "
            "\"request_seconds\": %.6f, \"worker_loads\": [",
            static_cast<unsigned long long>(cacheHits),
            static_cast<unsigned long long>(cacheMisses),
            static_cast<unsigned long long>(cacheWaits),
            static_cast<unsigned long long>(unitsDispatched),
            static_cast<unsigned long long>(unitRetries),
            static_cast<unsigned long long>(workerRestarts),
            static_cast<unsigned long long>(queueDepthPeak),
            requestSeconds);
        out += buf;
        for (std::size_t i = 0; i < workerLoads.size(); ++i) {
            const WorkerLoad &w = workerLoads[i];
            std::snprintf(buf, sizeof(buf),
                          "%s{\"pid\": %d, \"units\": %llu, "
                          "\"busy_seconds\": %.6f}",
                          i ? ", " : "", w.pid,
                          static_cast<unsigned long long>(w.units),
                          w.busySeconds);
            out += buf;
        }
        out += "]";
        std::snprintf(
            buf, sizeof(buf),
            ", \"hang_kills\": %llu, \"deadline_failures\": %llu, "
            "\"cache_evictions\": %llu, \"cache_gc_removed\": %llu, "
            "\"cache_disk_bytes\": %llu, "
            "\"queue_wait_avg_seconds\": %.6f, "
            "\"queue_wait_max_seconds\": %.6f, \"client_waits\": [",
            static_cast<unsigned long long>(hangKills),
            static_cast<unsigned long long>(deadlineFailures),
            static_cast<unsigned long long>(cacheEvictions),
            static_cast<unsigned long long>(cacheGcRemoved),
            static_cast<unsigned long long>(cacheDiskBytes),
            queueWaitAvgSeconds, queueWaitMaxSeconds);
        out += buf;
        for (std::size_t i = 0; i < clientWaits.size(); ++i) {
            const ClientWait &c = clientWaits[i];
            std::snprintf(
                buf, sizeof(buf),
                "%s{\"client\": %llu, \"priority\": %u, "
                "\"units\": %llu, \"wait_avg_seconds\": %.6f, "
                "\"wait_max_seconds\": %.6f}",
                i ? ", " : "",
                static_cast<unsigned long long>(c.clientId),
                c.priority,
                static_cast<unsigned long long>(c.units),
                c.waitAvgSeconds, c.waitMaxSeconds);
            out += buf;
        }
        out += "]}";
    }
    std::snprintf(
        buf, sizeof(buf),
        ", \"checkpoint_captures\": %llu, "
        "\"checkpoint_capture_bytes\": %llu, "
        "\"checkpoint_restores\": %llu, "
        "\"checkpoint_restore_bytes\": %llu",
        static_cast<unsigned long long>(checkpointCaptures),
        static_cast<unsigned long long>(checkpointCaptureBytes),
        static_cast<unsigned long long>(checkpointRestores),
        static_cast<unsigned long long>(checkpointRestoreBytes));
    out += buf;
    out += ", \"jobs\": [";
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JobMetrics &j = jobs[i];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"workload\": \"%s\", \"config\": \"%s\", "
                      "\"queue_wait_seconds\": %.6f, "
                      "\"run_seconds\": %.6f}",
                      i ? ", " : "", j.workload.c_str(),
                      j.configKey.c_str(), j.queueWaitSeconds,
                      j.runSeconds);
        out += buf;
    }
    out += "]}";
    return out;
}

std::string
ExecMetrics::summaryTable() const
{
    char buf[256];
    std::string out;
    std::snprintf(buf, sizeof(buf),
                  "executor: %u worker%s%s, pool %.2fs, busy %.2fs "
                  "(%.0f%% utilization), collate %.3fs\n",
                  workers, workers == 1 ? "" : "s",
                  jobsAuto ? " (auto)" : "", poolWallSeconds,
                  busySeconds, utilization() * 100.0, collateSeconds);
    out += buf;
    if (serve) {
        std::snprintf(
            buf, sizeof(buf),
            "serve: cache %llu hit / %llu miss / %llu wait, "
            "%llu units (%llu retried), %llu worker restarts, "
            "queue peak %llu, request %.2fs\n",
            static_cast<unsigned long long>(cacheHits),
            static_cast<unsigned long long>(cacheMisses),
            static_cast<unsigned long long>(cacheWaits),
            static_cast<unsigned long long>(unitsDispatched),
            static_cast<unsigned long long>(unitRetries),
            static_cast<unsigned long long>(workerRestarts),
            static_cast<unsigned long long>(queueDepthPeak),
            requestSeconds);
        out += buf;
        std::snprintf(
            buf, sizeof(buf),
            "serve: %llu hang kills, %llu deadline failures, "
            "cache %llu evicted / %llu GCed (%llu bytes on disk), "
            "queue wait avg %.3fs max %.3fs\n",
            static_cast<unsigned long long>(hangKills),
            static_cast<unsigned long long>(deadlineFailures),
            static_cast<unsigned long long>(cacheEvictions),
            static_cast<unsigned long long>(cacheGcRemoved),
            static_cast<unsigned long long>(cacheDiskBytes),
            queueWaitAvgSeconds, queueWaitMaxSeconds);
        out += buf;
    }
    if (checkpointCaptures || checkpointRestores) {
        std::snprintf(
            buf, sizeof(buf),
            "checkpoints: %llu captured (%llu bytes), %llu restored "
            "(%llu bytes)\n",
            static_cast<unsigned long long>(checkpointCaptures),
            static_cast<unsigned long long>(checkpointCaptureBytes),
            static_cast<unsigned long long>(checkpointRestores),
            static_cast<unsigned long long>(checkpointRestoreBytes));
        out += buf;
    }
    out += "  queue-wait      run  job\n";
    for (const JobMetrics &j : jobs) {
        std::snprintf(buf, sizeof(buf), "  %9.3fs %7.2fs  %s/%s\n",
                      j.queueWaitSeconds, j.runSeconds,
                      j.workload.c_str(), j.configKey.c_str());
        out += buf;
    }
    return out;
}

bool
writeJsonDoc(const std::string &path, const std::string &planName,
             unsigned scale, Footprint footprint,
             const ExecOptions &opt, const std::string &resultsArray,
             double wall_seconds, const std::string &execMetricsJson)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    // Footprint and sampling metadata appear only when used, so the
    // default-mode document stays byte-identical to pre-sampling runs.
    std::string extra;
    if (footprint != Footprint::Base)
        extra += std::string(", \"footprint\": \"") +
                 footprintName(footprint) + "\"";
    if (opt.sample.enabled()) {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      ", \"samples\": %u, \"measure_insts\": %llu",
                      opt.sample.samples,
                      static_cast<unsigned long long>(
                          opt.sample.measureInsts));
        extra += buf;
    }
    // Host-side executor metrics appear only when collected
    // (--metrics-summary / --metrics): the default-mode document stays
    // byte-identical to the checked-in baselines.
    std::string exec_metrics;
    if (!execMetricsJson.empty())
        exec_metrics = "\"exec_metrics\": " + execMetricsJson + ",\n";
    std::fprintf(
        f,
        "{\n\"sweep\": {\"plan\": \"%s\", \"scale\": %u, "
        "\"event_skip\": %s, \"trace\": %s, \"checkpoint\": %s, "
        "\"warmup_insts\": %llu%s, \"wall_seconds\": %.6f},\n"
        "%s\"results\": %s\n}\n",
        planName.c_str(), scale, opt.eventSkip ? "true" : "false",
        opt.trace ? "true" : "false",
        opt.checkpoint ? "true" : "false",
        static_cast<unsigned long long>(opt.warmupInsts), extra.c_str(),
        wall_seconds, exec_metrics.c_str(), resultsArray.c_str());
    std::fclose(f);
    return true;
}

bool
writeJsonFile(const std::string &path, const SweepPlan &plan,
              const ExecOptions &opt,
              const std::vector<RunOutcome> &outcomes,
              double wall_seconds, const ExecMetrics *metrics)
{
    return writeJsonDoc(path, plan.name, plan.scale, plan.footprint,
                        opt, resultsJson(outcomes), wall_seconds,
                        metrics && metrics->enabled ? metrics->toJson()
                                                    : std::string());
}

} // namespace sweep
} // namespace sdv
