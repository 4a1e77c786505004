#include "sweep/executor.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>

#include "common/histogram.hh"
#include "common/log.hh"
#include "common/random.hh"
#include "sweep/checkpoint.hh"
#include "sweep/unit.hh"
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

/**
 * Wall-clock job watchdog (--job-timeout): one timer slot per pool
 * unit. A worker arms its slot (begin) before running a unit and
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

    /** Arm unit @p u's timer. @return the abort flag for its
     *  simulator (null when the watchdog is off). */
    std::atomic<bool> *
    begin(std::size_t u)
    {
        if (!enabled())
            return nullptr;
        Entry &e = entries_[u];
        e.abort.store(false, std::memory_order_relaxed);
        e.startMs.store(nowMs(), std::memory_order_release);
        return &e.abort;
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
 * The executor's capture: captureSnapshots(), with one-boundary images
 * reused from and saved to --checkpoint-dir. Cached files are keyed by
 * (workload, scale, warm-up length, chaining mode) — a different
 * chaining mode warms caches and TL state differently — and vetted with
 * jobForks against the warm-up machine before being trusted; a stale
 * or foreign file is recaptured and overwritten, never silently
 * reused. @return true when the capture ran now.
 */
bool
captureOrReuse(const SweepPlan &plan, const ExecOptions &opt,
               const std::string &workload, const Program &prog,
               SnapshotSet &s, std::vector<Note> &notes)
{
    const bool disk = !opt.sample.enabled() && !opt.checkpointDir.empty();
    const std::string path =
        !disk ? std::string()
              : opt.checkpointDir + "/" + workload + ".s" +
                    std::to_string(plan.scale) + ".w" +
                    std::to_string(opt.warmupInsts) +
                    (opt.eagerChain ? ".eager" : "") + ".ckpt";
    if (disk) {
        s.programHash = prog.identityHash();
        s.captured = true;
        s.set.samples.resize(1);
        const auto st = Checkpoint::load(path, s.set.samples[0].bytes);
        if (st == Checkpoint::LoadStatus::Ok &&
            jobForks(s, warmConfig(plan, opt, workload)))
            return false;
        if (st == Checkpoint::LoadStatus::Ok ||
            st == Checkpoint::LoadStatus::Stale) {
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
    }
    std::string note;
    s = captureSnapshots(plan, opt, workload, prog, &note);
    if (!note.empty())
        notes.push_back({note});
    if (disk && s.captured &&
        !Checkpoint::save(path, s.set.samples[0].bytes))
        notes.push_back({"could not write checkpoint " + path});
    return true;
}

/** One pool unit: a workload's capture, or unit @p part of a job (the
 *  whole job, or one sample fork of it). */
struct Unit
{
    bool capture = false;
    std::size_t index = 0; ///< capture: workload ordinal; run: job
    unsigned part = 0;     ///< run: the job's unit (JobCollator)
};

/**
 * The executor's one scheduler: pool threads drain a ready queue that
 * starts with one capture unit per workload, in plan order, so the long
 * captures start first. A capture unit returns its workload's run
 * units, which its thread appends to the back of the queue. A thread
 * that finds the queue empty waits while a capture is still running (it
 * may release more work) and exits once none is.
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
        queue.push_back({true, w, 0});
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
    sdv_assert(!opt.sample.enabled() || !opt.verify,
               "interval sampling produces estimates that cannot be "
               "functionally verified; drop --verify");
    if (metrics) {
        *metrics = ExecMetrics{};
        metrics->enabled = true;
        metrics->jobsAuto = opt.jobsAutoDetected;
    }

    // Per workload, written by its capture unit before it queues the
    // workload's run units (the queue's lock publishes them).
    const PlanWorkloads wl(plan);
    const std::size_t nw = wl.names.size();
    const bool snapshots = opt.sample.enabled() || opt.checkpoint;
    std::vector<Program> programs(nw);
    std::vector<SnapshotSet> sets(nw);
    std::vector<char> fresh(nw, 0);
    std::vector<double> captureWall(nw, 0.0);
    std::vector<std::vector<Note>> notes(nw);

    JobCollator collator(plan, opt);
    std::mutex collatorMu; // record() folds jobs from every pool thread

    // Watchdog timer slots are keyed by (job, unit), so every slot
    // exists before any capture has finished: a job has at most S + 1
    // units (the cold region and S warm samples).
    const std::size_t stride = std::size_t(opt.sample.samples) + 1;
    JobWatchdog wd(plan.jobs.size() * stride, opt.jobTimeout,
                   [&](std::size_t slot) {
                       const std::size_t i = slot / stride;
                       const SweepJob &j = plan.jobs[i];
                       std::string d = j.workload + "/" + j.configKey +
                                       " (seed " +
                                       std::to_string(j.seed) + ")";
                       const int s = collator.sampleOf(i, slot % stride);
                       if (s >= 0)
                           d += " sample " + std::to_string(s);
                       return d;
                   });
    const auto poolStart = std::chrono::steady_clock::now();

    auto captureUnit = [&](std::size_t w) {
        const auto t0 = std::chrono::steady_clock::now();
        programs[w] = loadProgram(wl.names[w], plan.scale, plan.footprint);
        fresh[w] = snapshots && captureOrReuse(plan, opt, wl.names[w],
                                               programs[w], sets[w],
                                               notes[w]);
        std::vector<std::string> shapeNotes;
        collator.shape(wl.jobs[w], snapshots ? &sets[w] : nullptr,
                       shapeNotes);
        std::vector<Unit> units;
        for (const std::string &n : shapeNotes)
            notes[w].push_back({n});
        for (std::size_t i : wl.jobs[w])
            for (unsigned k = 0; k < collator.units(i); ++k)
                units.push_back({false, i, k});
        captureWall[w] = secondsSince(t0);
        return units;
    };
    auto runOne = [&](std::size_t i, unsigned k) {
        const std::size_t slot = i * stride + k;
        const double queueWait = secondsSince(poolStart);
        UnitOutcome r = runUnit({plan.jobs[i], programs[wl.ofJob[i]], opt,
                                 collator.source(i), collator.sampleOf(i, k)},
                                wd.begin(slot));
        wd.end(slot);
        std::lock_guard<std::mutex> lk(collatorMu);
        collator.record(i, k, std::move(r), queueWait);
    };
    const unsigned workers = drainUnits(
        opt.jobs, nw, nw + plan.jobs.size() * stride, captureUnit,
        [&](const Unit &u) { runOne(u.index, u.part); });
    printNotes(notes);

    // Watchdog retry pass: every aborted unit gets one serial re-run, in
    // (job, unit) order, with an uncontended machine and a fresh timer.
    // A unit that times out again leaves its job marked failed.
    if (wd.enabled())
        for (std::size_t i = 0; i < plan.jobs.size(); ++i)
            for (unsigned k = 0; k < collator.units(i); ++k) {
                if (!collator.unit(i, k).timedOut)
                    continue;
                warn("job watchdog: retrying ", plan.jobs[i].workload,
                     "/", plan.jobs[i].configKey, " serially");
                runOne(i, k);
                collator.outcome(i).retried = true;
            }
    if (metrics) {
        metrics->poolWallSeconds = secondsSince(poolStart);
        metrics->workers = workers;
        for (std::size_t w = 0; w < nw; ++w) {
            metrics->busySeconds += captureWall[w];
            if (fresh[w])
                countCapture(*metrics, sets[w]);
        }
        collator.addMetrics(*metrics);
        metrics->collateSeconds = collator.foldSeconds();
    }
    return collator.take();
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
