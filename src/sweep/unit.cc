#include "sweep/unit.hh"

#include <algorithm>
#include <map>
#include <optional>

#include "common/log.hh"
#include "obs/telemetry.hh"
#include "sweep/checkpoint.hh"
#include "workloads/workload.hh"

namespace sdv {
namespace sweep {

namespace {

/** @p job's machine under @p opt: the exec overlay, plus the per-job
 *  fault plan on exact (unsampled) runs. */
CoreConfig
unitConfig(const SweepJob &job, const ExecOptions &opt)
{
    CoreConfig cfg = job.cfg;
    applyExecOverlay(cfg, opt);
    if (!opt.sample.enabled())
        cfg.engine.fault = jobFaultPlan(opt.fault, job);
    return cfg;
}

} // namespace

Program
loadProgram(const std::string &workload, unsigned scale,
            Footprint footprint)
{
    Program prog = buildWorkload(workload, scale, footprint);
    prog.predecodeAll();
    return prog;
}

PlanWorkloads::PlanWorkloads(const SweepPlan &plan) : ofJob(plan.jobs.size())
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

SnapshotSet
captureSnapshots(const SweepPlan &plan, const ExecOptions &opt,
                 const std::string &workload, const Program &prog,
                 std::string *note)
{
    const CoreConfig warm = warmConfig(plan, opt, workload);
    SnapshotSet s;
    s.programHash = prog.identityHash();
    s.sampled = opt.sample.enabled();
    if (s.sampled) {
        SamplePlan sp = opt.sample;
        sp.warmupInsts = opt.warmupInsts;
        s.set = captureSamples(warm, prog, sp, opt.maxCycles, note);
        s.captured = s.set.usable();
        return s;
    }
    s.set.samples.resize(1);
    Simulator sim(warm, prog);
    if (!sim.warmup(opt.warmupInsts, opt.maxCycles)) {
        if (note)
            *note = "workload '" + workload +
                    "' reached no warm-up boundary (program finished or "
                    "budget elapsed); running its jobs without a "
                    "checkpoint";
        return s;
    }
    s.set.samples[0].bytes = Checkpoint::capture(sim);
    s.captured = true;
    return s;
}

bool
jobForks(const SnapshotSet &s, const CoreConfig &cfg)
{
    // A sample set's samples[0] is the cold region (no image); its
    // first warm snapshot decides whether the configuration can fork.
    const std::size_t probe = s.sampled ? 1 : 0;
    if (!s.captured || s.set.samples.size() <= probe)
        return false;
    std::uint64_t program = 0;
    return Checkpoint::validateImage(cfg, s.set.samples[probe].bytes,
                                     &program) &&
           program == s.programHash;
}

void
countCapture(ExecMetrics &m, const SnapshotSet &s)
{
    if (!s.captured)
        return;
    ++m.checkpointCaptures;
    for (const SampleCheckpoint &sc : s.set.samples)
        m.checkpointCaptureBytes += sc.bytes.size();
}

UnitOutcome
runUnit(const UnitSpec &u, std::atomic<bool> *abort)
{
    const auto t0 = std::chrono::steady_clock::now();
    const ExecOptions &opt = u.opt;
    const bool exact = !opt.sample.enabled();
    const bool fork = u.sample >= 0;
    const CoreConfig cfg = unitConfig(u.job, opt);
    UnitOutcome out;
    std::optional<Simulator> sim;
    sim.emplace(cfg, u.prog);

    // A sample's empty image is the cold-start region, forked from reset.
    const SampleCheckpoint *sc =
        u.source ? &u.source->set.samples[fork ? std::size_t(u.sample) : 0]
                 : nullptr;
    std::string err;
    if (sc && !sc->bytes.empty()) {
        if (Checkpoint::restore(*sim, sc->bytes, &err)) {
            out.restoredBytes = sc->bytes.size();
            out.fromCheckpoint = !fork;
        } else if (fork) {
            // jobForks vetted the image, so this is exceptional; a zero
            // contribution keeps the fold deterministic.
            warn("sample restore failed for ", u.job.workload, "/",
                 u.job.configKey, ": ", err);
            out.wallSeconds = secondsSince(t0);
            return out;
        } else {
            // A failed restore may leave partial state.
            warn("running ", u.job.workload, "/", u.job.configKey,
                 " cold: ", err);
            sim.emplace(cfg, u.prog);
        }
    }
    sim->setAbortFlag(abort);

    if (fork) {
        SimResult r = sim->runInsts(sc->measureInsts, opt.maxCycles);
        // An aborted sample contributes nothing, like a failed restore.
        out.timedOut = r.timedOut;
        if (!r.timedOut) {
            out.res = std::move(r);
            out.commitHash = sim->core().commitPcHash();
        }
        out.wallSeconds = secondsSince(t0);
        return out;
    }

    // Flight recorder + interval telemetry (pure observation: the
    // simulated outcome is bit-identical with or without them).
    obs::IntervalTelemetry telemetry(
        opt.telemetryInterval ? opt.telemetryInterval : 1);
    if (exact && opt.traceEvents) {
        out.trace = std::make_shared<obs::TraceRecorder>();
        out.trace->configure(opt.traceCategories, opt.traceLast);
        sim->setRecorder(out.trace.get());
    }
    if (exact && opt.telemetryInterval)
        sim->setTelemetry(&telemetry);
    out.res = sim->run(opt.maxCycles, exact && opt.verify,
                       exact && opt.checkpoint ? 0 : opt.quiesceInterval);
    out.timedOut = out.res.timedOut;
    out.commitHash = sim->core().commitPcHash();
    if (exact && opt.telemetryInterval)
        out.telemetryJson = telemetry.toJson();
    out.wallSeconds = secondsSince(t0);
    return out;
}

JobCollator::JobCollator(const SweepPlan &plan, const ExecOptions &opt)
    : plan_(plan), opt_(opt), jobs_(plan.jobs.size()),
      outcomes_(plan.jobs.size())
{
    for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
        stampOutcome(outcomes_[i], plan.jobs[i]);
        // Exact runs report their resolved machine (fault plan,
        // chaining mode): the record serializer reads fault state
        // from it.
        if (!opt.sample.enabled())
            outcomes_[i].cfg = unitConfig(plan.jobs[i], opt);
    }
}

void
JobCollator::shape(const std::vector<std::size_t> &jobs,
                   const SnapshotSet *s, std::vector<std::string> &notes)
{
    if (!s || !s->captured)
        return;
    std::map<std::string, bool> forks; // per configuration
    for (std::size_t i : jobs) {
        const SweepJob &job = plan_.jobs[i];
        auto it = forks.find(job.configKey);
        if (it == forks.end()) {
            const bool ok = jobForks(*s, unitConfig(job, opt_));
            if (!ok)
                notes.push_back("running " + job.workload + "/" +
                                job.configKey +
                                " as a full run (snapshot geometry "
                                "mismatch)");
            it = forks.emplace(job.configKey, ok).first;
        }
        if (!it->second)
            continue;
        Job &j = jobs_[i];
        j.source = s;
        j.left = s->sampled ? unsigned(s->set.samples.size()) : 1;
        j.slots.resize(j.left);
    }
}

void
JobCollator::record(std::size_t i, unsigned k, UnitOutcome &&r,
                    double queueWait)
{
    Job &j = jobs_[i];
    j.slots[k] = std::move(r);
    if (j.queueWait < 0.0 || queueWait < j.queueWait)
        j.queueWait = queueWait;
    if (j.left > 0 && --j.left > 0)
        return;
    fold(i);
}

void
JobCollator::fold(std::size_t i)
{
    const auto t0 = std::chrono::steady_clock::now();
    const Job &j = jobs_[i];
    RunOutcome &o = outcomes_[i];
    o.wallSeconds = 0.0;
    o.timedOut = false;
    for (const UnitOutcome &u : j.slots) {
        o.wallSeconds += u.wallSeconds;
        o.timedOut = o.timedOut || u.timedOut;
    }
    if (sampleOf(i, 0) < 0) {
        const UnitOutcome &u = j.slots[0];
        o.res = u.res;
        o.commitHash = u.commitHash;
        o.fromCheckpoint = u.fromCheckpoint;
        o.trace = u.trace;
        o.telemetryJson = u.telemetryJson;
    } else {
        // A pure integer fold in capture order, independent of which
        // thread or process measured what.
        std::vector<SimResult> measured;
        std::vector<std::uint64_t> hashes;
        for (const UnitOutcome &u : j.slots) {
            measured.push_back(u.res);
            hashes.push_back(u.commitHash);
        }
        o.res = aggregateSamples(j.source->set, measured);
        o.commitHash = foldSampleHashes(hashes);
        o.fromCheckpoint = true;
        o.samples = unsigned(j.slots.size());
    }
    foldSeconds_ += secondsSince(t0);
}

void
JobCollator::addMetrics(ExecMetrics &m) const
{
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
        ExecMetrics::JobMetrics jm;
        jm.workload = outcomes_[i].workload;
        jm.configKey = outcomes_[i].configKey;
        jm.queueWaitSeconds = std::max(0.0, jobs_[i].queueWait);
        jm.runSeconds = outcomes_[i].wallSeconds;
        m.busySeconds += jm.runSeconds;
        m.jobs.push_back(std::move(jm));
        for (const UnitOutcome &u : jobs_[i].slots)
            if (u.restoredBytes) {
                ++m.checkpointRestores;
                m.checkpointRestoreBytes += u.restoredBytes;
            }
    }
}

} // namespace sweep
} // namespace sdv
