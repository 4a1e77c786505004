/**
 * @file
 * perfbench_inproc: the in-process half of the repository benchmark.
 * perfbench/run.py builds it next to sdv_sweep and runs one subcommand
 * per step; each writes one JSON document (--out).
 *
 *   setup   buildWorkload + predecodeAll for every program of a plan,
 *           repeated --reps times (the grid workloads' set-up time),
 *           plus the FunctionalCore::runToHalt reference (dynamic
 *           length and commit-stream hash) the output checks use.
 *   replay  a traced serial replay of runPlan's steps through the
 *           library's public calls, one span around each, between two
 *           untraced serial runPlan calls; every resultsJson document
 *           must be byte-identical. With --jobs > 1 an untraced runPlan
 *           at that width follows, for the pool's utilization.
 *   serve   closed-loop client of a running `sdv_sweep --serve`
 *           daemon: --connections threads each resubmit the request
 *           as soon as its reply ends, and every served results array
 *           is compared byte for byte with an in-process serial
 *           runPlan of the same request.
 *
 * Spans (name, start, end, parent, request) are kept in memory and
 * written with the document; run.py derives self times from them.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/executor.hh"
#include "sweep/checkpoint.hh"
#include "sweep/client.hh"
#include "sweep/executor.hh"
#include "sweep/plan.hh"
#include "sweep/sampling.hh"
#include "workloads/workload.hh"

using namespace sdv;
using Clock = std::chrono::steady_clock;

namespace {

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

std::string
num(std::uint64_t v)
{
    return std::to_string(v);
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/** In-memory span log. Spans nest through an open-span stack, so the
 *  tracer is single-threaded: the serve loop gives each connection
 *  its own and merges them at the end. */
class Tracer
{
  public:
    explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

    int
    open(const char *name, long req = -1)
    {
        const int id = int(spans_.size());
        spans_.push_back({name, now(), 0.0,
                          stack_.empty() ? -1 : stack_.back(), req});
        stack_.push_back(id);
        return id;
    }

    void
    close(int id)
    {
        spans_[std::size_t(id)].end = now();
        stack_.pop_back();
    }

    /** A closed span with explicit times (client-side request phases
     *  reconstructed from callback timestamps). */
    void
    add(const char *name, Clock::time_point start, Clock::time_point end,
        int parent, long req)
    {
        spans_.push_back({name, secondsBetween(epoch_, start),
                          secondsBetween(epoch_, end), parent, req});
    }

    int size() const { return int(spans_.size()); }

    /** Append this tracer's spans to @p out as JSON rows, shifting
     *  parent ids by @p base (merging several tracers). */
    void
    appendJson(std::string &out, int base) const
    {
        for (const Span &s : spans_) {
            if (out.back() != '[')
                out += ",\n";
            out += "[" + quoted(s.name) + ", " + num(s.start) + ", " +
                   num(s.end) + ", " +
                   std::to_string(s.parent < 0 ? -1 : s.parent + base) +
                   ", " + std::to_string(s.req) + "]";
        }
    }

  private:
    struct Span
    {
        std::string name;
        double start;
        double end;
        int parent;
        long req;
    };

    double now() const { return secondsBetween(epoch_, Clock::now()); }

    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name, long req = -1)
        : t_(t), id_(t.open(name, req))
    {
    }
    ~Scope() { t_.close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t_;
    int id_;
};

/** Exact simulated work, summed over every measured run. */
struct Counts
{
    std::uint64_t runs = 0, cycles = 0, insts = 0, skippedCycles = 0,
                  skipJumps = 0, fetchStallCycles = 0, squashedInsts = 0,
                  mispredicts = 0, spawns = 0, validations = 0,
                  elemsComputed = 0, elemsUsed = 0, elemsUnused = 0,
                  misspecs = 0, instancesAborted = 0, l1dAccesses = 0,
                  l1dMisses = 0, l2Accesses = 0, l2Misses = 0,
                  portRequests = 0, elemMshrStalls = 0, wideReads = 0,
                  wideUsefulWords = 0;

    void
    add(const SimResult &r)
    {
        ++runs;
        cycles += r.core.cycles;
        insts += r.core.committedInsts;
        skippedCycles += r.core.eventSkippedCycles;
        skipJumps += r.core.eventSkipJumps;
        fetchStallCycles += r.core.fetchStallCycles;
        squashedInsts += r.core.squashedInsts;
        mispredicts += r.core.branchMispredicts;
        spawns += r.datapath.instancesSpawned;
        validations +=
            r.engine.loadValidations + r.engine.arithValidations;
        elemsComputed += r.datapath.elemsComputed;
        elemsUsed += r.fates.elemsComputedUsed;
        elemsUnused += r.fates.elemsComputedNotUsed;
        misspecs +=
            r.engine.loadAddrMisspecs + r.engine.arithOperandMisspecs;
        instancesAborted += r.datapath.instancesAborted;
        l1dAccesses += r.l1d.accesses();
        l1dMisses += r.l1d.misses();
        l2Accesses += r.l2.accesses();
        l2Misses += r.l2.misses();
        portRequests += r.memoryRequests();
        elemMshrStalls += r.datapath.elemLoadMshrStalls;
        wideReads += r.wideBus.totalReads;
        for (unsigned w = 1; w < 5; ++w)
            wideUsefulWords += w * r.wideBus.usefulWords[w];
    }

    std::string
    json() const
    {
        const std::pair<const char *, std::uint64_t> fields[] = {
            {"runs", runs},
            {"cycles", cycles},
            {"insts", insts},
            {"skipped_cycles", skippedCycles},
            {"skip_jumps", skipJumps},
            {"fetch_stall_cycles", fetchStallCycles},
            {"squashed_insts", squashedInsts},
            {"mispredicts", mispredicts},
            {"spawns", spawns},
            {"validations", validations},
            {"elems_computed", elemsComputed},
            {"elems_used", elemsUsed},
            {"elems_unused", elemsUnused},
            {"misspecs", misspecs},
            {"instances_aborted", instancesAborted},
            {"l1d_accesses", l1dAccesses},
            {"l1d_misses", l1dMisses},
            {"l2_accesses", l2Accesses},
            {"l2_misses", l2Misses},
            {"port_requests", portRequests},
            {"elem_mshr_stalls", elemMshrStalls},
            {"wide_reads", wideReads},
            {"wide_useful_words", wideUsefulWords},
        };
        std::string out = "{";
        for (const auto &[k, v] : fields)
            out += std::string(out.size() > 1 ? ", " : "") + quoted(k) +
                   ": " + num(v);
        return out + "}";
    }
};

double
processCpuSeconds()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

bool
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream f(path, std::ios::binary);
    f << text;
    return bool(f);
}

// --- command line -----------------------------------------------------------

struct Args
{
    std::string cmd;
    std::string plan = "fig11";
    sweep::PlanOptions popt;
    sweep::ExecOptions eopt;
    unsigned reps = 1;
    std::string out;
    std::string resultsOut;
    std::string socket;
    unsigned connections = 2;
    double seconds = 1.0;
    unsigned minRequests = 1;
    int daemonPid = 0;
    bool trace = false;
};

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: perfbench_inproc setup|replay|serve --out FILE\n"
        "  plan:   --plan NAME --scale N --footprint M --quick --seed N\n"
        "          --samples N --sample-insts M --warmup W --jobs N\n"
        "  setup:  --reps N\n"
        "  replay: --results FILE (untraced resultsJson)\n"
        "  serve:  --socket PATH --connections C --seconds S\n"
        "          --min-requests N --daemon-pid P "
        "--trace\n");
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usage();
    Args a;
    a.cmd = argv[1];
    auto value = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage();
        return argv[++i];
    };
    auto u64 = [&](int &i) { return std::strtoull(value(i), nullptr, 0); };
    for (int i = 2; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--plan")
            a.plan = value(i);
        else if (k == "--scale")
            a.popt.scale = unsigned(u64(i));
        else if (k == "--footprint")
            a.popt.footprint = parseFootprint(value(i));
        else if (k == "--quick")
            a.popt.quick = true;
        else if (k == "--seed")
            a.popt.baseSeed = u64(i);
        else if (k == "--samples")
            a.eopt.sample.samples = unsigned(u64(i));
        else if (k == "--sample-insts")
            a.eopt.sample.measureInsts = u64(i);
        else if (k == "--warmup")
            a.eopt.warmupInsts = u64(i);
        else if (k == "--jobs")
            a.eopt.jobs = unsigned(u64(i));
        else if (k == "--reps")
            a.reps = unsigned(u64(i));
        else if (k == "--out")
            a.out = value(i);
        else if (k == "--results")
            a.resultsOut = value(i);
        else if (k == "--socket")
            a.socket = value(i);
        else if (k == "--connections")
            a.connections = unsigned(u64(i));
        else if (k == "--seconds")
            a.seconds = std::atof(value(i));
        else if (k == "--min-requests")
            a.minRequests = unsigned(u64(i));
        else if (k == "--daemon-pid")
            a.daemonPid = int(u64(i));
        else if (k == "--trace")
            a.trace = true;
        else
            usage();
    }
    if (a.out.empty() || a.popt.scale == 0 || a.reps == 0 ||
        a.connections == 0 || a.eopt.jobs == 0 || !sweep::havePlan(a.plan))
        usage();
    return a;
}

/** Workload names of @p plan in first-use order (runPlan's order). */
std::vector<std::string>
planWorkloads(const sweep::SweepPlan &plan)
{
    std::vector<std::string> names;
    for (const sweep::SweepJob &job : plan.jobs)
        if (std::find(names.begin(), names.end(), job.workload) ==
            names.end())
            names.push_back(job.workload);
    return names;
}

// --- setup ------------------------------------------------------------------

int
cmdSetup(const Args &a)
{
    const sweep::SweepPlan plan = sweep::buildPlan(a.plan, a.popt);
    const std::vector<std::string> names = planWorkloads(plan);
    Tracer tr(Clock::now());

    std::vector<double> setupSeconds;
    std::map<std::string, Program> programs;
    for (unsigned rep = 0; rep < a.reps; ++rep) {
        programs.clear();
        const auto t0 = Clock::now();
        Scope s(tr, "setup");
        for (const std::string &w : names) {
            std::optional<Program> prog;
            {
                Scope b(tr, "buildWorkload");
                prog.emplace(
                    buildWorkload(w, plan.scale, plan.footprint));
            }
            {
                Scope p(tr, "predecodeAll");
                prog->predecodeAll();
            }
            programs.emplace(w, std::move(*prog));
        }
        setupSeconds.push_back(secondsBetween(t0, Clock::now()));
    }

    std::uint64_t staticInsts = 0, dataBytes = 0;
    std::string ref = "{";
    for (const std::string &w : names) {
        const Program &prog = programs.at(w);
        staticInsts += prog.numInsts();
        for (const DataSegment &seg : prog.dataSegments())
            dataBytes += seg.bytes.size();
        std::uint64_t hash = 0, insts = 0;
        {
            Scope f(tr, "runToHalt");
            FunctionalCore core(prog);
            insts = core.runToHalt(&hash);
        }
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"insts\": %llu, "
                      "\"commit_hash\": \"0x%016llx\"}",
                      ref.size() > 1 ? ", " : "", w.c_str(),
                      static_cast<unsigned long long>(insts),
                      static_cast<unsigned long long>(hash));
        ref += buf;
    }
    ref += "}";

    std::string out = "{\"setup_s\": [";
    for (std::size_t i = 0; i < setupSeconds.size(); ++i)
        out.append(i ? ", " : "").append(num(setupSeconds[i]));
    out += "], \"jobs\": " + num(std::uint64_t(plan.jobs.size())) +
           ", \"static_insts\": " + num(staticInsts) +
           ", \"data_bytes\": " + num(dataBytes) +
           ", \"reference\": " + ref + ", \"spans\": [";
    tr.appendJson(out, 0);
    out += "]}\n";
    return writeFile(a.out, out) ? 0 : 1;
}

// --- replay -----------------------------------------------------------------

/** The traced serial replay of runPlan: the same public calls in the
 *  same order as runPlan's serial path (programs, capture pass, mode
 *  decision, units in unit order, plan-ordered aggregation), with a
 *  span around each. */
std::string
tracedReplay(const sweep::SweepPlan &plan, const sweep::ExecOptions &opt,
             Tracer &tr, Counts &counts, std::uint64_t &captureBytes,
             std::uint64_t &restores, std::uint64_t &restoreBytes)
{
    Scope root(tr, "replay");
    std::map<std::string, Program> programs;
    for (const std::string &w : planWorkloads(plan)) {
        std::optional<Program> prog;
        {
            Scope b(tr, "buildWorkload");
            prog.emplace(buildWorkload(w, plan.scale, plan.footprint));
        }
        {
            Scope p(tr, "predecodeAll");
            prog->predecodeAll();
        }
        programs.emplace(w, std::move(*prog));
    }

    std::vector<sweep::RunOutcome> outcomes(plan.jobs.size());
    auto runAndCount = [&](Simulator &sim, std::size_t i, auto &&body) {
        SimResult r;
        {
            Scope s(tr, "Simulator::run", long(i));
            r = body(sim);
        }
        counts.add(r);
        return r;
    };

    if (!opt.sample.enabled()) {
        for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
            const sweep::SweepJob &job = plan.jobs[i];
            sweep::RunOutcome &out = outcomes[i];
            Scope u(tr, "unit", long(i));
            sweep::stampOutcome(out, job);
            CoreConfig cfg = job.cfg;
            sweep::applyExecOverlay(cfg, opt);
            cfg.engine.fault = sweep::jobFaultPlan(opt.fault, job);
            out.cfg = cfg;
            std::optional<Simulator> sim;
            {
                Scope c(tr, "Simulator", long(i));
                sim.emplace(cfg, programs.at(job.workload));
            }
            out.res = runAndCount(*sim, i, [&](Simulator &s) {
                return s.run(opt.maxCycles, opt.verify,
                             opt.quiesceInterval);
            });
            out.timedOut = out.res.timedOut;
            out.commitHash = sim->core().commitPcHash();
        }
    } else {
        std::map<std::string, sweep::SampleSet> sets;
        for (const std::string &w : planWorkloads(plan)) {
            sweep::SamplePlan sp = opt.sample;
            sp.warmupInsts = opt.warmupInsts;
            Scope c(tr, "captureSamples");
            sweep::SampleSet set = sweep::captureSamples(
                sweep::warmConfig(plan, opt, w), programs.at(w), sp,
                opt.maxCycles);
            for (const sweep::SampleCheckpoint &sc : set.samples)
                captureBytes += sc.bytes.size();
            sets.emplace(w, std::move(set));
        }

        std::vector<bool> sampled(plan.jobs.size(), false);
        {
            Scope v(tr, "validate");
            std::map<std::pair<std::string, std::string>, bool> ok;
            for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
                const sweep::SweepJob &job = plan.jobs[i];
                const sweep::SampleSet &set = sets.at(job.workload);
                if (!set.usable())
                    continue;
                const auto key = std::make_pair(job.workload, job.configKey);
                auto it = ok.find(key);
                if (it == ok.end()) {
                    CoreConfig cfg = job.cfg;
                    sweep::applyExecOverlay(cfg, opt);
                    Simulator probe(cfg, programs.at(job.workload));
                    it = ok.emplace(key, sweep::Checkpoint::validate(
                                             probe, set.samples[1].bytes))
                             .first;
                }
                sampled[i] = it->second;
            }
        }

        std::vector<std::vector<SimResult>> results(plan.jobs.size());
        std::vector<std::vector<std::uint64_t>> hashes(plan.jobs.size());
        for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
            const sweep::SweepJob &job = plan.jobs[i];
            sweep::stampOutcome(outcomes[i], job);
            CoreConfig cfg = job.cfg;
            sweep::applyExecOverlay(cfg, opt);
            const Program &prog = programs.at(job.workload);
            if (!sampled[i]) {
                Scope u(tr, "unit", long(i));
                std::optional<Simulator> sim;
                {
                    Scope c(tr, "Simulator", long(i));
                    sim.emplace(cfg, prog);
                }
                outcomes[i].res = runAndCount(*sim, i, [&](Simulator &s) {
                    return s.run(opt.maxCycles, false,
                                 opt.quiesceInterval);
                });
                outcomes[i].commitHash = sim->core().commitPcHash();
                continue;
            }
            const sweep::SampleSet &set = sets.at(job.workload);
            results[i].resize(set.samples.size());
            hashes[i].assign(set.samples.size(), 0);
            for (std::size_t k = 0; k < set.samples.size(); ++k) {
                const sweep::SampleCheckpoint &sc = set.samples[k];
                Scope u(tr, "unit", long(i));
                std::optional<Simulator> sim;
                {
                    Scope c(tr, "Simulator", long(i));
                    sim.emplace(cfg, prog);
                }
                if (!sc.bytes.empty()) {
                    ++restores;
                    restoreBytes += sc.bytes.size();
                    Scope r(tr, "Checkpoint::restore", long(i));
                    if (!sweep::Checkpoint::restore(*sim, sc.bytes, nullptr))
                        continue;
                }
                SimResult r = runAndCount(*sim, i, [&](Simulator &s) {
                    return s.runInsts(sc.measureInsts, opt.maxCycles);
                });
                if (r.timedOut)
                    continue;
                hashes[i][k] = sim->core().commitPcHash();
                results[i][k] = std::move(r);
            }
        }

        Scope g(tr, "aggregateSamples");
        for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
            if (!sampled[i])
                continue;
            const sweep::SampleSet &set = sets.at(plan.jobs[i].workload);
            outcomes[i].res = sweep::aggregateSamples(set, results[i]);
            outcomes[i].commitHash = sweep::foldSampleHashes(hashes[i]);
            outcomes[i].fromCheckpoint = true;
            outcomes[i].samples = unsigned(set.samples.size());
        }
    }

    Scope j(tr, "resultsJson");
    return sweep::resultsJson(outcomes);
}

int
cmdReplay(const Args &a)
{
    const sweep::SweepPlan plan = sweep::buildPlan(a.plan, a.popt);
    sweep::ExecOptions serial = a.eopt;
    serial.jobs = 1;

    struct Timed
    {
        std::string results;
        double wall = 0.0;
        double cpu = 0.0;
    };
    auto timedRunPlan = [&plan](const sweep::ExecOptions &opt,
                                sweep::ExecMetrics *metrics) {
        Timed t;
        const double cpu0 = processCpuSeconds();
        const auto t0 = Clock::now();
        t.results = sweep::resultsJson(sweep::runPlan(plan, opt, metrics));
        t.wall = secondsBetween(t0, Clock::now());
        t.cpu = processCpuSeconds() - cpu0;
        return t;
    };

    // Untraced serial runs bracket the traced replay, so host-speed
    // drift during the replay cancels out of the comparison.
    sweep::ExecMetrics metrics;
    const Timed before = timedRunPlan(serial, &metrics);

    Tracer tr(Clock::now());
    Counts counts;
    std::uint64_t captureBytes = 0, restores = 0, restoreBytes = 0;
    auto t0 = Clock::now();
    const std::string traced = tracedReplay(plan, serial, tr, counts,
                                            captureBytes, restores,
                                            restoreBytes);
    const double tracedWall = secondsBetween(t0, Clock::now());

    const Timed after = timedRunPlan(serial, nullptr);
    const std::string &untraced = before.results;
    const double untracedWall = (before.wall + after.wall) / 2;

    // The executor at the workload's own width: outside CPU time over
    // wall gives the pool's utilization (the serial capture pass
    // included); the queue waits are the executor's own stamps.
    Timed pool = before;
    if (a.eopt.jobs > 1)
        pool = timedRunPlan(a.eopt, &metrics);
    double queueWaitMax = 0.0;
    for (const sweep::ExecMetrics::JobMetrics &jm : metrics.jobs)
        queueWaitMax = std::max(queueWaitMax, jm.queueWaitSeconds);

    if (!a.resultsOut.empty() && !writeFile(a.resultsOut, untraced))
        return 1;

    std::string out = "{\"untraced_wall_s\": " + num(untracedWall) +
                      ", \"untraced_walls_s\": [" + num(before.wall) +
                      ", " + num(after.wall) + "]" +
                      ", \"traced_wall_s\": " + num(tracedWall) +
                      ", \"identical\": " +
                      (traced == untraced && after.results == untraced &&
                               pool.results == untraced
                           ? "true"
                           : "false") +
                      ", \"jobs\": " + num(std::uint64_t(a.eopt.jobs)) +
                      ", \"pool_wall_s\": " + num(pool.wall) +
                      ", \"pool_cpu_s\": " + num(pool.cpu) +
                      ", \"queue_wait_max_s\": " + num(queueWaitMax) +
                      ", \"capture_bytes\": " + num(captureBytes) +
                      ", \"restores\": " + num(restores) +
                      ", \"restore_bytes\": " + num(restoreBytes) +
                      ", \"counts\": " + counts.json() + ", \"columns\": [";
    for (std::size_t i = 0; i < plan.jobs.size(); ++i)
        out.append(i ? ", " : "").append(quoted(plan.jobs[i].column));
    out += "], \"spans\": [";
    tr.appendJson(out, 0);
    out += "]}\n";
    return writeFile(a.out, out) ? 0 : 1;
}

// --- serve ------------------------------------------------------------------

/** A serve loop ends after this long even short of --min-requests. */
constexpr double kServeMaxSeconds = 120.0;

/** utime + stime + cutime + cstime of @p pid in seconds, and its
 *  parent pid; false when the process is gone. */
bool
procCpu(int pid, double &cpu, int &ppid)
{
    std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
    std::string line;
    if (!std::getline(f, line))
        return false;
    const std::size_t rp = line.rfind(')');
    if (rp == std::string::npos)
        return false;
    std::istringstream in(line.substr(rp + 2));
    std::vector<std::string> fields;
    for (std::string s; in >> s;)
        fields.push_back(s);
    // fields[0] is field 3 (state); utime..cstime are fields 14..17.
    if (fields.size() < 15)
        return false;
    ppid = std::atoi(fields[1].c_str());
    const double hz = double(::sysconf(_SC_CLK_TCK));
    cpu = 0.0;
    for (int k = 11; k <= 14; ++k)
        cpu += std::strtod(fields[std::size_t(k)].c_str(), nullptr) / hz;
    return true;
}

/** @p daemon and its live children (the worker processes). */
std::vector<int>
daemonProcesses(int daemon)
{
    std::vector<int> pids{daemon};
    DIR *d = ::opendir("/proc");
    if (!d)
        return pids;
    while (dirent *e = ::readdir(d)) {
        const int pid = std::atoi(e->d_name);
        double cpu = 0.0;
        int ppid = 0;
        if (pid > 0 && procCpu(pid, cpu, ppid) && ppid == daemon)
            pids.push_back(pid);
    }
    ::closedir(d);
    return pids;
}

double
daemonCpuSeconds(int daemon)
{
    double total = 0.0;
    for (int pid : daemonProcesses(daemon)) {
        double cpu = 0.0;
        int ppid = 0;
        if (procCpu(pid, cpu, ppid))
            total += cpu;
    }
    return total;
}

/** Largest VmHWM among the daemon and its workers, in MiB. */
double
daemonPeakRssMb(int daemon)
{
    double peak = 0.0;
    for (int pid : daemonProcesses(daemon)) {
        std::ifstream f("/proc/" + std::to_string(pid) + "/status");
        for (std::string line; std::getline(f, line);)
            if (line.rfind("VmHWM:", 0) == 0)
                peak = std::max(peak, std::atof(line.c_str() + 6) / 1024);
    }
    return peak;
}

struct RequestLog
{
    unsigned conn = 0;
    double submit = 0.0, done = 0.0;
    std::string status;
    bool identical = false;
    std::string metrics;
};

int
cmdServe(const Args &a)
{
    if (a.socket.empty() || a.daemonPid <= 0)
        usage();
    sweep::proto::SweepRequest req;
    req.plan = a.plan;
    req.popt = a.popt;
    req.eopt = a.eopt;
    req.eopt.jobs = 1;

    // The byte-identity oracle: in-process serial runPlan of the same
    // request (computed before the loop, outside every timing).
    const sweep::SweepPlan plan = sweep::buildPlan(req.plan, req.popt);
    const std::vector<sweep::RunOutcome> refOut =
        sweep::runPlan(plan, req.eopt, nullptr);
    const std::string reference = sweep::resultsJson(refOut);
    std::uint64_t refInsts = 0;
    for (const sweep::RunOutcome &o : refOut)
        refInsts += o.res.insts;
    if (!a.resultsOut.empty() && !writeFile(a.resultsOut, reference))
        return 1;

    const double daemonCpu0 = daemonCpuSeconds(a.daemonPid);
    const double clientCpu0 = processCpuSeconds();
    const auto epoch = Clock::now();
    std::atomic<unsigned> completed{0};
    std::mutex logMu;
    std::vector<RequestLog> logs;
    std::vector<Tracer> tracers(a.connections, Tracer(epoch));

    auto connection = [&](unsigned c) {
        Tracer &tr = tracers[c];
        for (long n = 0;; ++n) {
            const double elapsed = secondsBetween(epoch, Clock::now());
            if (elapsed >= kServeMaxSeconds ||
                (elapsed >= a.seconds && completed.load() >= a.minRequests))
                return;
            RequestLog log;
            log.conn = c;
            sweep::ClientResult res;
            std::string err;
            const auto t0 = Clock::now();
            Clock::time_point first = t0;
            bool seen = false;
            std::function<void(std::uint32_t, const std::string &)> onRecord;
            if (a.trace)
                onRecord = [&](std::uint32_t, const std::string &) {
                    if (!seen)
                        first = Clock::now();
                    seen = true;
                };
            const sweep::SubmitStatus st = sweep::submitSweepOnce(
                a.socket, req, 1, res, &err, onRecord);
            const auto t1 = Clock::now();
            log.submit = secondsBetween(epoch, t0);
            log.done = secondsBetween(epoch, t1);
            log.status = sweep::submitStatusName(st);
            log.identical = st == sweep::SubmitStatus::Ok &&
                            res.resultsArray() == reference;
            log.metrics = res.metricsJson.empty() ? "null" : res.metricsJson;
            if (a.trace) {
                const int parent = tr.size();
                const long id = long(c) * 1'000'000 + n;
                tr.add("request", t0, t1, -1, id);
                tr.add("first_record", t0, first, parent, id);
                tr.add("stream", first, t1, parent, id);
            }
            completed.fetch_add(1);
            std::lock_guard<std::mutex> g(logMu);
            logs.push_back(std::move(log));
        }
    };
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < a.connections; ++c)
        threads.emplace_back(connection, c);
    for (std::thread &t : threads)
        t.join();
    const double loopWall = secondsBetween(epoch, Clock::now());
    const double clientCpu = processCpuSeconds() - clientCpu0;
    const double daemonCpu = daemonCpuSeconds(a.daemonPid) - daemonCpu0;

    std::string out = "{\"loop_wall_s\": " + num(loopWall) +
                      ", \"client_cpu_s\": " + num(clientCpu) +
                      ", \"daemon_cpu_s\": " + num(daemonCpu) +
                      ", \"peak_rss_mb\": " +
                      num(daemonPeakRssMb(a.daemonPid)) +
                      ", \"request_insts\": " + num(refInsts) +
                      ", \"requests\": [";
    for (std::size_t i = 0; i < logs.size(); ++i) {
        const RequestLog &l = logs[i];
        out += std::string(i ? ",\n" : "\n") + "{\"conn\": " +
               num(std::uint64_t(l.conn)) + ", \"submit\": " +
               num(l.submit) + ", \"done\": " + num(l.done) +
               ", \"status\": " + quoted(l.status) +
               ", \"identical\": " + (l.identical ? "true" : "false") +
               ", \"metrics\": " + l.metrics + "}";
    }
    out += "], \"spans\": [";
    int base = 0;
    for (const Tracer &tr : tracers) {
        tr.appendJson(out, base);
        base += tr.size();
    }
    out += "]}\n";
    return writeFile(a.out, out) ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    if (a.cmd == "setup")
        return cmdSetup(a);
    if (a.cmd == "replay")
        return cmdReplay(a);
    if (a.cmd == "serve")
        return cmdServe(a);
    usage();
}
