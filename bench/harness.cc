#include "harness.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "common/log.hh"
#include "obs/telemetry.hh"
#include "sweep/fuzz.hh"

namespace sdv {
namespace bench {

namespace {

/** One recorded run for the --json trajectory. */
struct JsonRecord
{
    std::string workload;
    std::string config;
    Cycle cycles;
    std::uint64_t insts;
    double ipc;
    double wallSeconds;
    std::uint64_t valMismatches; ///< engine self-check; CI gates on 0
    std::string telemetry; ///< "[...]" under --telemetry, else empty
};

std::vector<JsonRecord> jsonRecords;

/** Set by parseArgs (--no-event-skip); applied to every run(). */
bool eventSkipEnabled = true;

/** Set by parseArgs (--no-trace); applied to every run(). */
bool traceEnabled = true;

/** Set by parseArgs (--eager-chain / --quiesce-interval). */
bool eagerChainEnabled = false;
std::uint64_t quiesceIntervalInsts = 0;

/** Set by parseArgs (--trace-events / --trace-filter / --trace-last /
 *  --telemetry); applied to every recorded run. */
std::string traceEventsPath;
unsigned traceFilterMask = obs::CatAll;
std::size_t traceLastEvents = 0;
std::uint64_t telemetryCycles = 0;

/** Recorders of every traced run, in record order (the trace file's
 *  source order — deterministic, since recorded runs are serial). */
std::vector<std::pair<std::shared_ptr<obs::TraceRecorder>, std::string>>
    traceRecorders;

} // namespace

namespace {

/**
 * --fuzz-speculation in any bench binary: run the speculation fuzz
 * campaign (every workload x N fuzzed samples, each against the
 * no-vectorization divergence oracle) with this bench's shared options
 * and exit — non-zero on any divergence, like a failed assertion. The
 * figure tables themselves are meaningless under fuzzed inputs, so the
 * campaign replaces the bench body rather than wrapping it.
 */
[[noreturn]] void
runFuzzAndExit(const Options &opt, unsigned samples,
               std::uint64_t seed)
{
    sweep::FuzzOptions fopt;
    fopt.samples = samples;
    fopt.baseSeed = seed;
    fopt.jobs = opt.jobs;
    fopt.scale = opt.scale;
    fopt.footprint = opt.footprint;
    fopt.quick = opt.quick;
    fopt.eventSkip = opt.eventSkip;

    std::printf("speculation fuzz campaign: %u samples per workload, "
                "seed %llu, %u thread(s)\n",
                fopt.samples, static_cast<unsigned long long>(seed),
                fopt.jobs);
    const sweep::FuzzReport rep = sweep::runFuzzCampaign(fopt);
    for (const sweep::FuzzOutcome &o : rep.outcomes)
        if (o.diverged)
            std::printf("  %s sample %u: DIVERGED (%s)\n",
                        o.c.workload.c_str(), o.c.sample,
                        o.reason.c_str());
    std::printf("fuzzed %zu samples: %u divergence(s)\n",
                rep.outcomes.size(), rep.divergences);
    if (rep.divergences && !rep.reproPath.empty())
        std::printf("minimized repro written to %s (re-run with "
                    "sdv_sweep --fuzz-replay)\n",
                    rep.reproPath.c_str());
    std::exit(rep.divergences ? 1 : 0);
}

} // namespace

Options
parseArgs(int argc, char **argv, bool json_supported)
{
    Options opt;
    bool fuzz = false;
    unsigned fuzz_samples = 8;
    std::uint64_t fuzz_seed = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--fuzz-speculation") == 0) {
            fuzz = true;
        } else if (std::strcmp(argv[i], "--fuzz-samples") == 0 &&
                   i + 1 < argc) {
            fuzz_samples = unsigned(std::atoi(argv[++i]));
            if (fuzz_samples == 0)
                fatal("--fuzz-samples must be >= 1");
        } else if (std::strcmp(argv[i], "--seed") == 0 &&
                   i + 1 < argc) {
            fuzz_seed = std::strtoull(argv[++i], nullptr, 0);
        } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
            opt.scale = unsigned(std::atoi(argv[++i]));
            if (opt.scale == 0)
                fatal("--scale ", argv[i], " is invalid: the scale is "
                      "a dynamic-length multiplier and must be >= 1");
        } else if (std::strcmp(argv[i], "--footprint") == 0 &&
                   i + 1 < argc) {
            opt.footprint = parseFootprint(argv[++i]);
        } else if (std::strcmp(argv[i], "--samples") == 0 &&
                   i + 1 < argc) {
            const int samples = std::atoi(argv[++i]);
            if (samples < 0)
                fatal("--samples ", argv[i], " is invalid: sample "
                      "count must be >= 0 (0 disables sampling)");
            opt.samples = unsigned(samples);
        } else if (std::strcmp(argv[i], "--sample-insts") == 0 &&
                   i + 1 < argc) {
            opt.sampleInsts = std::strtoull(argv[++i], nullptr, 0);
            if (opt.sampleInsts == 0)
                fatal("--sample-insts must be >= 1");
        } else if (std::strcmp(argv[i], "--quiesce-interval") == 0 &&
                   i + 1 < argc) {
            opt.quiesceInterval = std::strtoull(argv[++i], nullptr, 0);
        } else if (std::strcmp(argv[i], "--eager-chain") == 0) {
            opt.eagerChain = true;
        } else if (std::strcmp(argv[i], "--quick") == 0) {
            opt.quick = true;
        } else if (std::strcmp(argv[i], "--no-event-skip") == 0) {
            opt.eventSkip = false;
        } else if (std::strcmp(argv[i], "--no-trace") == 0) {
            opt.trace = false;
        } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
            opt.jobs = unsigned(std::atoi(argv[++i]));
            if (opt.jobs == 0) {
                opt.jobs = sweep::resolveJobs(0);
                opt.jobsAuto = true;
            }
        } else if (std::strcmp(argv[i], "--checkpoint") == 0) {
            opt.checkpoint = true;
        } else if (std::strcmp(argv[i], "--warmup") == 0 &&
                   i + 1 < argc) {
            opt.warmupInsts = std::strtoull(argv[++i], nullptr, 0);
            if (opt.warmupInsts == 0)
                opt.warmupInsts = 1;
        } else if (json_supported && std::strcmp(argv[i], "--json") == 0 &&
                   i + 1 < argc) {
            opt.jsonPath = argv[++i];
        } else if (std::strcmp(argv[i], "--trace-events") == 0 &&
                   i + 1 < argc) {
            opt.traceEventsPath = argv[++i];
        } else if (std::strcmp(argv[i], "--trace-filter") == 0 &&
                   i + 1 < argc) {
            if (!obs::parseCategoryMask(argv[++i], opt.traceFilter))
                fatal("--trace-filter: unknown category in '", argv[i],
                      "' (use a comma list of sdv, mem, core)");
        } else if (std::strcmp(argv[i], "--trace-last") == 0 &&
                   i + 1 < argc) {
            opt.traceLast =
                std::size_t(std::strtoull(argv[++i], nullptr, 0));
        } else if (std::strcmp(argv[i], "--telemetry") == 0 &&
                   i + 1 < argc) {
            opt.telemetryInterval =
                std::strtoull(argv[++i], nullptr, 0);
            if (opt.telemetryInterval == 0)
                fatal("--telemetry needs an interval >= 1 cycle");
        } else {
            std::fprintf(stderr,
                         "usage: %s [--scale N] [--footprint "
                         "base|l2|mem] [--quick] [--no-event-skip] "
                         "[--no-trace] "
                         "[--jobs N] [--checkpoint] [--warmup N] "
                         "[--samples N] [--sample-insts M] "
                         "[--quiesce-interval N] [--eager-chain] "
                         "[--trace-events F] [--trace-filter C] "
                         "[--trace-last N] [--telemetry N] "
                         "[--fuzz-speculation] [--fuzz-samples N] "
                         "[--seed N]%s\n",
                         argv[0],
                         json_supported ? " [--json PATH]" : "");
            std::exit(2);
        }
    }
    if (fuzz)
        runFuzzAndExit(opt, fuzz_samples, fuzz_seed);
    eventSkipEnabled = opt.eventSkip;
    traceEnabled = opt.trace;
    eagerChainEnabled = opt.eagerChain;
    quiesceIntervalInsts = opt.quiesceInterval;
    traceEventsPath = opt.traceEventsPath;
    traceFilterMask = opt.traceFilter;
    traceLastEvents = opt.traceLast;
    telemetryCycles = opt.telemetryInterval;
    detail::setQuiet(true);
    return opt;
}

void
banner(const std::string &title, const std::string &paper_line)
{
    std::printf(
        "==============================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("paper: %s\n", paper_line.c_str());
    std::printf(
        "==============================================================\n\n");
}

SimResult
run(const CoreConfig &cfg, const Program &prog)
{
    CoreConfig c = cfg;
    c.eventSkip = eventSkipEnabled;
    c.traceExec = traceEnabled;
    c.engine.eagerChainLoads = eagerChainEnabled;
    Simulator sim(c, prog);
    return sim.run(200'000'000, /*verify=*/false,
                   quiesceIntervalInsts);
}

SimResult
run(const CoreConfig &cfg, const Program &prog,
    const std::string &workload, const std::string &config_label)
{
    CoreConfig c = cfg;
    c.eventSkip = eventSkipEnabled;
    c.traceExec = traceEnabled;
    c.engine.eagerChainLoads = eagerChainEnabled;
    Simulator sim(c, prog);

    // Flight recorder + interval telemetry (pure observation; only
    // attached when the flags asked for them, so default runs take the
    // exact same path as before).
    std::shared_ptr<obs::TraceRecorder> rec;
    if (!traceEventsPath.empty()) {
        rec = std::make_shared<obs::TraceRecorder>();
        rec->configure(traceFilterMask, traceLastEvents);
        sim.setRecorder(rec.get());
    }
    obs::IntervalTelemetry telemetry(telemetryCycles ? telemetryCycles
                                                     : 1);
    if (telemetryCycles)
        sim.setTelemetry(&telemetry);

    const auto t0 = std::chrono::steady_clock::now();
    SimResult r =
        sim.run(200'000'000, /*verify=*/false, quiesceIntervalInsts);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    if (rec)
        traceRecorders.emplace_back(rec,
                                    workload + "/" + config_label);
    jsonRecords.push_back({workload, config_label, r.cycles, r.insts,
                           r.ipc, wall,
                           r.engine.validationValueMismatches,
                           telemetryCycles ? telemetry.toJson()
                                           : std::string()});
    return r;
}

void
writeJson(const Options &opt, const std::string &bench_name)
{
    // Flush the flight-recorder trace first: it is requested by its
    // own flag and must appear even without --json.
    if (!opt.traceEventsPath.empty()) {
        std::vector<obs::TraceSource> sources;
        sources.reserve(traceRecorders.size());
        for (const auto &[rec, label] : traceRecorders)
            sources.push_back({rec.get(), label});
        if (!obs::writeTraceFile(opt.traceEventsPath, sources))
            fatal("cannot write --trace-events path ",
                  opt.traceEventsPath);
        std::size_t recorded = 0;
        for (const obs::TraceSource &s : sources)
            recorded += s.recorder->size();
        std::printf("trace: %zu events from %zu runs written to %s\n",
                    recorded, sources.size(),
                    opt.traceEventsPath.c_str());
    }

    if (opt.jsonPath.empty())
        return;
    FILE *f = std::fopen(opt.jsonPath.c_str(), "w");
    if (!f)
        fatal("cannot open --json path ", opt.jsonPath);
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < jsonRecords.size(); ++i) {
        const JsonRecord &r = jsonRecords[i];
        const double mips =
            r.wallSeconds > 0.0
                ? double(r.insts) / r.wallSeconds / 1e6
                : 0.0;
        std::fprintf(
            f,
            "  {\"bench\": \"%s\", \"workload\": \"%s\", "
            "\"config\": \"%s\", \"cycles\": %llu, \"insts\": %llu, "
            "\"ipc\": %.4f, \"wall_seconds\": %.6f, "
            "\"sim_mips\": %.3f, \"val_mismatches\": %llu",
            bench_name.c_str(), r.workload.c_str(), r.config.c_str(),
            static_cast<unsigned long long>(r.cycles),
            static_cast<unsigned long long>(r.insts), r.ipc,
            r.wallSeconds, mips,
            static_cast<unsigned long long>(r.valMismatches));
        // Telemetry rides along only under --telemetry: the default
        // record layout stays byte-identical to the baselines.
        if (!r.telemetry.empty() && r.telemetry != "[]")
            std::fprintf(f, ", \"telemetry\": %s",
                         r.telemetry.c_str());
        std::fprintf(f, "}%s\n",
                     i + 1 < jsonRecords.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
}

SuiteTable::SuiteTable(std::vector<std::string> columns)
    : columns_(std::move(columns))
{
}

void
SuiteTable::add(const std::string &name, bool is_fp,
                const std::vector<double> &values)
{
    sdv_assert(values.size() == columns_.size(), "row/column mismatch");
    rows_.push_back({name, is_fp, values});
}

double
SuiteTable::intAvg(size_t col) const
{
    double sum = 0;
    unsigned n = 0;
    for (const Row &r : rows_)
        if (!r.isFp) {
            sum += r.values[col];
            ++n;
        }
    return n ? sum / n : 0.0;
}

double
SuiteTable::fpAvg(size_t col) const
{
    double sum = 0;
    unsigned n = 0;
    for (const Row &r : rows_)
        if (r.isFp) {
            sum += r.values[col];
            ++n;
        }
    return n ? sum / n : 0.0;
}

double
SuiteTable::totalAvg(size_t col) const
{
    double sum = 0;
    for (const Row &r : rows_)
        sum += r.values[col];
    return rows_.empty() ? 0.0 : sum / double(rows_.size());
}

std::string
SuiteTable::render(const std::string &title, bool percent,
                   int precision) const
{
    TextTable t(title);
    std::vector<std::string> header = {"benchmark"};
    for (const auto &c : columns_)
        header.push_back(c);
    t.setHeader(header);

    auto add_row = [&](const std::string &name,
                       const std::vector<double> &vals) {
        if (percent)
            t.addPercentRow(name, vals, precision);
        else
            t.addRow(name, vals, precision);
    };

    bool fp_started = false;
    for (const Row &r : rows_) {
        if (r.isFp && !fp_started) {
            // INT average row before the FP block, as in the figures.
            std::vector<double> avgs;
            for (size_t c = 0; c < columns_.size(); ++c)
                avgs.push_back(intAvg(c));
            add_row("INT", avgs);
            t.addSeparator();
            fp_started = true;
        }
        add_row(r.name, r.values);
    }
    std::vector<double> fp_avgs, total_avgs;
    for (size_t c = 0; c < columns_.size(); ++c) {
        fp_avgs.push_back(fpAvg(c));
        total_avgs.push_back(totalAvg(c));
    }
    if (fp_started)
        add_row("FP", fp_avgs);
    t.addSeparator();
    add_row("Spec95", total_avgs);
    return t.render();
}

std::vector<sweep::RunOutcome>
runGrid(const Options &opt, const std::string &plan_name)
{
    sweep::PlanOptions popt;
    popt.scale = opt.scale;
    popt.footprint = opt.footprint;
    popt.quick = opt.quick;
    const sweep::SweepPlan plan = sweep::buildPlan(plan_name, popt);

    sweep::ExecOptions eopt;
    eopt.jobs = opt.jobs;
    eopt.jobsAutoDetected = opt.jobsAuto;
    eopt.eventSkip = opt.eventSkip;
    eopt.trace = opt.trace;
    eopt.checkpoint = opt.checkpoint;
    eopt.warmupInsts = opt.warmupInsts;
    eopt.sample.samples = opt.samples;
    eopt.sample.measureInsts = opt.sampleInsts;
    eopt.quiesceInterval = opt.quiesceInterval;
    eopt.eagerChain = opt.eagerChain;
    eopt.traceEvents = !opt.traceEventsPath.empty();
    eopt.traceCategories = opt.traceFilter;
    eopt.traceLast = opt.traceLast;
    eopt.telemetryInterval = opt.telemetryInterval;

    std::vector<sweep::RunOutcome> outcomes =
        sweep::runPlan(plan, eopt);

    // Record for writeJson(), each run with its own job's host time as
    // the executor measured it. Under --jobs > 1 the jobs overlap, so
    // the records' sum is busy time, not the grid's elapsed wall.
    for (const sweep::RunOutcome &o : outcomes) {
        jsonRecords.push_back(
            {o.workload, o.configKey, o.res.cycles, o.res.insts,
             o.res.ipc, o.wallSeconds,
             o.res.engine.validationValueMismatches, o.telemetryJson});
        if (o.trace)
            traceRecorders.emplace_back(
                o.trace, o.workload + "/" + o.configKey);
    }
    return outcomes;
}

SuiteTable
pivotTable(const std::vector<sweep::RunOutcome> &outcomes,
           const std::string &group,
           const std::function<double(const sweep::RunOutcome &)> &metric)
{
    std::vector<std::string> cols;
    for (const sweep::RunOutcome &o : outcomes) {
        if (!group.empty() && o.group != group)
            continue;
        if (o.workload != outcomes.front().workload)
            break;
        cols.push_back(o.column);
    }
    SuiteTable table(cols);

    std::string current;
    bool is_fp = false;
    std::vector<double> row;
    auto flush = [&]() {
        if (!current.empty())
            table.add(current, is_fp, row);
        row.clear();
    };
    for (const sweep::RunOutcome &o : outcomes) {
        if (!group.empty() && o.group != group)
            continue;
        if (o.workload != current) {
            flush();
            current = o.workload;
            is_fp = o.isFp;
        }
        row.push_back(metric(o));
    }
    flush();
    return table;
}

void
forEachWorkload(
    const Options &opt,
    const std::function<void(const Workload &, const Program &)> &fn)
{
    unsigned ints_done = 0, fps_done = 0;
    for (const Workload &w : allWorkloads()) {
        if (opt.quick) {
            if (!w.isFp && ints_done >= 2)
                continue;
            if (w.isFp && fps_done >= 1)
                continue;
        }
        const Program prog = w.instantiate(opt.scale, opt.footprint);
        fn(w, prog);
        (w.isFp ? fps_done : ints_done) += 1;
    }
}

} // namespace bench
} // namespace sdv
