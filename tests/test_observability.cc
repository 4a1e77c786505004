/**
 * @file
 * Tests of the observability layer: attaching the flight recorder and
 * interval telemetry must not perturb simulation (bit-identity on
 * every tier-1 workload, statistics and commit hashes included), trace
 * serialization must be deterministic across executor schedules, the
 * ring bound must hold, and the telemetry interval sums must equal the
 * end-of-run aggregates exactly. Plus unit coverage for the shared
 * Histogram quantile/JSON helpers the trace reports are built on.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/histogram.hh"
#include "obs/hooks.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "sim/simulator.hh"
#include "sweep/executor.hh"
#include "sweep/plan.hh"
#include "workloads/workload.hh"

#include "test_support.hh"

namespace sdv {
namespace {

// --- observation does not perturb simulation -------------------------------

TEST(Observability, InstrumentedRunIsBitIdenticalOnEveryWorkload)
{
    for (const Workload &w : allWorkloads()) {
        const Program &prog = keep(w.instantiate(1));
        const CoreConfig cfg = makeConfig(4, 1, BusMode::WideBusSdv);

        Simulator plain(cfg, prog);
        const SimResult ra = plain.run(50'000'000, /*verify=*/true);

        Simulator instrumented(cfg, prog);
        obs::TraceRecorder rec;
        rec.configure(obs::CatAll, /*ring_capacity=*/0);
        obs::IntervalTelemetry telemetry(1024);
        instrumented.setRecorder(&rec);
        instrumented.setTelemetry(&telemetry);
        const SimResult rb = instrumented.run(50'000'000, /*verify=*/true);

        ASSERT_TRUE(ra.finished) << w.name;
        // Observation must not perturb any listed field.
        EXPECT_EQ(statsDiff(ra, rb), std::vector<std::string>{}) << w.name;
        EXPECT_EQ(plain.core().commitPcHash(),
                  instrumented.core().commitPcHash())
            << w.name;
#if SDV_OBS_ENABLED
        // The SDV configs exercise the chain lifecycle on every
        // workload, so an instrumented run must actually observe it.
        EXPECT_GT(rec.recorded(), 0u) << w.name;
        EXPECT_EQ(rec.dropped(), 0u) << w.name;
        EXPECT_FALSE(telemetry.samples().empty()) << w.name;
#endif
    }
}

#if SDV_OBS_ENABLED

// --- recorder semantics ----------------------------------------------------

TEST(Observability, RingCapacityBoundsRetainedEvents)
{
    const Program &prog = keep(buildWorkload("swim", 1));
    Simulator sim(makeConfig(4, 1, BusMode::WideBusSdv), prog);
    obs::TraceRecorder rec;
    rec.configure(obs::CatAll, /*ring_capacity=*/256);
    sim.setRecorder(&rec);
    ASSERT_TRUE(sim.run(50'000'000, /*verify=*/false).finished);

    EXPECT_LE(rec.size(), 256u);
    EXPECT_GT(rec.dropped(), 0u);
    EXPECT_EQ(rec.recorded(), rec.dropped() + rec.size());

    // The ring still yields events oldest-first.
    Cycle last = 0;
    rec.forEach([&](const obs::TraceEvent &ev) {
        EXPECT_GE(ev.cycle, last);
        last = ev.cycle;
    });
}

TEST(Observability, CategoryMaskFiltersAtRecordTime)
{
    const Program &prog = keep(buildWorkload("compress", 1));
    const CoreConfig cfg = makeConfig(4, 1, BusMode::WideBusSdv);

    obs::TraceRecorder all;
    all.configure(obs::CatAll, 0);
    {
        Simulator sim(cfg, prog);
        sim.setRecorder(&all);
        ASSERT_TRUE(sim.run(50'000'000, false).finished);
    }
    obs::TraceRecorder mem;
    mem.configure(obs::CatMem, 0);
    {
        Simulator sim(cfg, prog);
        sim.setRecorder(&mem);
        ASSERT_TRUE(sim.run(50'000'000, false).finished);
    }
    EXPECT_GT(mem.recorded(), 0u);
    EXPECT_LT(mem.recorded(), all.recorded());
    mem.forEach([](const obs::TraceEvent &ev) {
        EXPECT_EQ(obs::eventCategory(ev.kind), obs::CatMem);
    });
}

TEST(Observability, ParseCategoryMask)
{
    unsigned mask = 0;
    EXPECT_TRUE(obs::parseCategoryMask("sdv", mask));
    EXPECT_EQ(mask, obs::CatSdv);
    EXPECT_TRUE(obs::parseCategoryMask("sdv,mem,core", mask));
    EXPECT_EQ(mask, obs::CatAll);
    EXPECT_TRUE(obs::parseCategoryMask("all", mask));
    EXPECT_EQ(mask, obs::CatAll);
    EXPECT_FALSE(obs::parseCategoryMask("cache", mask));
    EXPECT_FALSE(obs::parseCategoryMask("", mask));
}

// --- trace serialization determinism ---------------------------------------

TEST(Observability, TraceFileIsDeterministicAcrossExecutorSchedules)
{
    sweep::PlanOptions popt;
    popt.quick = true;
    const sweep::SweepPlan plan = sweep::buildPlan("fig11", popt);

    auto run_with_jobs = [&](unsigned jobs) {
        sweep::ExecOptions opt;
        opt.jobs = jobs;
        opt.verify = false;
        opt.traceEvents = true;
        opt.telemetryInterval = 2048;
        return sweep::runPlan(plan, opt);
    };
    const auto serial = run_with_jobs(1);
    const auto parallel = run_with_jobs(3);
    ASSERT_EQ(serial.size(), plan.jobs.size());

    // Results (telemetry riders included) and the serialized trace
    // must be byte-identical regardless of worker scheduling.
    EXPECT_EQ(sweep::resultsJson(serial), sweep::resultsJson(parallel));
    const std::string ta =
        obs::traceFileJson(sweep::traceSources(serial));
    const std::string tb =
        obs::traceFileJson(sweep::traceSources(parallel));
    EXPECT_EQ(ta, tb);
    EXPECT_NE(ta.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(ta.find("\"chain_lifetime_hist\""), std::string::npos);
}

// --- interval telemetry exactness ------------------------------------------

TEST(Observability, TelemetrySumsEqualAggregatesExactly)
{
    for (const char *name : {"m88ksim", "swim"}) {
        SCOPED_TRACE(name);
        const Program &prog = keep(buildWorkload(name, 1));
        Simulator sim(makeConfig(4, 1, BusMode::WideBusSdv), prog);
        obs::IntervalTelemetry telemetry(1000);
        sim.setTelemetry(&telemetry);
        const SimResult r = sim.run(50'000'000, /*verify=*/false);
        ASSERT_TRUE(r.finished);

        const auto &samples = telemetry.samples();
        ASSERT_FALSE(samples.empty());

        // Samples tile [0, cycles] with no gaps or overlaps ...
        EXPECT_EQ(samples.front().startCycle, 0u);
        EXPECT_EQ(samples.back().endCycle, r.cycles);
        for (std::size_t i = 1; i < samples.size(); ++i)
            EXPECT_EQ(samples[i].startCycle, samples[i - 1].endCycle);

        // ... and the per-interval deltas sum to the aggregates.
        std::uint64_t insts = 0, cycles = 0, stalls = 0, val_waits = 0,
                      validations = 0, fallbacks = 0;
        for (const obs::TelemetrySample &s : samples) {
            insts += s.insts;
            cycles += s.cycles();
            stalls += s.fetchStallCycles;
            val_waits += s.fetchStallValWaitCycles;
            validations += s.validations;
            fallbacks += s.valFallbacks;
        }
        EXPECT_EQ(insts, r.insts);
        EXPECT_EQ(cycles, r.cycles);
        EXPECT_EQ(stalls, r.core.fetchStallCycles);
        EXPECT_EQ(val_waits, r.core.fetchStallValWaitCycles);
        EXPECT_EQ(validations, r.core.committedValidations);
        EXPECT_EQ(fallbacks, r.engine.lateValidationFallbacks);
    }
}

#endif // SDV_OBS_ENABLED

// --- histogram helpers -----------------------------------------------------

TEST(Histogram, QuantilesWalkTheCumulativeDistribution)
{
    Histogram h(8);
    EXPECT_EQ(h.quantile(0.5), -1); // empty

    h.sample(1, 10);
    h.sample(3, 30);
    h.sample(6, 60);
    EXPECT_EQ(h.quantile(0.0), 1);
    EXPECT_EQ(h.quantile(0.10), 1);
    EXPECT_EQ(h.quantile(0.25), 3);
    EXPECT_EQ(h.quantile(0.40), 3);
    EXPECT_EQ(h.quantile(0.41), 6);
    EXPECT_EQ(h.quantile(1.0), 6);

    h.sample(100);  // overflow bucket
    h.sample(-5);   // underflow bucket
    EXPECT_EQ(h.quantile(1.0), 8);  // numBuckets() == overflow
    EXPECT_EQ(h.quantile(0.0), -1); // underflow
    EXPECT_EQ(h.total(), 102u);
}

TEST(Histogram, JsonAndMergeUseTheSharedShape)
{
    Histogram h(3);
    h.sample(0, 2);
    h.sample(2, 1);
    h.sample(9, 4);
    EXPECT_EQ(h.toJson(),
              "{\"buckets\":[2, 0, 1],\"underflow\":0,\"overflow\":4,"
              "\"total\":7}");

    Histogram other(3);
    other.sample(1, 5);
    other.sample(-1, 3);
    h.merge(other);
    EXPECT_EQ(h.bucket(1), 5u);
    EXPECT_EQ(h.underflow(), 3u);
    EXPECT_EQ(h.total(), 15u);

    const std::uint64_t raw[4] = {1, 2, 3, 4};
    EXPECT_EQ(bucketArrayJson(raw, 4), "[1, 2, 3, 4]");
}

} // namespace
} // namespace sdv
