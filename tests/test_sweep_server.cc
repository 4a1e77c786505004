/**
 * @file
 * Tests of the sweep work-server: served record streams are
 * byte-identical to the in-process executor (concurrently, from many
 * clients), the snapshot cache single-flights concurrent captures,
 * crashed workers are respawned and their units retried without
 * perturbing results, malformed requests are rejected without taking
 * the daemon down, requests for observability sinks are refused by the
 * client, and the satellite pieces (atomic checkpoint save,
 * missing-vs-corrupt load verdicts, --jobs auto-detection).
 *
 * The daemon runs in-process (SweepServer on a background thread); the
 * worker pool is the real sdv_sweep binary (SDV_SWEEP_BIN, injected by
 * CMake), spawned as `--worker` exactly as in production.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/serialize.hh"
#include "sweep/checkpoint.hh"
#include "sweep/client.hh"
#include "sweep/executor.hh"
#include "sweep/plan.hh"
#include "sweep/proto.hh"
#include "sweep/server.hh"
#include "sweep/snapshot_cache.hh"

#include "test_support.hh"

namespace sdv {
namespace {

/** One in-process daemon over a fresh temp directory. */
class ServerFixture
{
  public:
    explicit ServerFixture(unsigned workers)
    {
        char tmpl[] = "/tmp/sdvsrvXXXXXX";
        const char *dir = ::mkdtemp(tmpl);
        EXPECT_NE(dir, nullptr);
        dir_ = dir;
        sweep::SweepServer::Options opt;
        opt.socketPath = dir_ + "/sock";
        opt.cacheDir = dir_ + "/cache";
        opt.workerExe = SDV_SWEEP_BIN;
        opt.workers = workers;
        server_ = std::make_unique<sweep::SweepServer>(opt);
        std::string err;
        started_ = server_->start(&err);
        EXPECT_TRUE(started_) << err;
        if (started_)
            thread_ = std::thread([this] { server_->run(); });
    }

    ~ServerFixture()
    {
        if (started_) {
            server_->stop();
            thread_.join();
        }
        const std::string cmd = "rm -rf " + dir_;
        [[maybe_unused]] const int rc = std::system(cmd.c_str());
    }

    std::string socketPath() const { return dir_ + "/sock"; }

  private:
    std::string dir_;
    std::unique_ptr<sweep::SweepServer> server_;
    std::thread thread_;
    bool started_ = false;
};

/** The reference: what the in-process executor serializes for @p req
 *  (the serial path every served stream must match byte for byte). */
std::string
serialResults(const sweep::proto::SweepRequest &req)
{
    const sweep::SweepPlan plan = sweep::buildPlan(req.plan, req.popt);
    sweep::ExecOptions eopt = req.eopt;
    eopt.jobs = 1;
    return sweep::resultsJson(sweep::runPlan(plan, eopt, nullptr));
}

/** A small sampled fig11 request (sampling keeps per-unit work tiny;
 *  the grid still exercises multi-workload capture + collation). */
sweep::proto::SweepRequest
sampledRequest()
{
    sweep::proto::SweepRequest req;
    req.plan = "fig11";
    req.popt.quick = true;
    req.eopt.sample.samples = 3;
    req.eopt.sample.measureInsts = 2'000;
    req.eopt.warmupInsts = 5'000;
    return req;
}

/** Extract `"key": <number>` from a metrics JSON string. */
long long
metricsField(const std::string &json, const std::string &key)
{
    const std::string needle = "\"" + key + "\": ";
    const std::size_t pos = json.find(needle);
    if (pos == std::string::npos)
        return -1;
    return std::atoll(json.c_str() + pos + needle.size());
}

/** Submit @p req and expect the serial stream byte for byte, plus the
 *  serial capture counts (every request here misses the cache). */
void
expectServedMatchesSerial(const ServerFixture &srv,
                          const sweep::proto::SweepRequest &req)
{
    const sweep::SweepPlan plan = sweep::buildPlan(req.plan, req.popt);
    sweep::ExecOptions eopt = req.eopt;
    eopt.jobs = 1;
    sweep::ExecMetrics serial;
    const std::string expect =
        sweep::resultsJson(sweep::runPlan(plan, eopt, &serial));

    sweep::ClientResult res;
    std::string err;
    ASSERT_TRUE(sweep::submitSweep(srv.socketPath(), req, res, &err))
        << err;
    EXPECT_EQ(expect, res.resultsArray());
    EXPECT_EQ(metricsField(res.metricsJson, "checkpoint_captures"),
              (long long)serial.checkpointCaptures)
        << res.metricsJson;
    EXPECT_EQ(metricsField(res.metricsJson, "checkpoint_capture_bytes"),
              (long long)serial.checkpointCaptureBytes)
        << res.metricsJson;
}

TEST(SweepServer, ServedStreamMatchesSerialByteForByte)
{
    ServerFixture srv(2);
    const sweep::proto::SweepRequest req = sampledRequest();
    expectServedMatchesSerial(srv, req);

    // Checkpoint mode takes the one-boundary cache path.
    sweep::proto::SweepRequest ck = req;
    ck.eopt.sample = sweep::SamplePlan{};
    ck.eopt.checkpoint = true;
    ck.eopt.warmupInsts = 5'000;
    expectServedMatchesSerial(srv, ck);

    // Mixed fallbacks: go is too short to sample, and the conf1/conf3
    // columns' TL geometry cannot restore the snapshots.
    sweep::proto::SweepRequest mixed;
    mixed.plan = "ablation";
    mixed.popt.quick = true;
    mixed.eopt.sample.samples = 3;
    mixed.eopt.sample.measureInsts = 5'000;
    mixed.eopt.warmupInsts = 100'000;
    expectServedMatchesSerial(srv, mixed);

    // Full runs with per-job fault injection.
    sweep::proto::SweepRequest fault;
    fault.plan = "fig13";
    fault.popt.quick = true;
    fault.eopt.fault.enabled = true;
    fault.eopt.fault.elemFlipPpm = 2'000;
    expectServedMatchesSerial(srv, fault);

    // Full runs with periodic quiesces and eager chaining.
    sweep::proto::SweepRequest quiesce;
    quiesce.plan = "fig13";
    quiesce.popt.quick = true;
    quiesce.eopt.quiesceInterval = 10'000;
    quiesce.eopt.eagerChain = true;
    expectServedMatchesSerial(srv, quiesce);
}

TEST(SweepServer, ObservabilityRequestsAreRejectedClientSide)
{
    // The wire carries no observability sinks, so a served request
    // asking for them would silently come back without them.
    ServerFixture srv(1);
    sweep::proto::SweepRequest req = sampledRequest();
    req.eopt.sample = sweep::SamplePlan{};
    req.eopt.telemetryInterval = 50'000;
    sweep::ClientResult res;
    std::string err;
    EXPECT_EQ(sweep::submitSweepOnce(srv.socketPath(), req, 1, res, &err),
              sweep::SubmitStatus::Rejected);
    EXPECT_NE(err.find("--telemetry"), std::string::npos) << err;

    req.eopt.telemetryInterval = 0;
    req.eopt.traceEvents = true;
    EXPECT_EQ(sweep::submitSweepOnce(srv.socketPath(), req, 1, res, &err),
              sweep::SubmitStatus::Rejected);
    EXPECT_NE(err.find("--trace-events"), std::string::npos) << err;

    // Nothing reached the daemon.
    sweep::proto::ServerStats stats;
    ASSERT_TRUE(sweep::queryStats(srv.socketPath(), stats, &err)) << err;
    EXPECT_EQ(stats.unitsEnqueued, 0u);
    EXPECT_EQ(stats.requestsFailed, 0u);
}

TEST(SweepServer, ConcurrentClientsAreDeterministicAndShareCaptures)
{
    ServerFixture srv(2);
    const sweep::proto::SweepRequest req = sampledRequest();
    const std::string expect = serialResults(req);

    constexpr int kClients = 3;
    std::vector<sweep::ClientResult> results(kClients);
    std::vector<std::string> errs(kClients);
    std::vector<char> ok(kClients, 0);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
        clients.emplace_back([&, c] {
            ok[c] = sweep::submitSweep(srv.socketPath(), req,
                                       results[c], &errs[c]);
        });
    for (auto &t : clients)
        t.join();

    const sweep::SweepPlan plan = sweep::buildPlan(req.plan, req.popt);
    std::size_t workloads = 0;
    {
        std::string last;
        for (const sweep::SweepJob &j : plan.jobs)
            if (j.workload != last) {
                ++workloads;
                last = j.workload;
            }
    }

    std::uint64_t hits = 0, misses = 0, waits = 0;
    for (int c = 0; c < kClients; ++c) {
        ASSERT_TRUE(ok[c]) << errs[c];
        EXPECT_EQ(expect, results[c].resultsArray()) << "client " << c;
        hits += results[c].cacheHits;
        misses += results[c].cacheMisses;
        const long long w =
            metricsField(results[c].metricsJson, "cache_waits");
        ASSERT_GE(w, 0) << results[c].metricsJson;
        waits += std::uint64_t(w);
    }
    // Single-flight: every workload's capture pass ran exactly once
    // across all three clients; everyone else hit or waited.
    EXPECT_EQ(misses, workloads);
    EXPECT_EQ(hits + waits, (kClients - 1) * workloads);
}

TEST(SweepServer, WorkerCrashesAreRetriedWithoutChangingResults)
{
    ServerFixture srv(2);
    sweep::proto::SweepRequest req = sampledRequest();
    req.chaos.exitUnits = 2; // first two units each kill their worker

    sweep::ClientResult res;
    std::string err;
    ASSERT_TRUE(sweep::submitSweep(srv.socketPath(), req, res, &err))
        << err;
    EXPECT_EQ(serialResults(req), res.resultsArray());
    EXPECT_GE(metricsField(res.metricsJson, "unit_retries"), 2);
    EXPECT_GE(metricsField(res.metricsJson, "worker_restarts"), 2);
}

TEST(SweepServer, MalformedRequestsAreRejectedWithoutKillingDaemon)
{
    ServerFixture srv(1);
    std::string err;

    // Unknown plan.
    sweep::proto::SweepRequest bad = sampledRequest();
    bad.plan = "no_such_plan";
    sweep::ClientResult res;
    EXPECT_FALSE(sweep::submitSweep(srv.socketPath(), bad, res, &err));
    EXPECT_NE(err.find("unknown plan"), std::string::npos) << err;

    // Sampling + verify (the in-process path asserts; the daemon must
    // reject instead).
    sweep::proto::SweepRequest conflict = sampledRequest();
    conflict.eopt.verify = true;
    EXPECT_FALSE(
        sweep::submitSweep(srv.socketPath(), conflict, res, &err));
    EXPECT_NE(err.find("--verify"), std::string::npos) << err;

    // A garbage frame (unsealed payload) on a fresh connection.
    {
        const int fd =
            sweep::proto::connectUnix(srv.socketPath(), &err);
        ASSERT_GE(fd, 0) << err;
        sweep::proto::Framed link(fd);
        std::vector<std::uint8_t> junk = {0xde, 0xad, 0xbe, 0xef};
        link.send(sweep::proto::MsgType::Submit, junk);
    }

    // The daemon survived all of it and still serves.
    const sweep::proto::SweepRequest good = sampledRequest();
    ASSERT_TRUE(sweep::submitSweep(srv.socketPath(), good, res, &err))
        << err;
    EXPECT_EQ(serialResults(good), res.resultsArray());
}

TEST(SweepCheckpoint, LoadDistinguishesMissingFromCorrupt)
{
    char tmpl[] = "/tmp/sdvckXXXXXX";
    const char *dir = ::mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);
    const std::string missing = std::string(dir) + "/absent.ckpt";
    const std::string corrupt = std::string(dir) + "/corrupt.ckpt";

    std::vector<std::uint8_t> bytes;
    EXPECT_EQ(sweep::Checkpoint::LoadStatus::Missing,
              sweep::Checkpoint::load(missing, bytes));

    std::FILE *f = std::fopen(corrupt.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a checkpoint", f);
    std::fclose(f);
    EXPECT_EQ(sweep::Checkpoint::LoadStatus::Corrupt,
              sweep::Checkpoint::load(corrupt, bytes));

    // Round-trip through the atomic save path: the payload comes back
    // verbatim and no temp file is left beside it.
    const std::string saved = std::string(dir) + "/saved.ckpt";
    std::vector<std::uint8_t> payload;
    {
        Serializer ser;
        ser.str("atomic-save probe");
        payload = ser.finish();
    }
    ASSERT_TRUE(sweep::Checkpoint::save(saved, payload));
    std::vector<std::uint8_t> loaded;
    EXPECT_EQ(sweep::Checkpoint::LoadStatus::Ok,
              sweep::Checkpoint::load(saved, loaded));
    EXPECT_EQ(payload, loaded);
    const std::string lscmd =
        "ls " + std::string(dir) + " | grep -c tmp";
    std::FILE *ls = ::popen(lscmd.c_str(), "r");
    ASSERT_NE(ls, nullptr);
    char buf[16] = {0};
    ASSERT_NE(std::fgets(buf, sizeof(buf), ls), nullptr);
    ::pclose(ls);
    EXPECT_EQ(0, std::atoi(buf)); // no *.tmp.* litter
    const std::string cleanup = "rm -rf " + std::string(dir);
    [[maybe_unused]] const int rc = std::system(cleanup.c_str());
}

TEST(SweepCheckpoint, OlderFormatVersionIsStaleNotCorrupt)
{
    // Files sealed by format version 1 (FNV-1a trailer) fail today's
    // checksum; the header is read first, so they load as Stale and
    // the snapshot cache recaptures them without a corruption warning.
    char tmpl[] = "/tmp/sdvverXXXXXX";
    const char *dir = ::mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);
    sweep::SnapshotCache cache(dir);
    const std::string path = cache.pathFor("old-key");

    sweep::SnapshotSet set;
    set.captured = false;
    set.set.samples.resize(1);
    ASSERT_TRUE(sweep::saveSnapshotSet(path, set));
    std::vector<std::uint8_t> current;
    ASSERT_EQ(sweep::Checkpoint::LoadStatus::Ok,
              sweep::loadSnapshotSet(path, set));
    ASSERT_EQ(sweep::Checkpoint::LoadStatus::Ok,
              sweep::Checkpoint::load(path, current));
    ASSERT_TRUE(sweep::Checkpoint::save(path, asFormatVersion1(current)));
    EXPECT_EQ(sweep::Checkpoint::LoadStatus::Stale,
              sweep::loadSnapshotSet(path, set));

    // A damaged current-version file is still corrupt.
    std::vector<std::uint8_t> damaged = current;
    damaged[damaged.size() / 2] ^= 0x10;
    ASSERT_TRUE(sweep::Checkpoint::save(path + ".bad", damaged));
    EXPECT_EQ(sweep::Checkpoint::LoadStatus::Corrupt,
              sweep::loadSnapshotSet(path + ".bad", set));

    int captures = 0;
    auto capture = [&](const std::string &p, std::string *) {
        ++captures;
        sweep::SnapshotSet s;
        s.set.samples.resize(1);
        return sweep::saveSnapshotSet(p, s);
    };
    testing::internal::CaptureStderr();
    std::string err;
    EXPECT_NE(nullptr, cache.acquire("old-key", capture, &err)) << err;
    const std::string warnings = testing::internal::GetCapturedStderr();
    EXPECT_EQ(1, captures);
    EXPECT_EQ(1u, cache.stats().misses);
    EXPECT_EQ(warnings.find("corrupt"), std::string::npos) << warnings;
    EXPECT_EQ(sweep::Checkpoint::LoadStatus::Ok,
              sweep::loadSnapshotSet(path, set));
    const std::string cleanup = "rm -rf " + std::string(dir);
    [[maybe_unused]] const int rc = std::system(cleanup.c_str());
}

TEST(SweepExecutor, ResolveJobsAutoDetects)
{
    EXPECT_EQ(5u, sweep::resolveJobs(5));
    EXPECT_EQ(1u, sweep::resolveJobs(1));
    const unsigned resolved = sweep::resolveJobs(0);
    EXPECT_GE(resolved, 1u);
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw > 1)
        EXPECT_EQ(hw - 1, resolved);
}

TEST(SnapshotCacheUnit, SingleFlightDedupesConcurrentAcquires)
{
    char tmpl[] = "/tmp/sdvsfXXXXXX";
    const char *dir = ::mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);
    sweep::SnapshotCache cache(dir);

    std::atomic<int> captures{0};
    auto capture = [&](const std::string &path, std::string *) {
        ++captures;
        // Simulate a slow warm-up so every other thread piles up on
        // the in-flight entry.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        sweep::SnapshotSet s;
        s.captured = false; // negative result is cacheable too
        s.set.samples.resize(1);
        return sweep::saveSnapshotSet(path, s);
    };

    constexpr int kThreads = 8;
    std::atomic<int> okCount{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i)
        threads.emplace_back([&] {
            std::string err;
            if (cache.acquire("one-key", capture, &err))
                ++okCount;
        });
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(1, captures.load());
    EXPECT_EQ(kThreads, okCount.load());
    const auto stats = cache.stats();
    EXPECT_EQ(1u, stats.misses);
    EXPECT_EQ(stats.hits + stats.waits, unsigned(kThreads - 1));
    const std::string cleanup = "rm -rf " + std::string(dir);
    [[maybe_unused]] const int rc = std::system(cleanup.c_str());
}

} // namespace
} // namespace sdv
