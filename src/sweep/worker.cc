#include "sweep/worker.hh"

#include <atomic>
#include <csignal>
#include <map>
#include <mutex>
#include <thread>

#include <unistd.h>

#include "common/log.hh"
#include "sweep/proto.hh"
#include "sweep/snapshot_cache.hh"
#include "workloads/workload.hh"

namespace sdv {
namespace sweep {

namespace {

/** Per-worker memoization: requests of one grid reuse the built plan,
 *  the pre-decoded programs and the loaded snapshot sets across all
 *  the units this worker runs. */
struct WorkerCaches
{
    std::map<std::string, SweepPlan> plans;
    std::map<std::string, Program> programs;
    std::map<std::string, SnapshotSet> sets;

    const SweepPlan &
    plan(const proto::SweepRequest &req)
    {
        const std::string key =
            req.plan + "|" + std::to_string(req.popt.scale) + "|" +
            footprintName(req.popt.footprint) + "|" +
            (req.popt.quick ? "q" : "f") + "|" +
            std::to_string(req.popt.baseSeed);
        auto it = plans.find(key);
        if (it == plans.end())
            it = plans.emplace(key, buildPlan(req.plan, req.popt))
                     .first;
        return it->second;
    }

    const Program &
    program(const std::string &workload, const PlanOptions &popt)
    {
        const std::string key = workload + "|" +
                                std::to_string(popt.scale) + "|" +
                                footprintName(popt.footprint);
        auto it = programs.find(key);
        if (it == programs.end())
            it = programs
                     .emplace(key, loadProgram(workload, popt.scale,
                                               popt.footprint))
                     .first;
        return it->second;
    }

    /** @return the snapshot set at @p path, or nullptr when it cannot
     *  be read (the server only names paths it just published). */
    const SnapshotSet *
    snapshot(const std::string &path)
    {
        auto it = sets.find(path);
        if (it == sets.end()) {
            SnapshotSet s;
            if (loadSnapshotSet(path, s) != Checkpoint::LoadStatus::Ok)
                return nullptr;
            it = sets.emplace(path, std::move(s)).first;
        }
        return &it->second;
    }
};

/** Run one unit: a capture pass published atomically at the requested
 *  path, or runUnit() against the memoized program and snapshots. */
proto::UnitResult
runWorkerUnit(const proto::UnitRequest &u, WorkerCaches &caches)
{
    proto::UnitResult res;
    res.id = u.id;
    const SweepPlan &plan = caches.plan(u.req);

    if (u.kind == proto::UnitKind::Capture) {
        std::string note;
        const SnapshotSet s =
            captureSnapshots(plan, u.req.eopt, u.workload,
                             caches.program(u.workload, u.req.popt), &note);
        if (!note.empty())
            warn(note);
        if (!saveSnapshotSet(u.snapshotPath, s)) {
            res.message = "could not publish snapshot set at " +
                          u.snapshotPath;
            return res;
        }
        res.ok = true;
        return res;
    }

    if (u.jobIndex >= plan.jobs.size()) {
        res.message = "job index out of range";
        return res;
    }
    const SweepJob &job = plan.jobs[u.jobIndex];
    // The server names a snapshot set only for jobs that fork from it.
    const SnapshotSet *s = nullptr;
    if (!u.snapshotPath.empty() && !(s = caches.snapshot(u.snapshotPath))) {
        res.message = "could not load snapshot set " + u.snapshotPath;
        return res;
    }
    if (u.sample >= 0 &&
        (!s || std::size_t(u.sample) >= s->set.samples.size())) {
        res.message = "sample index out of range";
        return res;
    }
    res.run = runUnit({job, caches.program(job.workload, u.req.popt),
                       u.req.eopt, s, u.sample});
    res.ok = true;
    return res;
}

} // namespace

int
workerMain(const std::string &socketPath)
{
    ::signal(SIGPIPE, SIG_IGN);

    std::string err;
    const int fd = proto::connectUnix(socketPath, &err);
    if (fd < 0) {
        warn("sweep worker: ", err);
        return 1;
    }
    proto::Framed link(fd);
    proto::Hello hello;
    hello.pid = ::getpid();
    if (!link.send(proto::MsgType::HelloWorker, hello.encode()))
        return 1;

    // Heartbeat thread: while a unit executes, a Progress frame every
    // kHeartbeatMs tells the server this worker is alive. The send
    // mutex serializes it against result writes (Framed is not
    // internally synchronized).
    std::mutex sendMu;
    std::atomic<bool> beatActive{false};
    std::atomic<bool> beatStop{false};
    std::atomic<std::uint64_t> beatUnit{0};
    std::thread beater([&] {
        while (!beatStop.load()) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(proto::kHeartbeatMs));
            if (!beatActive.load())
                continue;
            proto::ProgressMsg p;
            p.unitId = beatUnit.load();
            std::lock_guard<std::mutex> lk(sendMu);
            link.send(proto::MsgType::Progress, p.encode());
        }
    });

    WorkerCaches caches;
    proto::MsgType type;
    std::vector<std::uint8_t> payload;
    while (link.recv(type, payload)) {
        if (type == proto::MsgType::Shutdown)
            break;
        if (type != proto::MsgType::UnitRequest)
            continue;
        proto::UnitRequest u;
        if (!proto::UnitRequest::decode(payload, u)) {
            warn("sweep worker: malformed unit request; exiting");
            beatStop.store(true);
            beater.join();
            return 1;
        }
        // Chaos hooks fired before work: die or go silent, so the
        // server's crash-requeue and hang-detection paths are
        // exercised deterministically.
        if (u.chaosMode == proto::ChaosMode::Exit)
            ::_exit(1);
        if (u.chaosMode == proto::ChaosMode::Hang) {
            // Hold the unit, never heartbeat: the server must declare
            // us hung, SIGKILL us and requeue the unit elsewhere.
            for (;;)
                ::usleep(100000);
        }

        beatUnit.store(u.id);
        beatActive.store(true);
        const auto t0 = std::chrono::steady_clock::now();
        proto::UnitResult res = runWorkerUnit(u, caches);
        res.wallSeconds = secondsSince(t0);

        if (u.chaosMode == proto::ChaosMode::Delay) {
            // Slow-but-alive: heartbeats keep flowing through the
            // stall, so the server must NOT mistake us for hung.
            ::usleep(useconds_t(u.chaosParam) * 1000);
        }
        beatActive.store(false);

        if (u.chaosMode == proto::ChaosMode::Corrupt) {
            // Flip one payload byte after sealing: the server's frame
            // checksum must reject it and treat this worker as dead.
            std::vector<std::uint8_t> p = res.encode();
            p[p.size() / 2] ^= 0x01;
            std::lock_guard<std::mutex> lk(sendMu);
            link.send(proto::MsgType::UnitResult, p);
            break;
        }
        if (u.chaosMode == proto::ChaosMode::Trunc) {
            // Promise a full frame, deliver half, die: the server's
            // read loop must fail cleanly mid-frame.
            const std::vector<std::uint8_t> p = res.encode();
            {
                std::lock_guard<std::mutex> lk(sendMu);
                link.sendTruncated(proto::MsgType::UnitResult, p,
                                   p.size() / 2);
            }
            ::_exit(1);
        }

        bool sent;
        {
            std::lock_guard<std::mutex> lk(sendMu);
            sent = u.chaosMode == proto::ChaosMode::Dribble
                       ? link.sendChunked(proto::MsgType::UnitResult,
                                          res.encode(), 64, 500)
                       : link.send(proto::MsgType::UnitResult,
                                   res.encode());
        }
        if (!sent)
            break;
    }
    beatStop.store(true);
    beater.join();
    return 0;
}

pid_t
spawnWorkerProcess(const std::string &exe,
                   const std::string &socketPath)
{
    const pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    // Child: exec immediately — nothing but async-signal-safe calls
    // between fork and exec (the parent is threaded).
    ::execl(exe.c_str(), exe.c_str(), "--worker", "--socket",
            socketPath.c_str(), static_cast<char *>(nullptr));
    ::_exit(127);
}

} // namespace sweep
} // namespace sdv
