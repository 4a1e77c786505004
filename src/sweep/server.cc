#include "sweep/server.hh"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <future>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/log.hh"
#include "common/serialize.hh"
#include "sim/config.hh"
#include "sweep/unit.hh"
#include "sweep/worker.hh"

namespace sdv {
namespace sweep {

namespace {

/** A unit that crashes this many workers is abandoned (its request
 *  fails with context) instead of cycling the pool forever. */
constexpr unsigned kMaxUnitAttempts = 3;

/** Identity of the worker binary (size, mtime, inode): a snapshot
 *  captured by a different build must never be reused, so this folds
 *  into every cache key. Hashes the payload, not the integrity
 *  trailer, so a checksum change never moves the key. */
std::uint64_t
binaryFingerprint(const struct stat &st)
{
    Serializer ser;
    ser.u64(std::uint64_t(st.st_size));
    ser.i64(st.st_mtime);
    ser.u64(std::uint64_t(st.st_ino));
    return fnv1a(ser.data(), ser.size());
}

/** Per-request collation state, shared between the client handler
 *  (which streams records) and the unit continuations (which complete
 *  on worker threads). shared_ptr-held by every continuation, so a
 *  client that disconnects mid-request cannot dangle late units. */
struct RequestState
{
    RequestState(SweepPlan p, const ExecOptions &o)
        : plan(std::move(p)), eopt(o), collator(plan, eopt)
    {
    }

    const SweepPlan plan;
    const ExecOptions eopt;
    /** Per workload ordinal (sampled / checkpoint modes only); the
     *  collator's jobs point into them. */
    std::vector<std::shared_ptr<const SnapshotSet>> sets;
    std::vector<std::string> snapshotPaths;
    /** Pins against cache eviction, held for the request's lifetime so
     *  no worker ever opens an unlinked snapshot file. */
    std::vector<std::shared_ptr<void>> cachePins;

    std::mutex m; ///< guards the collator and everything below
    std::condition_variable cv;
    JobCollator collator;
    bool failed = false;
    std::string failMsg;
    proto::ErrKind failKind = proto::ErrKind::Generic;
    // Queue-age stats of this request's dispatched units.
    std::uint64_t waitCount = 0;
    double waitSum = 0.0;
    double waitMax = 0.0;

    void
    fail(std::string why,
         proto::ErrKind kind = proto::ErrKind::Generic)
    {
        if (!failed)
            failKind = kind;
        failed = true;
        if (failMsg.empty())
            failMsg = std::move(why);
    }
};

} // namespace

void
FairShareQueue::push(const std::shared_ptr<PendingUnit> &u, bool front)
{
    ClientBucket &b = buckets_[u->clientId];
    b.priority = u->priority == 0 ? 1 : u->priority;
    if (front)
        b.q.push_front(u);
    else
        b.q.push_back(u);
    ++total_;
}

std::shared_ptr<PendingUnit>
FairShareQueue::pop()
{
    if (total_ == 0)
        return nullptr;

    // Continue the current client's burst if it has one left and still
    // has work; otherwise rotate to the next client with work (wrapping
    // once) and grant it a fresh burst of `priority` dispatches.
    auto usable = [](const ClientBucket &b) { return !b.q.empty(); };
    std::map<std::uint64_t, ClientBucket>::iterator pick =
        buckets_.end();
    if (cursorValid_) {
        auto cur = buckets_.find(cursor_);
        if (cur != buckets_.end() && cur->second.burstLeft > 0 &&
            usable(cur->second))
            pick = cur;
    }
    if (pick == buckets_.end()) {
        auto it = cursorValid_ ? buckets_.upper_bound(cursor_)
                               : buckets_.begin();
        for (std::size_t scanned = 0; scanned <= buckets_.size();
             ++scanned) {
            if (it == buckets_.end())
                it = buckets_.begin();
            if (usable(it->second)) {
                pick = it;
                pick->second.burstLeft = pick->second.priority;
                break;
            }
            ++it;
        }
    }
    if (pick == buckets_.end())
        return nullptr; // unreachable while total_ > 0

    auto u = pick->second.q.front();
    pick->second.q.pop_front();
    --total_;
    --pick->second.burstLeft;
    cursor_ = pick->first;
    cursorValid_ = true;
    if (pick->second.q.empty())
        buckets_.erase(pick);
    return u;
}

std::vector<std::shared_ptr<PendingUnit>>
FairShareQueue::drain()
{
    std::vector<std::shared_ptr<PendingUnit>> out;
    out.reserve(total_);
    for (auto &kv : buckets_)
        for (auto &u : kv.second.q)
            out.push_back(std::move(u));
    buckets_.clear();
    total_ = 0;
    cursorValid_ = false;
    return out;
}

SweepServer::SweepServer(Options opt)
    : opt_(std::move(opt)),
      cache_(opt_.cacheDir, opt_.cacheLimitMb << 20)
{
}

SweepServer::~SweepServer()
{
    if (listenFd_ >= 0)
        ::close(listenFd_);
}

bool
SweepServer::start(std::string *err)
{
    ::signal(SIGPIPE, SIG_IGN);

    ::mkdir(opt_.cacheDir.c_str(), 0755); // EEXIST: reuse
    struct stat st{};
    if (::stat(opt_.cacheDir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
        if (err)
            *err = "cache directory unavailable: " + opt_.cacheDir;
        return false;
    }
    if (::stat(opt_.workerExe.c_str(), &st) != 0) {
        if (err)
            *err = "worker binary not found: " + opt_.workerExe;
        return false;
    }
    binFingerprint_ = binaryFingerprint(st);

    // Startup GC: drop cache entries captured by a different build of
    // the worker binary (stale-but-present) and seed the LRU index.
    const unsigned gcRemoved = cache_.gcStale(binFingerprint_);
    if (gcRemoved > 0 && opt_.verbose)
        std::fprintf(stderr,
                     "sdv_sweep: cache GC removed %u stale snapshot "
                     "container(s)\n",
                     gcRemoved);

    listenFd_ = proto::listenUnix(opt_.socketPath, err);
    if (listenFd_ < 0)
        return false;

    numWorkers_ = resolveJobs(opt_.workers);
    for (unsigned i = 0; i < numWorkers_; ++i) {
        const pid_t pid =
            spawnWorkerProcess(opt_.workerExe, opt_.socketPath);
        if (pid < 0) {
            if (err)
                *err = "could not spawn worker process";
            return false;
        }
        workerPids_.push_back(int(pid));
    }
    if (opt_.verbose)
        std::fprintf(stderr,
                     "sdv_sweep: serving on %s (%u workers, cache %s)\n",
                     opt_.socketPath.c_str(), numWorkers_,
                     opt_.cacheDir.c_str());
    return true;
}

void
SweepServer::stop()
{
    stop_.store(true);
    qcv_.notify_all();
}

void
SweepServer::enqueue(const std::shared_ptr<PendingUnit> &u, bool front)
{
    {
        std::lock_guard<std::mutex> lk(qm_);
        u->enqueuedAt = std::chrono::steady_clock::now();
        queue_.push(u, front);
        queueDepthPeak_ = std::max<std::uint64_t>(queueDepthPeak_,
                                                  queue_.size());
    }
    if (!front) {
        // Fresh unit (retries re-enter via front=true and were
        // already counted): one entry in the exact-balance ledger.
        std::lock_guard<std::mutex> lk(sm_);
        ++unitsEnqueued_;
    }
    qcv_.notify_one();
}

std::shared_ptr<PendingUnit>
SweepServer::popUnit()
{
    std::unique_lock<std::mutex> lk(qm_);
    qcv_.wait(lk, [&] { return stop_.load() || !queue_.empty(); });
    return queue_.pop();
}

void
SweepServer::finishUnit(std::shared_ptr<PendingUnit> &u,
                        proto::UnitResult &&r)
{
    {
        std::lock_guard<std::mutex> lk(sm_);
        if (r.ok)
            ++unitsCompleted_;
        else
            ++unitsFailed_;
        if (!r.ok && r.errKind == proto::ErrKind::Deadline)
            ++deadlineFailures_;
    }
    auto done = std::move(u->done);
    u.reset();
    done(std::move(r));
}

void
SweepServer::failUnit(std::shared_ptr<PendingUnit> &u, std::string why,
                      proto::ErrKind kind)
{
    proto::UnitResult r;
    r.id = u->msg.id;
    r.message = std::move(why);
    r.errKind = kind;
    r.queueWaitSeconds = u->waitSeconds;
    finishUnit(u, std::move(r));
}

void
SweepServer::requeueAfterCrash(const std::shared_ptr<PendingUnit> &u)
{
    ++u->attempts;
    // The chaos hook fires at most once per unit: the whole point of
    // the retry is that the re-run succeeds.
    u->msg.chaosMode = proto::ChaosMode::None;
    u->msg.chaosParam = 0;
    if (u->attempts >= kMaxUnitAttempts) {
        auto uu = u;
        failUnit(uu, "unit abandoned after " +
                         std::to_string(u->attempts) + " worker crashes");
        return;
    }
    {
        std::lock_guard<std::mutex> lk(sm_);
        ++unitRetries_;
    }
    // Front of its client's bucket: the crashed unit's request is the
    // oldest work in flight; don't let newer requests starve its retry.
    enqueue(u, true);
}

void
SweepServer::failPendingUnits(const char *why)
{
    std::vector<std::shared_ptr<PendingUnit>> drained;
    {
        std::lock_guard<std::mutex> lk(qm_);
        drained = queue_.drain();
    }
    for (auto &u : drained)
        failUnit(u, why, proto::ErrKind::Shutdown);
}

proto::ServerStats
SweepServer::snapshotStats()
{
    proto::ServerStats s;
    {
        std::lock_guard<std::mutex> lk(sm_);
        s.unitsEnqueued = unitsEnqueued_;
        s.unitsCompleted = unitsCompleted_;
        s.unitsFailed = unitsFailed_;
        s.unitRetries = unitRetries_;
        s.workerRestarts = workerRestarts_;
        s.hangKills = hangKills_;
        s.deadlineFailures = deadlineFailures_;
        s.requestsServed = requestsServed_;
        s.requestsFailed = requestsFailed_;
    }
    const SnapshotCache::Stats cs = cache_.stats();
    s.cacheEvictions = cs.evictions;
    s.cacheGcRemoved = cs.gcRemoved;
    s.cacheDiskBytes = cs.diskBytes;
    return s;
}

void
SweepServer::workerLoop(const std::shared_ptr<proto::Framed> &link,
                        int pid)
{
    {
        std::lock_guard<std::mutex> lk(sm_);
        workers_[pid]; // register (zero load) even before work arrives
    }
    using clock = std::chrono::steady_clock;
    bool died = false;
    bool deadlineKill = false;
    std::shared_ptr<PendingUnit> u;
    while (!stop_.load()) {
        u = popUnit();
        if (!u)
            break;

        const auto dispatchedAt = clock::now();
        u->waitSeconds = std::chrono::duration<double>(
                             dispatchedAt - u->enqueuedAt)
                             .count();
        {
            std::lock_guard<std::mutex> lk(sm_);
            ClientStat &cs = clientStats_[u->clientId];
            cs.priority = u->priority;
            ++cs.units;
            cs.waitSum += u->waitSeconds;
            cs.waitMax = std::max(cs.waitMax, u->waitSeconds);
        }

        // Dispatch-time deadline check: units of an expired request
        // fail instantly instead of burning worker time on a result
        // nobody is waiting for.
        if (u->hasDeadline && dispatchedAt >= u->deadline) {
            failUnit(u, "request deadline expired",
                     proto::ErrKind::Deadline);
            continue;
        }

        if (!link->send(proto::MsgType::UnitRequest, u->msg.encode())) {
            died = true;
            break;
        }

        // Heartbeat-aware receive: the worker sends Progress every
        // kHeartbeatMs while executing. Silence past the hang timeout
        // means the worker is wedged (not merely slow) — SIGKILL it so
        // the respawn/retry path recovers the unit; a passed deadline
        // likewise kills the worker so one slow request cannot occupy
        // the pool past its budget.
        proto::UnitResult r;
        bool gotResult = false;
        auto lastBeat = clock::now();
        while (!gotResult && !died) {
            const auto now = clock::now();
            auto wake =
                lastBeat +
                std::chrono::milliseconds(opt_.hangTimeoutMs);
            if (u->hasDeadline && u->deadline < wake)
                wake = u->deadline;
            long timeoutMs =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    wake - now)
                    .count() +
                1;
            if (timeoutMs < 0)
                timeoutMs = 0;
            if (timeoutMs > 500)
                timeoutMs = 500; // bounded: observe stop_ regularly
            struct pollfd pfd{};
            pfd.fd = link->fd();
            pfd.events = POLLIN;
            const int rc = ::poll(&pfd, 1, int(timeoutMs));
            if (rc < 0) {
                if (errno == EINTR)
                    continue;
                died = true;
                break;
            }
            if (rc > 0 &&
                (pfd.revents & (POLLIN | POLLHUP | POLLERR))) {
                proto::MsgType t;
                std::vector<std::uint8_t> payload;
                if (!link->recv(t, payload)) {
                    died = true; // EOF, read error or corrupt frame
                    break;
                }
                if (t == proto::MsgType::Progress) {
                    lastBeat = clock::now();
                    continue;
                }
                if (t == proto::MsgType::UnitResult &&
                    proto::UnitResult::decode(payload, r)) {
                    gotResult = true;
                    break;
                }
                died = true;
                break;
            }
            const auto tnow = clock::now();
            if (u->hasDeadline && tnow >= u->deadline) {
                ::kill(pid, SIGKILL);
                died = true;
                deadlineKill = true;
                break;
            }
            if (tnow - lastBeat >=
                std::chrono::milliseconds(opt_.hangTimeoutMs)) {
                warn("sweep worker ", pid,
                     " went silent mid-unit; killing");
                ::kill(pid, SIGKILL);
                died = true;
                {
                    std::lock_guard<std::mutex> lk(sm_);
                    ++hangKills_;
                }
                break;
            }
        }
        if (died)
            break;

        {
            std::lock_guard<std::mutex> lk(sm_);
            WorkerState &ws = workers_[pid];
            ++ws.units;
            ws.busySeconds += r.wallSeconds;
        }
        r.queueWaitSeconds = u->waitSeconds;
        finishUnit(u, std::move(r));
    }
    if (died) {
        link->close();
        if (u) {
            if (deadlineKill)
                failUnit(u, "unit killed: request deadline expired",
                         proto::ErrKind::Deadline);
            else
                requeueAfterCrash(u);
        }
        int status = 0;
        ::waitpid(pid, &status, 0);
        if (!stop_.load()) {
            warn("sweep worker ", pid, " died; respawning");
            {
                std::lock_guard<std::mutex> lk(sm_);
                ++workerRestarts_;
            }
            const pid_t np =
                spawnWorkerProcess(opt_.workerExe, opt_.socketPath);
            if (np > 0) {
                std::lock_guard<std::mutex> lk(sm_);
                workerPids_.push_back(int(np));
            } else {
                warn("sweep server: could not respawn a worker");
            }
        }
    }
}

void
SweepServer::handleSubmit(proto::Framed &link,
                          const std::vector<std::uint8_t> &payload,
                          std::uint64_t clientId, std::uint32_t priority)
{
    const auto t0 = std::chrono::steady_clock::now();

    auto reject = [&](const std::string &why,
                      proto::ErrKind kind = proto::ErrKind::Rejected) {
        proto::ErrorMsg e;
        e.message = why;
        e.kind = kind;
        link.send(proto::MsgType::Error, e.encode());
        {
            std::lock_guard<std::mutex> lk(sm_);
            ++requestsFailed_;
        }
        if (opt_.verbose)
            std::fprintf(stderr, "sdv_sweep: rejected request: %s\n",
                         why.c_str());
    };

    proto::SweepRequest req;
    std::string err;
    if (!proto::SweepRequest::decode(payload, req, &err)) {
        reject("malformed request: " + err);
        return;
    }
    if (!havePlan(req.plan)) {
        reject("unknown plan '" + req.plan + "'");
        return;
    }
    if (req.popt.scale == 0) {
        reject("scale must be >= 1");
        return;
    }
    if (req.eopt.sample.enabled() && req.eopt.verify) {
        // The in-process executor asserts on this combination; a
        // daemon rejects it instead of dying.
        reject("interval sampling produces estimates that cannot be "
               "functionally verified; drop --verify");
        return;
    }

    // Per-request deadline: every unit carries it (enforced at
    // dispatch and via the heartbeat loop) and the streaming loop
    // below stops waiting once it passes.
    const bool hasDeadline = req.deadlineMs > 0;
    const auto deadlineTp =
        t0 + std::chrono::milliseconds(req.deadlineMs);

    auto st = std::make_shared<RequestState>(
        buildPlan(req.plan, req.popt), req.eopt);
    const ExecOptions &eopt = st->eopt;
    const std::size_t nJobs = st->plan.jobs.size();
    const PlanWorkloads wl(st->plan);

    // Request metrics (host-side rider; the deterministic payload is
    // the record stream).
    ExecMetrics m;
    m.enabled = true;
    m.serve = true;
    m.workers = numWorkers_;
    m.jobsAuto = opt_.workers == 0;

    // Chaos budgets: modes are assigned to units in creation order
    // (exits first, then hangs, corrupts, truncations, delays,
    // dribbles) so a campaign is replayable without server-side
    // randomness. Retried units always run clean.
    proto::ChaosSpec chaosLeft = req.chaos;
    auto takeChaos = [&chaosLeft](std::uint32_t *param) {
        const std::pair<std::uint32_t *, proto::ChaosMode> budgets[] = {
            {&chaosLeft.exitUnits, proto::ChaosMode::Exit},
            {&chaosLeft.hangUnits, proto::ChaosMode::Hang},
            {&chaosLeft.corruptUnits, proto::ChaosMode::Corrupt},
            {&chaosLeft.truncUnits, proto::ChaosMode::Trunc},
            {&chaosLeft.delayUnits, proto::ChaosMode::Delay},
            {&chaosLeft.dribbleUnits, proto::ChaosMode::Dribble},
        };
        *param = 0;
        for (const auto &[left, mode] : budgets) {
            if (*left == 0)
                continue;
            --*left;
            if (mode == proto::ChaosMode::Delay)
                *param = chaosLeft.delayMs;
            return mode;
        }
        return proto::ChaosMode::None;
    };

    auto newUnit = [&](proto::UnitKind kind) {
        auto pu = std::make_shared<PendingUnit>();
        pu->msg.id = nextUnitId_.fetch_add(1);
        pu->msg.kind = kind;
        pu->msg.req = req;
        pu->clientId = clientId;
        pu->priority = priority;
        pu->hasDeadline = hasDeadline;
        pu->deadline = deadlineTp;
        pu->msg.chaosMode = takeChaos(&pu->msg.chaosParam);
        return pu;
    };

    // --- Snapshot acquisition (sampled and one-boundary checkpoint
    // modes): one single-flight cache acquire per workload; a miss
    // dispatches the capture pass to the worker pool. Each workload's
    // jobs are shaped against its snapshots serially, before any unit
    // runs, so fallbacks never depend on scheduling.
    if (eopt.sample.enabled() || eopt.checkpoint) {
        for (std::size_t w = 0; w < wl.names.size(); ++w) {
            const std::string &workload = wl.names[w];
            const std::uint64_t warmHash = configIdentityHash(
                warmConfig(st->plan, eopt, workload));
            const std::string key =
                snapshotKey(req, workload, warmHash, binFingerprint_);
            // Pin before acquiring: from here until the request ends,
            // eviction must never unlink this key's file under the
            // units that will read it.
            st->cachePins.push_back(cache_.pin(key));
            proto::ErrKind captureKind = proto::ErrKind::Generic;
            auto capture = [&](const std::string &path,
                               std::string *cerr) {
                auto pu = newUnit(proto::UnitKind::Capture);
                pu->msg.workload = workload;
                pu->msg.snapshotPath = path;
                std::promise<proto::UnitResult> prom;
                auto fut = prom.get_future();
                pu->done = [&prom](proto::UnitResult &&r) {
                    prom.set_value(std::move(r));
                };
                enqueue(pu, false);
                ++m.unitsDispatched;
                proto::UnitResult r = fut.get();
                if (!r.ok) {
                    if (cerr)
                        *cerr = r.message;
                    captureKind = r.errKind;
                }
                return r.ok;
            };
            SnapshotCache::Outcome oc = SnapshotCache::Outcome::Hit;
            auto set = cache_.acquire(key, capture, &err, &oc);
            if (!set) {
                reject("snapshot capture failed for '" + workload +
                       "': " + err,
                       captureKind == proto::ErrKind::Deadline
                           ? proto::ErrKind::Deadline
                           : proto::ErrKind::Generic);
                return;
            }
            switch (oc) {
            case SnapshotCache::Outcome::Hit: ++m.cacheHits; break;
            case SnapshotCache::Outcome::Miss:
                ++m.cacheMisses;
                countCapture(m, *set);
                break;
            case SnapshotCache::Outcome::Wait: ++m.cacheWaits; break;
            }
            std::vector<std::string> notes;
            st->collator.shape(wl.jobs[w], set.get(), notes);
            for (const std::string &n : notes)
                warn(n);
            st->sets.push_back(std::move(set));
            st->snapshotPaths.push_back(cache_.pathFor(key));
        }
    }

    // --- Enqueue the units in plan order, each completing into the
    // shared collator from whichever worker thread finishes it.
    for (std::size_t i = 0; i < nJobs; ++i) {
        for (unsigned k = 0; k < st->collator.units(i); ++k) {
            auto pu = newUnit(proto::UnitKind::Run);
            pu->msg.jobIndex = std::uint32_t(i);
            pu->msg.sample = st->collator.sampleOf(i, k);
            if (st->collator.source(i))
                pu->msg.snapshotPath =
                    st->snapshotPaths[wl.ofJob[i]];
            pu->done = [st, i, k](proto::UnitResult &&r) {
                std::lock_guard<std::mutex> lk(st->m);
                ++st->waitCount;
                st->waitSum += r.queueWaitSeconds;
                st->waitMax = std::max(st->waitMax, r.queueWaitSeconds);
                if (!r.ok)
                    st->fail(r.message, r.errKind);
                else
                    st->collator.record(i, k, std::move(r.run),
                                        r.queueWaitSeconds);
                st->cv.notify_all();
            };
            enqueue(pu, false);
            ++m.unitsDispatched;
        }
    }

    // --- Stream the plan-ordered record prefix as it completes.
    const auto collate0 = std::chrono::steady_clock::now();
    bool clientGone = false;
    for (std::size_t i = 0; i < nJobs; ++i) {
        std::string json;
        {
            std::unique_lock<std::mutex> lk(st->m);
            auto ready = [&] {
                return st->collator.done(i) || st->failed;
            };
            if (hasDeadline) {
                if (!st->cv.wait_until(lk, deadlineTp, ready))
                    st->fail("request deadline (" +
                                 std::to_string(req.deadlineMs) +
                                 " ms) expired",
                             proto::ErrKind::Deadline);
            } else {
                st->cv.wait(lk, ready);
            }
            if (st->failed) {
                const std::string why = st->failMsg;
                const proto::ErrKind kind = st->failKind;
                lk.unlock();
                reject("request failed: " + why,
                       kind == proto::ErrKind::Deadline
                           ? proto::ErrKind::Deadline
                           : proto::ErrKind::Generic);
                return;
            }
            json = resultRecordJson(st->collator.outcome(i));
        }
        proto::ResultRecord rec;
        rec.index = std::uint32_t(i);
        rec.json = std::move(json);
        if (!link.send(proto::MsgType::ResultRecord, rec.encode())) {
            // Client went away; late continuations hold st alive, so
            // just stop streaming.
            clientGone = true;
            break;
        }
    }
    if (clientGone) {
        std::lock_guard<std::mutex> lk(sm_);
        ++requestsFailed_;
        return;
    }

    m.poolWallSeconds = secondsSince(t0);
    m.requestSeconds = m.poolWallSeconds;
    m.collateSeconds = secondsSince(collate0);
    {
        std::lock_guard<std::mutex> lk(st->m);
        st->collator.addMetrics(m);
        if (st->waitCount > 0)
            m.queueWaitAvgSeconds =
                st->waitSum / double(st->waitCount);
        m.queueWaitMaxSeconds = st->waitMax;
    }
    const proto::ServerStats ss = snapshotStats();
    m.unitRetries = ss.unitRetries;
    m.workerRestarts = ss.workerRestarts;
    m.hangKills = ss.hangKills;
    m.deadlineFailures = ss.deadlineFailures;
    m.cacheEvictions = ss.cacheEvictions;
    m.cacheGcRemoved = ss.cacheGcRemoved;
    m.cacheDiskBytes = ss.cacheDiskBytes;
    {
        std::lock_guard<std::mutex> lk(sm_);
        ++requestsServed_;
        for (const auto &[pid, w] : workers_)
            m.workerLoads.push_back({pid, w.units, w.busySeconds});
        for (const auto &[id, c] : clientStats_)
            m.clientWaits.push_back(
                {id, c.priority, c.units,
                 c.units ? c.waitSum / double(c.units) : 0.0, c.waitMax});
    }
    {
        std::lock_guard<std::mutex> lk(qm_);
        m.queueDepthPeak = queueDepthPeak_;
    }

    proto::RequestDone done;
    done.records = std::uint32_t(nJobs);
    done.cacheHits = m.cacheHits;
    done.cacheMisses = m.cacheMisses;
    done.metricsJson = m.toJson();
    link.send(proto::MsgType::RequestDone, done.encode());
    if (opt_.verbose)
        std::fprintf(stderr,
                     "sdv_sweep: served %s (%zu records, %.2fs, "
                     "cache %llu hit / %llu miss)\n",
                     req.plan.c_str(), nJobs, m.requestSeconds,
                     static_cast<unsigned long long>(m.cacheHits),
                     static_cast<unsigned long long>(m.cacheMisses));
}

void
SweepServer::clientLoop(const std::shared_ptr<proto::Framed> &link,
                        std::uint64_t clientId, std::uint32_t priority)
{
    proto::MsgType t;
    std::vector<std::uint8_t> payload;
    while (!stop_.load() && link->recv(t, payload)) {
        if (t == proto::MsgType::Shutdown) {
            if (opt_.verbose)
                std::fprintf(stderr,
                             "sdv_sweep: shutdown requested\n");
            stop();
            break;
        }
        if (t == proto::MsgType::Submit) {
            handleSubmit(*link, payload, clientId, priority);
            continue;
        }
        if (t == proto::MsgType::StatsQuery) {
            link->send(proto::MsgType::StatsReply,
                       snapshotStats().encode());
            continue;
        }
        proto::ErrorMsg e;
        e.message = "unexpected frame type";
        e.kind = proto::ErrKind::Protocol;
        link->send(proto::MsgType::Error, e.encode());
        break;
    }
}

void
SweepServer::handleConnection(int fd)
{
    auto link = std::make_shared<proto::Framed>(fd);
    {
        std::lock_guard<std::mutex> lk(sm_);
        conns_.push_back(link);
    }
    proto::MsgType t;
    std::vector<std::uint8_t> payload;
    if (!link->recv(t, payload))
        return;

    proto::Hello hello;
    if (t == proto::MsgType::HelloWorker) {
        if (proto::Hello::decode(payload, hello) &&
            hello.version == proto::kVersion)
            workerLoop(link, hello.pid);
        return;
    }
    if (t == proto::MsgType::HelloClient) {
        if (!proto::Hello::decode(payload, hello) ||
            hello.version != proto::kVersion) {
            proto::ErrorMsg e;
            e.message = "protocol version mismatch (server speaks v" +
                        std::to_string(proto::kVersion) + ")";
            e.kind = proto::ErrKind::Protocol;
            link->send(proto::MsgType::Error, e.encode());
            return;
        }
        const std::uint64_t clientId = nextClientId_.fetch_add(1);
        clientLoop(link, clientId, hello.priority);
        return;
    }
    proto::ErrorMsg e;
    e.message = "expected a hello frame";
    e.kind = proto::ErrKind::Protocol;
    link->send(proto::MsgType::Error, e.encode());
}

void
SweepServer::acceptLoop(int listenFd)
{
    while (!stop_.load()) {
        struct pollfd pfd{};
        pfd.fd = listenFd;
        pfd.events = POLLIN;
        const int rc = ::poll(&pfd, 1, 200);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            warn("sweep server: poll failed; shutting down");
            stop();
            break;
        }
        if (rc == 0 || !(pfd.revents & POLLIN))
            continue;
        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0)
            continue;
        std::lock_guard<std::mutex> lk(sm_);
        threads_.emplace_back(
            [this, fd] { handleConnection(fd); });
    }
}

void
SweepServer::run()
{
    acceptLoop(listenFd_);

    // Wind-down: no new connections (accept loop done); unblock every
    // handler, fail whatever work is still queued, reap the pool.
    stop_.store(true);
    qcv_.notify_all();
    {
        std::lock_guard<std::mutex> lk(sm_);
        for (auto &w : conns_)
            if (auto c = w.lock())
                ::shutdown(c->fd(), SHUT_RDWR);
    }
    for (;;) {
        std::vector<std::thread> batch;
        {
            std::lock_guard<std::mutex> lk(sm_);
            batch.swap(threads_);
        }
        if (batch.empty())
            break;
        for (std::thread &t : batch)
            t.join();
    }
    failPendingUnits("server shutting down");
    ::close(listenFd_);
    listenFd_ = -1;
    ::unlink(opt_.socketPath.c_str());
    std::vector<int> pids;
    {
        std::lock_guard<std::mutex> lk(sm_);
        pids = workerPids_;
    }
    for (int pid : pids) {
        int status = 0;
        ::waitpid(pid, &status, 0); // ECHILD for already-reaped: fine
    }
}

} // namespace sweep
} // namespace sdv
