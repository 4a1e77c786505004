/**
 * @file
 * The sweep work-server (`sdv_sweep --serve`): a long-lived daemon
 * that listens on a Unix domain socket, decomposes incoming sweep
 * requests into the executor's self-contained (config × sample) work
 * units, dispatches them to a pool of worker *processes* (one crash
 * cannot take down the service or other requests), and streams each
 * client its plan-ordered result records as the completed prefix
 * grows — collation never waits for the whole request.
 *
 * Determinism contract: the served record stream is byte-identical to
 * what the in-process executor (runPlan) serializes for the same
 * request, because both paths call the same functions
 * (src/sweep/unit.hh): jobForks() shapes every job, the workers run
 * captureSnapshots() and runUnit(), a JobCollator folds the results,
 * and resultRecordJson() serializes them. Sharding across N workers
 * changes wall-clock only.
 *
 * Capture passes are deduplicated across requests by the process-wide
 * SnapshotCache (single-flight; persisted across daemon restarts).
 * Host-side ExecOptions knobs are not part of a request: `jobs` (the
 * daemon owns its pool size), `jobTimeout` (hangs are caught by
 * heartbeats instead) and the observability sinks, which the client
 * refuses to submit (docs/sweep.md).
 */

#ifndef SDV_SWEEP_SERVER_HH
#define SDV_SWEEP_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sweep/proto.hh"
#include "sweep/snapshot_cache.hh"

namespace sdv {
namespace sweep {

/** One queued work unit with its completion continuation plus the
 *  scheduling context the fair-share queue and the deadline/heartbeat
 *  machinery need. */
struct PendingUnit
{
    proto::UnitRequest msg;
    std::function<void(proto::UnitResult &&)> done;
    unsigned attempts = 0;

    std::uint64_t clientId = 0;  ///< fair-share bucket
    std::uint32_t priority = 1;  ///< hello priority (dispatch weight)
    std::chrono::steady_clock::time_point enqueuedAt;
    double waitSeconds = 0.0;    ///< stamped at dispatch

    bool hasDeadline = false;
    std::chrono::steady_clock::time_point deadline;
};

/**
 * Weighted per-client round-robin unit queue (the fair-share
 * scheduler): units are bucketed by client, and dispatch rotates
 * across clients giving each `priority` consecutive units per turn —
 * a 1000-unit batch client cannot starve an interactive one, and a
 * priority-4 client drains ~4x faster than a priority-1 one under
 * contention. Not internally synchronized (the server holds its queue
 * mutex); standalone so the scheduling policy is unit-testable.
 */
class FairShareQueue
{
  public:
    /** Enqueue @p u in its client's bucket (@p front: crash-retry
     *  priority — the unit goes back to its bucket's head). */
    void push(const std::shared_ptr<PendingUnit> &u, bool front);

    /** Dispatch the next unit per the rotation, or nullptr. */
    std::shared_ptr<PendingUnit> pop();

    /** Remove and return every queued unit (shutdown drain). */
    std::vector<std::shared_ptr<PendingUnit>> drain();

    std::size_t size() const { return total_; }
    bool empty() const { return total_ == 0; }

  private:
    struct ClientBucket
    {
        std::deque<std::shared_ptr<PendingUnit>> q;
        std::uint32_t priority = 1;
        std::uint32_t burstLeft = 0; ///< dispatches left this turn
    };

    std::map<std::uint64_t, ClientBucket> buckets_;
    std::uint64_t cursor_ = 0;  ///< client currently holding the turn
    bool cursorValid_ = false;
    std::size_t total_ = 0;
};

class SweepServer
{
  public:
    struct Options
    {
        std::string socketPath; ///< Unix socket to listen on
        /** Worker processes (0 = auto: hardware_concurrency - 1, the
         *  same resolveJobs rule as `--jobs 0`). */
        unsigned workers = 0;
        std::string cacheDir;   ///< snapshot-cache directory
        std::string workerExe;  ///< binary to spawn as `--worker`
        bool verbose = false;   ///< per-request log lines on stderr
        /** Snapshot-cache disk budget in MB (0 = unbounded). */
        std::uint64_t cacheLimitMb = 0;
        /** A worker silent for this long while holding a unit is
         *  declared hung, SIGKILLed and respawned (workers heartbeat
         *  every proto::kHeartbeatMs while executing). */
        unsigned hangTimeoutMs = 2000;
    };

    explicit SweepServer(Options opt);
    ~SweepServer();

    /** Bind the socket, fingerprint the worker binary and spawn the
     *  worker pool. @retval false (with @p err) when the socket or
     *  cache directory cannot be set up. */
    bool start(std::string *err);

    /** Accept/serve until stop(); joins every connection handler and
     *  reaps every worker before returning. */
    void run();

    /** Ask run() to wind down (safe from any thread, including
     *  connection handlers — a client Shutdown frame lands here). */
    void stop();

    unsigned workerCount() const { return numWorkers_; }

  private:
    /** Lifetime load tally of one worker process. */
    struct WorkerState
    {
        std::uint64_t units = 0;
        double busySeconds = 0.0;
    };

    /** Lifetime wait/dispatch tally of one client connection. */
    struct ClientStat
    {
        std::uint32_t priority = 1;
        std::uint64_t units = 0;
        double waitSum = 0.0;
        double waitMax = 0.0;
    };

    void acceptLoop(int listenFd);
    void handleConnection(int fd);
    void workerLoop(const std::shared_ptr<proto::Framed> &link,
                    int pid);
    void clientLoop(const std::shared_ptr<proto::Framed> &link,
                    std::uint64_t clientId, std::uint32_t priority);
    void handleSubmit(proto::Framed &link,
                      const std::vector<std::uint8_t> &payload,
                      std::uint64_t clientId, std::uint32_t priority);

    void enqueue(const std::shared_ptr<PendingUnit> &u, bool front);
    std::shared_ptr<PendingUnit> popUnit();
    /** Deliver @p r to @p u's continuation, counting the unit exactly
     *  once in the completed/failed accounting. */
    void finishUnit(std::shared_ptr<PendingUnit> &u,
                    proto::UnitResult &&r);
    /** Fail @p u to its continuation with @p why. */
    void failUnit(std::shared_ptr<PendingUnit> &u, std::string why,
                  proto::ErrKind kind = proto::ErrKind::Generic);
    /** A worker died holding @p u: retry it (chaos hook cleared) or,
     *  past the attempt cap, fail it to its continuation. */
    void requeueAfterCrash(const std::shared_ptr<PendingUnit> &u);
    void failPendingUnits(const char *why);
    proto::ServerStats snapshotStats();

    const Options opt_;
    unsigned numWorkers_ = 0;
    std::uint64_t binFingerprint_ = 0;
    int listenFd_ = -1;
    SnapshotCache cache_;

    std::atomic<bool> stop_{false};
    std::atomic<std::uint64_t> nextUnitId_{1};
    std::atomic<std::uint64_t> nextClientId_{1};

    std::mutex qm_;
    std::condition_variable qcv_;
    FairShareQueue queue_;
    std::uint64_t queueDepthPeak_ = 0;

    std::mutex sm_; ///< guards threads_, conns_, workers_, counters
    std::vector<std::thread> threads_;
    std::vector<std::weak_ptr<proto::Framed>> conns_;
    std::map<int, WorkerState> workers_; ///< pid -> lifetime load
    std::map<std::uint64_t, ClientStat> clientStats_;
    std::vector<int> workerPids_;
    std::uint64_t unitRetries_ = 0;
    std::uint64_t workerRestarts_ = 0;
    std::uint64_t hangKills_ = 0;
    std::uint64_t deadlineFailures_ = 0;
    std::uint64_t unitsEnqueued_ = 0;
    std::uint64_t unitsCompleted_ = 0;
    std::uint64_t unitsFailed_ = 0;
    std::uint64_t requestsServed_ = 0;
    std::uint64_t requestsFailed_ = 0;
};

} // namespace sweep
} // namespace sdv

#endif // SDV_SWEEP_SERVER_HH
