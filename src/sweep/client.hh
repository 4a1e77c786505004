/**
 * @file
 * Client side of the sweep work-server: submit one request and collect
 * the streamed plan-ordered records (`sdv_sweep --connect`), ask the
 * daemon to shut down (`--shutdown`), and the load-test harness
 * (`--loadtest N`) that drives many queued requests from concurrent
 * connections and reports throughput and latency percentiles.
 */

#ifndef SDV_SWEEP_CLIENT_HH
#define SDV_SWEEP_CLIENT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sweep/proto.hh"

namespace sdv {
namespace sweep {

/** How a submit attempt ended — the client's decision surface. Only
 *  DaemonAbsent and TransportError are retryable (the served stream
 *  is deterministic, so a resubmission is idempotent); the rest are
 *  verdicts the daemon itself issued. */
enum class SubmitStatus
{
    Ok = 0,
    DaemonAbsent,     ///< nothing listening (ENOENT/ECONNREFUSED)
    ProtocolMismatch, ///< daemon present but speaks another version
    Rejected,         ///< request invalid (daemon said so)
    DeadlineExpired,  ///< request deadline expired server-side
    TransportError,   ///< connection died mid-exchange
    ServerError,      ///< daemon reported a request failure
};

/** @return a short stable name for @p s ("ok", "daemon-absent", ...). */
const char *submitStatusName(SubmitStatus s);

/** Client-side submission knobs. */
struct ClientOptions
{
    std::uint32_t priority = 1; ///< fair-share weight sent in the hello
    unsigned retries = 0;       ///< extra attempts on retryable failures
    unsigned backoffMs = 100;   ///< base backoff (doubles, jittered)
    std::uint64_t retrySeed = 0; ///< jitter stream seed
};

/** One served request's collected stream. */
struct ClientResult
{
    std::vector<std::string> records; ///< plan-ordered record JSON
    std::string metricsJson;          ///< per-request exec_metrics
    std::uint64_t cacheHits = 0;      ///< snapshot-cache hits
    std::uint64_t cacheMisses = 0;    ///< captures this request ran
    SubmitStatus status = SubmitStatus::TransportError;
    unsigned attempts = 0;            ///< connection attempts made

    /** @return the records as the executor's results array — the
     *  exact text resultsJson() would have produced in-process. */
    std::string resultsArray() const;
};

/**
 * Submit @p req to the daemon at @p socketPath once and stream the
 * reply. @p onRecord (optional) observes each record as it arrives —
 * the streaming interface; the full set is also collected into
 * @p out. @return the classified outcome (also left in out.status);
 * @p err carries the human-readable reason on anything but Ok. A
 * request asking for observability sinks (traceEvents,
 * telemetryInterval), which the wire does not carry, is Rejected here
 * without contacting the daemon.
 */
SubmitStatus submitSweepOnce(
    const std::string &socketPath, const proto::SweepRequest &req,
    std::uint32_t priority, ClientResult &out, std::string *err,
    const std::function<void(std::uint32_t, const std::string &)>
        &onRecord = nullptr);

/**
 * submitSweepOnce plus retry policy: retryable failures (daemon
 * absent, transport died) are reattempted up to @p copt.retries times
 * with jittered exponential backoff. Daemon verdicts (rejection,
 * deadline, protocol mismatch) are never retried — resubmitting an
 * invalid request cannot help.
 */
SubmitStatus submitSweepRetry(
    const std::string &socketPath, const proto::SweepRequest &req,
    const ClientOptions &copt, ClientResult &out, std::string *err,
    const std::function<void(std::uint32_t, const std::string &)>
        &onRecord = nullptr);

/**
 * Submit @p req to the daemon at @p socketPath and stream the reply
 * (single attempt, default priority — the original interface).
 * @retval false (with @p err) on connection failure, rejection or a
 * mid-stream error.
 */
bool submitSweep(const std::string &socketPath,
                 const proto::SweepRequest &req, ClientResult &out,
                 std::string *err,
                 const std::function<void(std::uint32_t,
                                          const std::string &)>
                     &onRecord = nullptr);

/** Fetch the daemon's accounting snapshot (StatsQuery round trip). */
bool queryStats(const std::string &socketPath, proto::ServerStats &out,
                std::string *err);

/** Ask the daemon at @p socketPath to wind down. */
bool requestShutdown(const std::string &socketPath, std::string *err);

/** Load-test shape: @p requests total submissions spread over
 *  @p concurrency client connections (each connection submits its
 *  share back-to-back, so the daemon sees a deep standing queue). */
struct LoadTestOptions
{
    unsigned requests = 1000;
    unsigned concurrency = 4;
};

struct LoadTestResult
{
    unsigned completed = 0;
    unsigned failed = 0;
    double wallSeconds = 0.0;
    double requestsPerSecond = 0.0;
    double p50 = 0.0, p95 = 0.0, p99 = 0.0; ///< latency, seconds
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;

    /** @return hits / (hits + misses), in [0, 1]. */
    double hitRate() const;
};

/** Run the load test: every request is @p req. @retval false (with
 *  @p err) when any request failed. */
bool runLoadTest(const std::string &socketPath,
                 const proto::SweepRequest &req,
                 const LoadTestOptions &lopt, LoadTestResult &out,
                 std::string *err);

} // namespace sweep
} // namespace sdv

#endif // SDV_SWEEP_CLIENT_HH
