/**
 * @file
 * Wire protocol of the sweep work-server (`sdv_sweep --serve`):
 * length-prefixed frames over a stream socket, each carrying one typed
 * message serialized with the checkpoint layer's Serializer (so every
 * payload ends in a checksum64 trailer and truncated or corrupted frames
 * are rejected before any field is trusted).
 *
 * Frame layout: u32 payload length (little-endian) | u8 message type |
 * payload bytes. The transport is deliberately address-agnostic — the
 * daemon listens on a Unix domain socket today, but nothing in the
 * framing or the messages assumes same-host peers, so multi-machine
 * sharding is a connect-call change, not a protocol redesign.
 *
 * Two kinds of peers speak it (distinguished by their hello):
 *  - clients: Submit a sweep request, then read a stream of
 *    plan-ordered ResultRecord frames followed by one RequestDone.
 *  - workers: receive UnitRequest frames (one self-contained
 *    (config × sample) unit or one capture pass each) and answer each
 *    with a UnitResult.
 *
 * Full message reference: docs/sweep.md, "The sweep service".
 */

#ifndef SDV_SWEEP_PROTO_HH
#define SDV_SWEEP_PROTO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "sweep/executor.hh"
#include "sweep/plan.hh"
#include "sweep/unit.hh"

namespace sdv {
namespace sweep {
namespace proto {

/** Protocol version; bumped on any frame or message layout change.
 *  Peers with mismatched versions are rejected at hello time.
 *  v2: hello priority, deadline + chaos spec in requests, worker
 *  Progress heartbeats, typed error kinds, server stats query. */
constexpr std::uint32_t kVersion = 2;

/** Upper bound on a single frame's payload (sanity guard against
 *  garbage length prefixes from malformed peers). */
constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/** Worker heartbeat cadence while a unit is executing. The server's
 *  hang timeout (Options::hangTimeoutMs) must be a comfortable
 *  multiple of this. */
constexpr unsigned kHeartbeatMs = 100;

enum class MsgType : std::uint8_t
{
    HelloClient = 1,  ///< client -> server: version handshake
    HelloWorker = 2,  ///< worker -> server: version handshake + pid
    Submit = 3,       ///< client -> server: one sweep request
    Error = 4,        ///< server -> client: request rejected / failed
    ResultRecord = 5, ///< server -> client: one plan-ordered record
    RequestDone = 6,  ///< server -> client: stream complete + metrics
    UnitRequest = 7,  ///< server -> worker: run one work unit
    UnitResult = 8,   ///< worker -> server: unit outcome
    Shutdown = 9,     ///< client -> server: stop serving
    Progress = 10,    ///< worker -> server: heartbeat while executing
    StatsQuery = 11,  ///< client -> server: request accounting stats
    StatsReply = 12,  ///< server -> client: ServerStats payload
};

/** Structured error taxonomy (ErrorMsg::kind). Clients use it to
 *  decide retryability and phrasing; Deadline in particular must be
 *  distinguishable from a generic failure. */
enum class ErrKind : std::uint8_t
{
    Generic = 0,  ///< request failed (not automatically retryable)
    Rejected = 1, ///< request invalid (unknown plan, bad options)
    Deadline = 2, ///< request deadline expired
    Protocol = 3, ///< version/frame mismatch at hello
    Shutdown = 4, ///< server is shutting down
};

/** Blocking framed-message transport over a connected socket fd.
 *  Owns the fd. Send/recv are not internally synchronized — callers
 *  serialize access per direction (the server does: one reader and
 *  one writer thread per connection at most). */
class Framed
{
  public:
    explicit Framed(int fd) : fd_(fd) {}
    ~Framed() { close(); }
    Framed(const Framed &) = delete;
    Framed &operator=(const Framed &) = delete;

    /** Send one frame; @p payload must already be sealed
     *  (Serializer::finish). @retval false on a write error or a
     *  closed peer. */
    bool send(MsgType t, const std::vector<std::uint8_t> &payload);

    /** Receive one frame and verify its payload checksum.
     *  @retval false on EOF, a read error, an oversized length prefix
     *  or a checksum mismatch (the connection is unusable then). */
    bool recv(MsgType &t, std::vector<std::uint8_t> &payload);

    /** Chaos helper: send a frame whose header promises the full
     *  payload but deliver only @p bytes of it (the peer must treat
     *  the connection as dead, never trust partial fields). */
    bool sendTruncated(MsgType t, const std::vector<std::uint8_t> &payload,
                       std::size_t bytes);

    /** Chaos helper: send a complete, valid frame in @p chunk-byte
     *  slices with @p us_delay microseconds between slices (partial
     *  writes — the peer's reassembly must produce an identical
     *  message). */
    bool sendChunked(MsgType t, const std::vector<std::uint8_t> &payload,
                     std::size_t chunk, unsigned us_delay);

    int fd() const { return fd_; }
    void close();

  private:
    int fd_;
};

/** @return a connected stream-socket fd for the Unix socket at
 *  @p path, or -1 (with @p err set) on failure. @p errno_out (when
 *  non-null) receives the failing errno so callers can distinguish a
 *  daemon that is absent (ENOENT/ECONNREFUSED) from one that is
 *  present but broken. */
int connectUnix(const std::string &path, std::string *err,
                int *errno_out = nullptr);

/** @return a listening stream-socket fd bound to @p path (any stale
 *  socket file is replaced), or -1 (with @p err set) on failure. */
int listenUnix(const std::string &path, std::string *err);

/** Simple hello payload (both peer kinds). */
struct Hello
{
    std::uint32_t version = kVersion;
    std::int32_t pid = 0;

    /** Fair-share weight of this client's units: a priority-P client
     *  gets P consecutive unit dispatches per round-robin turn.
     *  Ignored in worker hellos. */
    std::uint32_t priority = 1;

    std::vector<std::uint8_t> encode() const;
    static bool decode(const std::vector<std::uint8_t> &payload,
                       Hello &out);
};

/**
 * Deterministic protocol/process-boundary fault injection for one
 * request (the chaos harness, docs/robustness.md). Units of the
 * request are assigned modes in creation order: the first exitUnits
 * units exit, the next hangUnits hang, and so on — replayable without
 * any randomness on the server. Retried units always run clean.
 */
struct ChaosSpec
{
    std::uint32_t exitUnits = 0;    ///< worker _exit(1) before running
    std::uint32_t hangUnits = 0;    ///< worker goes silent (no beats)
    std::uint32_t corruptUnits = 0; ///< result frame payload bit-flip
    std::uint32_t truncUnits = 0;   ///< half a result frame, then exit
    std::uint32_t delayUnits = 0;   ///< result delayed (beats continue)
    std::uint32_t dribbleUnits = 0; ///< result frame sent byte-trickled
    std::uint32_t delayMs = 0;      ///< delay for delayUnits

    bool
    any() const
    {
        return exitUnits || hangUnits || corruptUnits || truncUnits ||
               delayUnits || dribbleUnits;
    }
};

/** Per-unit chaos behavior (assigned by the server from the request's
 *  ChaosSpec; cleared on retry). */
enum class ChaosMode : std::uint8_t
{
    None = 0,
    Exit = 1,    ///< _exit(1) before simulating
    Hang = 2,    ///< suppress heartbeats and sleep until killed
    Corrupt = 3, ///< flip one payload byte of the result frame
    Trunc = 4,   ///< send half the result frame, then _exit(1)
    Delay = 5,   ///< sleep chaosParam ms before replying (beats flow)
    Dribble = 6, ///< send the result frame in tiny delayed chunks
};

/**
 * One sweep request: the plan identity plus the deterministic subset
 * of ExecOptions (everything that shapes simulated results; host-side
 * knobs like jobs or the observability sinks are not part of a
 * request — the server owns its worker pool, and serve mode is for
 * deterministic result production).
 */
struct SweepRequest
{
    std::string plan;     ///< registered plan name
    PlanOptions popt;     ///< scale / footprint / quick / baseSeed
    ExecOptions eopt;     ///< deterministic fields only (see encode)

    /** Per-request deadline in milliseconds from submit (0 = none).
     *  Expired requests fail with Error{kind=Deadline}; their pending
     *  units are dropped at dispatch and an in-flight unit's worker is
     *  killed and respawned so other clients are unaffected. */
    std::uint64_t deadlineMs = 0;

    /** Protocol/process fault injection for this request (tests and
     *  the chaos harness; an empty spec is the normal case). */
    ChaosSpec chaos;

    std::vector<std::uint8_t> encode() const;
    static bool decode(const std::vector<std::uint8_t> &payload,
                       SweepRequest &out, std::string *err);
};

/** What a worker should do with one unit. */
enum class UnitKind : std::uint8_t
{
    Run = 0,     ///< one (job × sample) measurement (sample < 0: full)
    Capture = 1, ///< one workload's snapshot-set capture pass
};

/** Server -> worker: one self-contained work unit. Carries the full
 *  request context — workers memoize plans and programs per context,
 *  so repeated units of one request pay the build cost once. */
struct UnitRequest
{
    std::uint64_t id = 0;
    UnitKind kind = UnitKind::Run;
    SweepRequest req;         ///< plan + options context
    std::uint32_t jobIndex = 0; ///< Run: index into the built plan
    std::int32_t sample = -1; ///< Run: sample index (-1 = full run)
    std::string workload;     ///< Capture: workload to warm
    std::string snapshotPath; ///< snapshot-set file ("" = none)
    ChaosMode chaosMode = ChaosMode::None; ///< fault-injection behavior
    std::uint32_t chaosParam = 0; ///< mode parameter (Delay: ms)

    std::vector<std::uint8_t> encode() const;
    static bool decode(const std::vector<std::uint8_t> &payload,
                       UnitRequest &out);
};

/** Worker -> server: one unit's outcome. SimResult is transported as
 *  raw object bytes: server and workers are the same binary (the
 *  daemon spawns its own executable), and the struct is trivially
 *  copyable — asserted at compile time in proto.cc. */
struct UnitResult
{
    std::uint64_t id = 0;
    bool ok = false;
    std::string message;      ///< failure description when !ok

    /** Run payload: runUnit()'s outcome (its observers stay
     *  in-process; requests never carry them). */
    UnitOutcome run;

    /** Whole-unit host time (a capture's too; its snapshot set is
     *  the file it published). Host-side metrics only. */
    double wallSeconds = 0.0;

    // Server-side annotations, never on the wire: workers always
    // report Generic failures; the server synthesizes Deadline ones
    // and stamps the unit's queue wait at dispatch.
    ErrKind errKind = ErrKind::Generic;
    double queueWaitSeconds = 0.0;

    std::vector<std::uint8_t> encode() const;
    static bool decode(const std::vector<std::uint8_t> &payload,
                       UnitResult &out);
};

/** Worker -> server: heartbeat emitted every kHeartbeatMs while a
 *  unit executes. A worker silent past the hang timeout is declared
 *  hung, killed and respawned. */
struct ProgressMsg
{
    std::uint64_t unitId = 0;

    std::vector<std::uint8_t> encode() const;
    static bool decode(const std::vector<std::uint8_t> &payload,
                       ProgressMsg &out);
};

/** Server -> client: accounting snapshot (StatsReply). The chaos
 *  harness asserts the balance unitsEnqueued == unitsCompleted +
 *  unitsFailed on an idle daemon — every unit is accounted exactly
 *  once no matter how its workers died. */
struct ServerStats
{
    std::uint64_t unitsEnqueued = 0;   ///< fresh units (retries excluded)
    std::uint64_t unitsCompleted = 0;  ///< units that returned ok
    std::uint64_t unitsFailed = 0;     ///< units that failed terminally
    std::uint64_t unitRetries = 0;     ///< crash/hang front-requeues
    std::uint64_t workerRestarts = 0;  ///< worker processes respawned
    std::uint64_t hangKills = 0;       ///< workers killed for silence
    std::uint64_t deadlineFailures = 0; ///< units failed on deadline
    std::uint64_t requestsServed = 0;  ///< requests fully streamed
    std::uint64_t requestsFailed = 0;  ///< requests answered with Error
    std::uint64_t cacheEvictions = 0;  ///< snapshot files evicted (LRU)
    std::uint64_t cacheGcRemoved = 0;  ///< stale entries GCed at start
    std::uint64_t cacheDiskBytes = 0;  ///< current cache directory size

    std::vector<std::uint8_t> encode() const;
    static bool decode(const std::vector<std::uint8_t> &payload,
                       ServerStats &out);
};

/** Server -> client: one plan-ordered result record (the exact
 *  resultRecordJson text) plus its index. */
struct ResultRecord
{
    std::uint32_t index = 0;
    std::string json;

    std::vector<std::uint8_t> encode() const;
    static bool decode(const std::vector<std::uint8_t> &payload,
                       ResultRecord &out);
};

/** Server -> client: the request completed. Carries the per-request
 *  exec-metrics JSON (host-side; the deterministic payload is the
 *  record stream) plus the headline cache counters for callers that
 *  don't want to parse JSON (the load-test harness). */
struct RequestDone
{
    std::uint32_t records = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::string metricsJson;

    std::vector<std::uint8_t> encode() const;
    static bool decode(const std::vector<std::uint8_t> &payload,
                       RequestDone &out);
};

/** Server -> client: request rejected or failed; also the reply to a
 *  malformed frame. */
struct ErrorMsg
{
    std::string message;
    ErrKind kind = ErrKind::Generic;

    std::vector<std::uint8_t> encode() const;
    static bool decode(const std::vector<std::uint8_t> &payload,
                       ErrorMsg &out);
};

} // namespace proto
} // namespace sweep
} // namespace sdv

#endif // SDV_SWEEP_PROTO_HH
