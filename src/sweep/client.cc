#include "sweep/client.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <mutex>
#include <thread>

#include <unistd.h>

#include "common/random.hh"
#include "common/serialize.hh"

namespace sdv {
namespace sweep {

std::string
ClientResult::resultsArray() const
{
    std::string out = "[\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
        out += records[i];
        out += i + 1 < records.size() ? ",\n" : "\n";
    }
    out += "]";
    return out;
}

const char *
submitStatusName(SubmitStatus s)
{
    switch (s) {
    case SubmitStatus::Ok: return "ok";
    case SubmitStatus::DaemonAbsent: return "daemon-absent";
    case SubmitStatus::ProtocolMismatch: return "protocol-mismatch";
    case SubmitStatus::Rejected: return "rejected";
    case SubmitStatus::DeadlineExpired: return "deadline-expired";
    case SubmitStatus::TransportError: return "transport-error";
    case SubmitStatus::ServerError: return "server-error";
    }
    return "unknown";
}

namespace {

/** Map a daemon ErrorMsg to the client verdict, composing the
 *  human-readable reason. A protocol mismatch quotes both versions —
 *  "present but incompatible" must read differently from "absent". */
SubmitStatus
classifyError(const proto::ErrorMsg &e, std::string *err)
{
    switch (e.kind) {
    case proto::ErrKind::Protocol:
        if (err)
            *err = "daemon refused: " + e.message + " (client speaks v" +
                   std::to_string(proto::kVersion) + ")";
        return SubmitStatus::ProtocolMismatch;
    case proto::ErrKind::Rejected:
        if (err)
            *err = e.message;
        return SubmitStatus::Rejected;
    case proto::ErrKind::Deadline:
        if (err)
            *err = e.message;
        return SubmitStatus::DeadlineExpired;
    case proto::ErrKind::Shutdown:
    case proto::ErrKind::Generic:
        break;
    }
    if (err)
        *err = e.message;
    return SubmitStatus::ServerError;
}

} // namespace

SubmitStatus
submitSweepOnce(const std::string &socketPath,
                const proto::SweepRequest &req, std::uint32_t priority,
                ClientResult &out, std::string *err,
                const std::function<void(std::uint32_t,
                                         const std::string &)> &onRecord)
{
    auto verdict = [&](SubmitStatus s) {
        out.status = s;
        return s;
    };

    out = ClientResult{};
    // Observability sinks are per-process and not part of a request:
    // the daemon would silently drop them, so refuse up front.
    if (req.eopt.traceEvents || req.eopt.telemetryInterval) {
        if (err)
            *err = std::string(req.eopt.traceEvents ? "--trace-events"
                                                    : "--telemetry") +
                   " is not supported with a sweep daemon; run the "
                   "sweep in-process to observe it";
        return verdict(SubmitStatus::Rejected);
    }
    int connErrno = 0;
    const int fd = proto::connectUnix(socketPath, err, &connErrno);
    if (fd < 0) {
        // ENOENT / ECONNREFUSED: nothing is listening — the caller can
        // fall back to in-process execution. Anything else is a daemon
        // that exists but cannot be talked to.
        return verdict(connErrno == ENOENT || connErrno == ECONNREFUSED
                           ? SubmitStatus::DaemonAbsent
                           : SubmitStatus::TransportError);
    }
    proto::Framed link(fd);

    proto::Hello hello;
    hello.pid = ::getpid();
    hello.priority = priority;
    if (!link.send(proto::MsgType::HelloClient, hello.encode()) ||
        !link.send(proto::MsgType::Submit, req.encode())) {
        if (err)
            *err = "could not send request (daemon gone?)";
        return verdict(SubmitStatus::TransportError);
    }

    proto::MsgType t;
    std::vector<std::uint8_t> payload;
    while (link.recv(t, payload)) {
        switch (t) {
        case proto::MsgType::ResultRecord: {
            proto::ResultRecord rec;
            if (!proto::ResultRecord::decode(payload, rec)) {
                if (err)
                    *err = "malformed record frame";
                return verdict(SubmitStatus::TransportError);
            }
            // Records stream in plan order; hold the invariant rather
            // than trusting it (a hole would silently mis-collate).
            if (rec.index != out.records.size()) {
                if (err)
                    *err = "record stream out of order";
                return verdict(SubmitStatus::TransportError);
            }
            if (onRecord)
                onRecord(rec.index, rec.json);
            out.records.push_back(std::move(rec.json));
            break;
        }
        case proto::MsgType::RequestDone: {
            proto::RequestDone done;
            if (!proto::RequestDone::decode(payload, done)) {
                if (err)
                    *err = "malformed completion frame";
                return verdict(SubmitStatus::TransportError);
            }
            if (done.records != out.records.size()) {
                if (err)
                    *err = "record stream truncated";
                return verdict(SubmitStatus::TransportError);
            }
            out.metricsJson = std::move(done.metricsJson);
            out.cacheHits = done.cacheHits;
            out.cacheMisses = done.cacheMisses;
            return verdict(SubmitStatus::Ok);
        }
        case proto::MsgType::Error: {
            proto::ErrorMsg e;
            if (!proto::ErrorMsg::decode(payload, e)) {
                if (err)
                    *err = "malformed error frame";
                return verdict(SubmitStatus::TransportError);
            }
            return verdict(classifyError(e, err));
        }
        default:
            if (err)
                *err = "unexpected frame from server";
            return verdict(SubmitStatus::TransportError);
        }
    }
    if (err)
        *err = "connection closed mid-request";
    return verdict(SubmitStatus::TransportError);
}

SubmitStatus
submitSweepRetry(const std::string &socketPath,
                 const proto::SweepRequest &req,
                 const ClientOptions &copt, ClientResult &out,
                 std::string *err,
                 const std::function<void(std::uint32_t,
                                          const std::string &)> &onRecord)
{
    Random rng(copt.retrySeed ^ 0x5dbac1b0ff5ULL);
    SubmitStatus s = SubmitStatus::TransportError;
    unsigned attempts = 0;
    std::uint64_t backoff = std::max(1u, copt.backoffMs);
    for (unsigned a = 0; a <= copt.retries; ++a) {
        s = submitSweepOnce(socketPath, req, copt.priority, out, err,
                            onRecord);
        ++attempts;
        if (s != SubmitStatus::DaemonAbsent &&
            s != SubmitStatus::TransportError)
            break; // Ok or a daemon verdict — retrying cannot help
        if (a == copt.retries)
            break;
        // Jittered exponential backoff: [backoff/2, backoff]ms, then
        // double. Safe to resubmit: the served stream is deterministic,
        // so a duplicate attempt yields byte-identical records.
        const std::uint64_t sleepMs =
            backoff / 2 + rng.below(backoff / 2 + 1);
        std::this_thread::sleep_for(std::chrono::milliseconds(sleepMs));
        backoff *= 2;
    }
    out.attempts = attempts;
    return s;
}

bool
submitSweep(const std::string &socketPath,
            const proto::SweepRequest &req, ClientResult &out,
            std::string *err,
            const std::function<void(std::uint32_t,
                                     const std::string &)> &onRecord)
{
    return submitSweepOnce(socketPath, req, 1, out, err, onRecord) ==
           SubmitStatus::Ok;
}

bool
queryStats(const std::string &socketPath, proto::ServerStats &out,
           std::string *err)
{
    const int fd = proto::connectUnix(socketPath, err);
    if (fd < 0)
        return false;
    proto::Framed link(fd);
    proto::Hello hello;
    hello.pid = ::getpid();
    Serializer empty;
    if (!link.send(proto::MsgType::HelloClient, hello.encode()) ||
        !link.send(proto::MsgType::StatsQuery, empty.finish())) {
        if (err)
            *err = "could not send stats query";
        return false;
    }
    proto::MsgType t;
    std::vector<std::uint8_t> payload;
    if (!link.recv(t, payload) || t != proto::MsgType::StatsReply ||
        !proto::ServerStats::decode(payload, out)) {
        if (err)
            *err = "malformed stats reply";
        return false;
    }
    return true;
}

bool
requestShutdown(const std::string &socketPath, std::string *err)
{
    const int fd = proto::connectUnix(socketPath, err);
    if (fd < 0)
        return false;
    proto::Framed link(fd);
    proto::Hello hello;
    hello.pid = ::getpid();
    Serializer empty; // sealed zero-field payload (recv checksums all)
    return link.send(proto::MsgType::HelloClient, hello.encode()) &&
           link.send(proto::MsgType::Shutdown, empty.finish());
}

double
LoadTestResult::hitRate() const
{
    const double total = double(cacheHits + cacheMisses);
    return total <= 0.0 ? 0.0 : double(cacheHits) / total;
}

bool
runLoadTest(const std::string &socketPath,
            const proto::SweepRequest &req,
            const LoadTestOptions &lopt, LoadTestResult &out,
            std::string *err)
{
    out = LoadTestResult{};
    const unsigned total = std::max(1u, lopt.requests);
    const unsigned conc =
        std::min(std::max(1u, lopt.concurrency), total);

    std::mutex m;
    std::vector<double> latencies;
    latencies.reserve(total);
    std::string firstErr;

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < conc; ++c) {
        // Each connection submits its share back-to-back: the daemon
        // sees `conc` live clients and a standing queue of requests.
        const unsigned share = total / conc + (c < total % conc);
        threads.emplace_back([&, share] {
            for (unsigned i = 0; i < share; ++i) {
                ClientResult res;
                std::string e;
                const auto r0 = std::chrono::steady_clock::now();
                const bool ok =
                    submitSweep(socketPath, req, res, &e);
                const double secs = secondsSince(r0);
                std::lock_guard<std::mutex> lk(m);
                if (ok) {
                    ++out.completed;
                    latencies.push_back(secs);
                    out.cacheHits += res.cacheHits;
                    out.cacheMisses += res.cacheMisses;
                } else {
                    ++out.failed;
                    if (firstErr.empty())
                        firstErr = e;
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    out.wallSeconds = secondsSince(t0);
    out.requestsPerSecond =
        out.wallSeconds > 0.0 ? out.completed / out.wallSeconds : 0.0;

    std::sort(latencies.begin(), latencies.end());
    auto pct = [&](double p) {
        if (latencies.empty())
            return 0.0;
        const std::size_t idx = std::min(
            latencies.size() - 1,
            std::size_t(p * double(latencies.size())));
        return latencies[idx];
    };
    out.p50 = pct(0.50);
    out.p95 = pct(0.95);
    out.p99 = pct(0.99);

    if (out.failed) {
        if (err)
            *err = std::to_string(out.failed) +
                   " request(s) failed; first error: " + firstErr;
        return false;
    }
    return true;
}

} // namespace sweep
} // namespace sdv
