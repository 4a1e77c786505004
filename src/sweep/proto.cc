#include "sweep/proto.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <type_traits>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/serialize.hh"

namespace sdv {
namespace sweep {
namespace proto {

namespace {

// SimResult crosses the wire as raw object bytes (same binary on both
// ends: the daemon execs its own executable as workers). Both
// properties that makes safe are asserted here: the struct is a plain
// aggregate, and the frame embeds sizeof so a mismatched binary is
// rejected instead of misread.
static_assert(std::is_trivially_copyable_v<SimResult>,
              "SimResult is transported as raw bytes");

bool
writeAll(int fd, const void *buf, std::size_t len)
{
    const std::uint8_t *p = static_cast<const std::uint8_t *>(buf);
    while (len > 0) {
        // MSG_NOSIGNAL: a vanished peer yields EPIPE, not SIGPIPE.
        const ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        len -= std::size_t(n);
    }
    return true;
}

/** Frame header: u32 LE payload length, then the message type. */
bool
writeHeader(int fd, MsgType t, std::size_t len)
{
    const std::uint8_t hdr[5] = {
        std::uint8_t(len), std::uint8_t(len >> 8), std::uint8_t(len >> 16),
        std::uint8_t(len >> 24), std::uint8_t(t)};
    return writeAll(fd, hdr, sizeof(hdr));
}

bool
readAll(int fd, void *buf, std::size_t len)
{
    std::uint8_t *p = static_cast<std::uint8_t *>(buf);
    while (len > 0) {
        const ssize_t n = ::recv(fd, p, len, 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false; // EOF mid-frame (or before one)
        p += n;
        len -= std::size_t(n);
    }
    return true;
}

void
encodeExecOptions(Serializer &ser, const ExecOptions &o)
{
    // Deterministic fields only: everything that shapes simulated
    // results. Host-side knobs (jobs, observability sinks, the
    // wall-clock watchdog) stay with whoever runs the simulation.
    ser.b(o.eventSkip);
    ser.b(o.trace);
    ser.b(o.checkpoint);
    ser.u64(o.warmupInsts);
    ser.u64(o.maxCycles);
    ser.b(o.verify);
    ser.u64(o.quiesceInterval);
    ser.b(o.eagerChain);
    ser.b(o.fault.enabled);
    ser.u64(o.fault.seed);
    ser.u32(o.fault.elemFlipPpm);
    ser.u32(o.fault.vrmtFlipPpm);
    ser.u32(o.fault.imageFlipPpm);
    ser.u32(o.fault.tlFlipPpm);
    ser.u32(o.fault.gmrbbFlipPpm);
    ser.u32(o.fault.demoteThreshold);
    ser.u64(o.fault.reenableWindow);
    ser.u32(o.sample.samples);
    ser.u64(o.sample.measureInsts);
    ser.u64(o.sample.periodInsts);
}

void
decodeExecOptions(Deserializer &des, ExecOptions &o)
{
    o.eventSkip = des.b();
    o.trace = des.b();
    o.checkpoint = des.b();
    o.warmupInsts = des.u64();
    o.maxCycles = des.u64();
    o.verify = des.b();
    o.quiesceInterval = des.u64();
    o.eagerChain = des.b();
    o.fault.enabled = des.b();
    o.fault.seed = des.u64();
    o.fault.elemFlipPpm = des.u32();
    o.fault.vrmtFlipPpm = des.u32();
    o.fault.imageFlipPpm = des.u32();
    o.fault.tlFlipPpm = des.u32();
    o.fault.gmrbbFlipPpm = des.u32();
    o.fault.demoteThreshold = des.u32();
    o.fault.reenableWindow = des.u64();
    o.sample.samples = des.u32();
    o.sample.measureInsts = des.u64();
    o.sample.periodInsts = des.u64();
}

void
encodeRequest(Serializer &ser, const SweepRequest &r)
{
    ser.str(r.plan);
    ser.u32(r.popt.scale);
    ser.u8(std::uint8_t(r.popt.footprint));
    ser.b(r.popt.quick);
    ser.u64(r.popt.baseSeed);
    encodeExecOptions(ser, r.eopt);
    ser.u64(r.deadlineMs);
    ser.u32(r.chaos.exitUnits);
    ser.u32(r.chaos.hangUnits);
    ser.u32(r.chaos.corruptUnits);
    ser.u32(r.chaos.truncUnits);
    ser.u32(r.chaos.delayUnits);
    ser.u32(r.chaos.dribbleUnits);
    ser.u32(r.chaos.delayMs);
}

bool
decodeRequest(Deserializer &des, SweepRequest &r)
{
    r.plan = des.str();
    r.popt.scale = des.u32();
    const std::uint8_t fp = des.u8();
    if (fp > std::uint8_t(Footprint::Mem)) {
        des.fail();
        return false;
    }
    r.popt.footprint = Footprint(fp);
    r.popt.quick = des.b();
    r.popt.baseSeed = des.u64();
    decodeExecOptions(des, r.eopt);
    r.deadlineMs = des.u64();
    r.chaos.exitUnits = des.u32();
    r.chaos.hangUnits = des.u32();
    r.chaos.corruptUnits = des.u32();
    r.chaos.truncUnits = des.u32();
    r.chaos.delayUnits = des.u32();
    r.chaos.dribbleUnits = des.u32();
    r.chaos.delayMs = des.u32();
    return des.ok();
}

/** A stream socket plus @p path as its address. @return -1 (with
 *  @p err, and errno set for a socket() failure) on error. */
int
unixSocket(const std::string &path, sockaddr_un &addr, std::string *err)
{
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        if (err)
            *err = "socket path too long: " + path;
        errno = 0;
        return -1;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0 && err)
        *err = std::string("socket: ") + std::strerror(errno);
    return fd;
}

} // namespace

bool
Framed::send(MsgType t, const std::vector<std::uint8_t> &payload)
{
    return fd_ >= 0 && payload.size() <= kMaxFrameBytes &&
           writeHeader(fd_, t, payload.size()) &&
           writeAll(fd_, payload.data(), payload.size());
}

bool
Framed::recv(MsgType &t, std::vector<std::uint8_t> &payload)
{
    if (fd_ < 0)
        return false;
    std::uint8_t hdr[5];
    if (!readAll(fd_, hdr, sizeof(hdr)))
        return false;
    const std::uint32_t len = std::uint32_t(hdr[0]) |
                              std::uint32_t(hdr[1]) << 8 |
                              std::uint32_t(hdr[2]) << 16 |
                              std::uint32_t(hdr[3]) << 24;
    if (len > kMaxFrameBytes)
        return false;
    t = MsgType(hdr[4]);
    payload.resize(len);
    if (!readAll(fd_, payload.data(), len))
        return false;
    // Every payload was sealed by Serializer::finish; verify before
    // any field is trusted (a probe-only check: decoding re-verifies).
    Deserializer des(payload);
    return des.verifyChecksum();
}

bool
Framed::sendTruncated(MsgType t, const std::vector<std::uint8_t> &payload,
                      std::size_t bytes)
{
    return fd_ >= 0 && payload.size() <= kMaxFrameBytes &&
           writeHeader(fd_, t, payload.size()) &&
           writeAll(fd_, payload.data(), std::min(bytes, payload.size()));
}

bool
Framed::sendChunked(MsgType t, const std::vector<std::uint8_t> &payload,
                    std::size_t chunk, unsigned us_delay)
{
    if (fd_ < 0 || payload.size() > kMaxFrameBytes || chunk == 0 ||
        !writeHeader(fd_, t, payload.size()))
        return false;
    for (std::size_t off = 0; off < payload.size(); off += chunk) {
        const std::size_t n = std::min(chunk, payload.size() - off);
        if (!writeAll(fd_, payload.data() + off, n))
            return false;
        if (us_delay)
            ::usleep(us_delay);
    }
    return true;
}

void
Framed::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

int
connectUnix(const std::string &path, std::string *err, int *errno_out)
{
    if (errno_out)
        *errno_out = 0;
    sockaddr_un addr{};
    const int fd = unixSocket(path, addr, err);
    if (fd < 0) {
        if (errno_out)
            *errno_out = errno;
        return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        if (err)
            *err = "connect " + path + ": " + std::strerror(errno);
        if (errno_out)
            *errno_out = errno;
        ::close(fd);
        return -1;
    }
    return fd;
}

int
listenUnix(const std::string &path, std::string *err)
{
    sockaddr_un addr{};
    const int fd = unixSocket(path, addr, err);
    if (fd < 0)
        return -1;
    ::unlink(path.c_str()); // replace a stale socket file
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 64) != 0) {
        if (err)
            *err = "bind/listen " + path + ": " + std::strerror(errno);
        ::close(fd);
        return -1;
    }
    return fd;
}

std::vector<std::uint8_t>
Hello::encode() const
{
    Serializer ser;
    ser.u32(version);
    ser.u64(std::uint64_t(std::int64_t(pid)));
    ser.u32(priority);
    return ser.finish();
}

bool
Hello::decode(const std::vector<std::uint8_t> &payload, Hello &out)
{
    Deserializer des(payload);
    if (!des.verifyChecksum())
        return false;
    out.version = des.u32();
    out.pid = std::int32_t(std::int64_t(des.u64()));
    out.priority = des.u32();
    if (out.priority == 0)
        out.priority = 1;
    return des.atEnd();
}

std::vector<std::uint8_t>
SweepRequest::encode() const
{
    Serializer ser;
    encodeRequest(ser, *this);
    return ser.finish();
}

bool
SweepRequest::decode(const std::vector<std::uint8_t> &payload,
                     SweepRequest &out, std::string *err)
{
    Deserializer des(payload);
    if (!des.verifyChecksum()) {
        if (err)
            *err = "request frame corrupt (checksum mismatch)";
        return false;
    }
    if (!decodeRequest(des, out) || !des.atEnd()) {
        if (err)
            *err = "request frame malformed";
        return false;
    }
    return true;
}

std::vector<std::uint8_t>
UnitRequest::encode() const
{
    Serializer ser;
    ser.u64(id);
    ser.u8(std::uint8_t(kind));
    encodeRequest(ser, req);
    ser.u32(jobIndex);
    ser.u64(std::uint64_t(std::int64_t(sample)));
    ser.str(workload);
    ser.str(snapshotPath);
    ser.u8(std::uint8_t(chaosMode));
    ser.u32(chaosParam);
    return ser.finish();
}

bool
UnitRequest::decode(const std::vector<std::uint8_t> &payload,
                    UnitRequest &out)
{
    Deserializer des(payload);
    if (!des.verifyChecksum())
        return false;
    out.id = des.u64();
    const std::uint8_t k = des.u8();
    if (k > std::uint8_t(UnitKind::Capture))
        return false;
    out.kind = UnitKind(k);
    if (!decodeRequest(des, out.req))
        return false;
    out.jobIndex = des.u32();
    out.sample = std::int32_t(std::int64_t(des.u64()));
    out.workload = des.str();
    out.snapshotPath = des.str();
    const std::uint8_t cm = des.u8();
    if (cm > std::uint8_t(ChaosMode::Dribble))
        return false;
    out.chaosMode = ChaosMode(cm);
    out.chaosParam = des.u32();
    return des.atEnd();
}

std::vector<std::uint8_t>
UnitResult::encode() const
{
    Serializer ser;
    ser.u64(id);
    ser.b(ok);
    ser.str(message);
    ser.u32(std::uint32_t(sizeof(SimResult)));
    ser.bytes(&run.res, sizeof(SimResult));
    ser.u64(run.commitHash);
    ser.b(run.fromCheckpoint);
    ser.b(run.timedOut);
    ser.u64(run.restoredBytes);
    ser.u64(std::uint64_t(run.wallSeconds * 1e6)); // microseconds
    ser.u64(std::uint64_t(wallSeconds * 1e6));
    return ser.finish();
}

bool
UnitResult::decode(const std::vector<std::uint8_t> &payload,
                   UnitResult &out)
{
    Deserializer des(payload);
    if (!des.verifyChecksum())
        return false;
    out.id = des.u64();
    out.ok = des.b();
    out.message = des.str();
    if (des.u32() != sizeof(SimResult))
        return false; // mismatched binary
    if (!des.bytes(&out.run.res, sizeof(SimResult)))
        return false;
    out.run.commitHash = des.u64();
    out.run.fromCheckpoint = des.b();
    out.run.timedOut = des.b();
    out.run.restoredBytes = des.u64();
    out.run.wallSeconds = double(des.u64()) * 1e-6;
    out.wallSeconds = double(des.u64()) * 1e-6;
    return des.atEnd();
}

std::vector<std::uint8_t>
ResultRecord::encode() const
{
    Serializer ser;
    ser.u32(index);
    ser.str(json);
    return ser.finish();
}

bool
ResultRecord::decode(const std::vector<std::uint8_t> &payload,
                     ResultRecord &out)
{
    Deserializer des(payload);
    if (!des.verifyChecksum())
        return false;
    out.index = des.u32();
    out.json = des.str();
    return des.atEnd();
}

std::vector<std::uint8_t>
RequestDone::encode() const
{
    Serializer ser;
    ser.u32(records);
    ser.u64(cacheHits);
    ser.u64(cacheMisses);
    ser.str(metricsJson);
    return ser.finish();
}

bool
RequestDone::decode(const std::vector<std::uint8_t> &payload,
                    RequestDone &out)
{
    Deserializer des(payload);
    if (!des.verifyChecksum())
        return false;
    out.records = des.u32();
    out.cacheHits = des.u64();
    out.cacheMisses = des.u64();
    out.metricsJson = des.str();
    return des.atEnd();
}

std::vector<std::uint8_t>
ErrorMsg::encode() const
{
    Serializer ser;
    ser.str(message);
    ser.u8(std::uint8_t(kind));
    return ser.finish();
}

bool
ErrorMsg::decode(const std::vector<std::uint8_t> &payload,
                 ErrorMsg &out)
{
    Deserializer des(payload);
    if (!des.verifyChecksum())
        return false;
    out.message = des.str();
    out.kind = ErrKind::Generic;
    // Tolerate a v1 error payload (no kind byte): the one cross-version
    // exchange is the server's protocol-mismatch reply at hello time,
    // and it must stay displayable.
    if (!des.atEnd()) {
        const std::uint8_t k = des.u8();
        if (k <= std::uint8_t(ErrKind::Shutdown))
            out.kind = ErrKind(k);
    }
    return des.atEnd();
}

std::vector<std::uint8_t>
ProgressMsg::encode() const
{
    Serializer ser;
    ser.u64(unitId);
    return ser.finish();
}

bool
ProgressMsg::decode(const std::vector<std::uint8_t> &payload,
                    ProgressMsg &out)
{
    Deserializer des(payload);
    if (!des.verifyChecksum())
        return false;
    out.unitId = des.u64();
    return des.atEnd();
}

std::vector<std::uint8_t>
ServerStats::encode() const
{
    Serializer ser;
    ser.u64(unitsEnqueued);
    ser.u64(unitsCompleted);
    ser.u64(unitsFailed);
    ser.u64(unitRetries);
    ser.u64(workerRestarts);
    ser.u64(hangKills);
    ser.u64(deadlineFailures);
    ser.u64(requestsServed);
    ser.u64(requestsFailed);
    ser.u64(cacheEvictions);
    ser.u64(cacheGcRemoved);
    ser.u64(cacheDiskBytes);
    return ser.finish();
}

bool
ServerStats::decode(const std::vector<std::uint8_t> &payload,
                    ServerStats &out)
{
    Deserializer des(payload);
    if (!des.verifyChecksum())
        return false;
    out.unitsEnqueued = des.u64();
    out.unitsCompleted = des.u64();
    out.unitsFailed = des.u64();
    out.unitRetries = des.u64();
    out.workerRestarts = des.u64();
    out.hangKills = des.u64();
    out.deadlineFailures = des.u64();
    out.requestsServed = des.u64();
    out.requestsFailed = des.u64();
    out.cacheEvictions = des.u64();
    out.cacheGcRemoved = des.u64();
    out.cacheDiskBytes = des.u64();
    return des.atEnd();
}

} // namespace proto
} // namespace sweep
} // namespace sdv
