#include "sweep/snapshot_cache.hh"

#include <cstdio>
#include <cstdlib>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/log.hh"
#include "common/serialize.hh"

namespace sdv {
namespace sweep {

namespace {

/** Snapshot-set containers. Version 2 seals with checksum64. */
constexpr Checkpoint::Format setFormat = {
    {'S', 'D', 'V', 'S', 'N', 'A', 'P', '1'}, 2};

} // namespace

bool
saveSnapshotSet(const std::string &path, const SnapshotSet &s)
{
    Serializer ser;
    ser.bytes(setFormat.magic, sizeof(setFormat.magic));
    ser.u32(setFormat.version);
    ser.u64(s.programHash);
    ser.b(s.sampled);
    ser.b(s.captured);
    ser.u64(s.set.totalInsts);
    ser.u64(s.set.periodInsts);
    ser.u64(s.set.samples.size());
    for (const SampleCheckpoint &sc : s.set.samples) {
        ser.u64(sc.startInst);
        ser.u64(sc.regionInsts);
        ser.u64(sc.measureInsts);
        ser.u64(sc.bytes.size());
        ser.bytes(sc.bytes.data(), sc.bytes.size());
    }
    // Checkpoint::save publishes atomically (temp + rename) and the
    // Serializer seals with the checksum64 trailer Checkpoint::load
    // verifies — the container rides the same torn-write guarantees
    // as the images it holds.
    return Checkpoint::save(path, ser.finish());
}

Checkpoint::LoadStatus
loadSnapshotSet(const std::string &path, SnapshotSet &out)
{
    std::vector<std::uint8_t> bytes;
    const auto st = Checkpoint::load(path, bytes, setFormat);
    if (st != Checkpoint::LoadStatus::Ok)
        return st;

    // load() verified the checksum (and the version, for this magic):
    // read the payload window only.
    Deserializer des(bytes.data(), bytes.size() - Serializer::trailerBytes);
    if (Checkpoint::readHeader(des, setFormat) != Checkpoint::LoadStatus::Ok)
        return Checkpoint::LoadStatus::Corrupt;
    out.programHash = des.u64();
    out.sampled = des.b();
    out.captured = des.b();
    out.set.totalInsts = des.u64();
    out.set.periodInsts = des.u64();
    const std::uint64_t n = des.u64();
    if (!des.ok() || n > (1u << 20))
        return Checkpoint::LoadStatus::Corrupt;
    out.set.samples.assign(std::size_t(n), SampleCheckpoint{});
    for (SampleCheckpoint &sc : out.set.samples) {
        sc.startInst = des.u64();
        sc.regionInsts = des.u64();
        sc.measureInsts = des.u64();
        const std::uint64_t len = des.u64();
        if (!des.ok() || len > bytes.size())
            return Checkpoint::LoadStatus::Corrupt;
        sc.bytes.resize(std::size_t(len));
        if (!des.bytes(sc.bytes.data(), sc.bytes.size()))
            return Checkpoint::LoadStatus::Corrupt;
    }
    return des.atEnd() ? Checkpoint::LoadStatus::Ok
                       : Checkpoint::LoadStatus::Corrupt;
}

std::string
snapshotKey(const proto::SweepRequest &req, const std::string &workload,
            std::uint64_t warmCfgHash, std::uint64_t binFingerprint)
{
    char buf[160];
    const ExecOptions &o = req.eopt;
    std::string key = workload;
    key += ".s" + std::to_string(req.popt.scale);
    key += ".";
    key += footprintName(req.popt.footprint);
    key += ".w" + std::to_string(o.warmupInsts);
    if (o.sample.enabled()) {
        std::snprintf(buf, sizeof(buf), ".S%u.m%llu.p%llu",
                      o.sample.samples,
                      static_cast<unsigned long long>(
                          o.sample.measureInsts),
                      static_cast<unsigned long long>(
                          o.sample.periodInsts));
        key += buf;
    } else {
        key += ".one";
    }
    // The cycle budget shapes capture *failure* (a boundary that was
    // unreachable within the budget is a cached negative), so a bigger
    // budget must not reuse a smaller budget's verdict.
    std::snprintf(buf, sizeof(buf), ".mc%llu.c%016llx.b%016llx",
                  static_cast<unsigned long long>(o.maxCycles),
                  static_cast<unsigned long long>(warmCfgHash),
                  static_cast<unsigned long long>(binFingerprint));
    key += buf;
    return key;
}

namespace {

/** Parse the binary-fingerprint component out of a cache file name
 *  (`<key>.b<hex16>.snap`). @retval false for files that are not
 *  snapshot containers (left alone by the GC). */
bool
parseFingerprint(const std::string &name, std::uint64_t *fp)
{
    constexpr char suffix[] = ".snap";
    constexpr std::size_t hexLen = 16;
    const std::size_t sufLen = sizeof(suffix) - 1;
    if (name.size() < sufLen + hexLen + 2)
        return false;
    if (name.compare(name.size() - sufLen, sufLen, suffix) != 0)
        return false;
    const std::size_t hexStart = name.size() - sufLen - hexLen;
    if (name[hexStart - 2] != '.' || name[hexStart - 1] != 'b')
        return false;
    std::uint64_t v = 0;
    for (std::size_t i = hexStart; i < hexStart + hexLen; ++i) {
        const char c = name[i];
        v <<= 4;
        if (c >= '0' && c <= '9')
            v |= std::uint64_t(c - '0');
        else if (c >= 'a' && c <= 'f')
            v |= std::uint64_t(c - 'a' + 10);
        else
            return false;
    }
    *fp = v;
    return true;
}

} // namespace

SnapshotCache::SnapshotCache(std::string dir, std::uint64_t limit_bytes)
    : dir_(std::move(dir)), limit_(limit_bytes)
{
}

std::string
SnapshotCache::pathFor(const std::string &key) const
{
    return dir_ + "/" + key + ".snap";
}

unsigned
SnapshotCache::gcStale(std::uint64_t bin_fingerprint)
{
    DIR *d = ::opendir(dir_.c_str());
    if (!d)
        return 0;
    unsigned removed = 0;
    std::lock_guard<std::mutex> lk(m_);
    while (dirent *de = ::readdir(d)) {
        const std::string name = de->d_name;
        std::uint64_t fp = 0;
        if (!parseFingerprint(name, &fp))
            continue;
        const std::string path = dir_ + "/" + name;
        if (fp != bin_fingerprint) {
            // Stale-but-present: captured by a different build of the
            // simulator binary; it would never be keyed again, so it
            // would otherwise sit in the directory forever.
            if (::unlink(path.c_str()) == 0) {
                ++removed;
                ++stats_.gcRemoved;
            }
            continue;
        }
        struct stat st{};
        if (::stat(path.c_str(), &st) != 0)
            continue;
        FileInfo fi;
        fi.size = std::uint64_t(st.st_size);
        // Seed the LRU clock from on-disk atime so recency survives a
        // server restart; the in-memory clock takes over afterwards.
        fi.lastUse = std::uint64_t(st.st_atime);
        const std::string key = name.substr(0, name.size() - 5);
        diskBytes_ += fi.size;
        files_[key] = fi;
        if (useClock_ <= fi.lastUse)
            useClock_ = fi.lastUse + 1;
    }
    ::closedir(d);
    stats_.diskBytes = diskBytes_;
    evictToLimitLocked("");
    return removed;
}

std::shared_ptr<void>
SnapshotCache::pin(const std::string &key)
{
    {
        std::lock_guard<std::mutex> lk(m_);
        ++pins_[key];
    }
    return std::shared_ptr<void>(nullptr, [this, key](void *) {
        std::lock_guard<std::mutex> lk(m_);
        auto it = pins_.find(key);
        if (it != pins_.end() && --it->second == 0) {
            pins_.erase(it);
            // A pinned file may have kept the directory over budget;
            // shrink as soon as the pin drops.
            evictToLimitLocked("");
        }
    });
}

std::uint64_t
SnapshotCache::diskBytes() const
{
    std::lock_guard<std::mutex> lk(m_);
    return diskBytes_;
}

void
SnapshotCache::noteFileLocked(const std::string &key)
{
    struct stat st{};
    if (::stat(pathFor(key).c_str(), &st) != 0)
        return;
    auto it = files_.find(key);
    if (it != files_.end())
        diskBytes_ -= it->second.size;
    FileInfo fi;
    fi.size = std::uint64_t(st.st_size);
    fi.lastUse = ++useClock_;
    diskBytes_ += fi.size;
    files_[key] = fi;
    stats_.diskBytes = diskBytes_;
}

void
SnapshotCache::touchLocked(const std::string &key)
{
    auto it = files_.find(key);
    if (it == files_.end())
        return;
    it->second.lastUse = ++useClock_;
    // Mirror recency to the filesystem (atime only) so a restarted
    // server's GC scan reconstructs the same LRU order.
    struct timespec ts[2];
    ts[0].tv_sec = 0;
    ts[0].tv_nsec = UTIME_NOW;
    ts[1].tv_sec = 0;
    ts[1].tv_nsec = UTIME_OMIT;
    ::utimensat(AT_FDCWD, pathFor(key).c_str(), ts, 0);
}

void
SnapshotCache::evictToLimitLocked(const std::string &protect)
{
    if (limit_ == 0)
        return;
    while (diskBytes_ > limit_) {
        const std::string *victim = nullptr;
        std::uint64_t oldest = 0;
        for (const auto &kv : files_) {
            if (kv.first == protect || pins_.count(kv.first))
                continue;
            // Never evict a key someone is capturing right now: its
            // waiters would load a vanished file.
            auto eit = entries_.find(kv.first);
            if (eit != entries_.end() && !eit->second->ready)
                continue;
            if (!victim || kv.second.lastUse < oldest) {
                victim = &kv.first;
                oldest = kv.second.lastUse;
            }
        }
        if (!victim)
            return; // everything left is pinned or in flight
        const std::string key = *victim;
        ::unlink(pathFor(key).c_str());
        diskBytes_ -= files_[key].size;
        files_.erase(key);
        // Drop the memory entry too: a memory hit whose file was
        // unlinked would hand workers a dead snapshot path.
        entries_.erase(key);
        ++stats_.evictions;
        stats_.diskBytes = diskBytes_;
    }
}

std::shared_ptr<const SnapshotSet>
SnapshotCache::acquire(
    const std::string &key,
    const std::function<bool(const std::string &path, std::string *err)>
        &capture,
    std::string *err, Outcome *outcome)
{
    std::shared_ptr<Entry> e;
    bool leader = false;
    {
        std::unique_lock<std::mutex> lk(m_);
        auto it = entries_.find(key);
        if (it == entries_.end()) {
            e = std::make_shared<Entry>();
            entries_.emplace(key, e);
            leader = true;
        } else {
            e = it->second;
            if (e->ready) {
                ++stats_.hits;
                touchLocked(key);
                if (outcome)
                    *outcome = Outcome::Hit;
                return e->set;
            }
            // Single-flight: someone else is capturing this key right
            // now; wait for their verdict instead of racing a
            // redundant warm-up.
            ++stats_.waits;
            if (outcome)
                *outcome = Outcome::Wait;
            cv_.wait(lk, [&] { return e->ready || e->failed; });
            if (e->ready) {
                return e->set;
            }
            if (err)
                *err = e->error;
            return nullptr;
        }
    }

    (void)leader; // from here on this thread owns the key's capture
    const std::string path = pathFor(key);
    auto set = std::make_shared<SnapshotSet>();
    std::string localErr;
    bool ok = false;
    bool miss = false;

    const auto st = loadSnapshotSet(path, *set);
    if (st == Checkpoint::LoadStatus::Ok) {
        ok = true; // disk hit from an earlier server run
    } else {
        if (st == Checkpoint::LoadStatus::Corrupt)
            warn_once("cached snapshot set ", path,
                      " is corrupt (torn or truncated write?); "
                      "recapturing");
        miss = true;
        ok = capture(path, &localErr);
        if (ok) {
            const auto st2 = loadSnapshotSet(path, *set);
            if (st2 != Checkpoint::LoadStatus::Ok) {
                ok = false;
                localErr = "capture produced no readable snapshot "
                           "set at " +
                           path;
            }
        }
    }

    std::lock_guard<std::mutex> lk(m_);
    if (ok) {
        if (miss)
            ++stats_.misses;
        else
            ++stats_.hits;
        if (outcome)
            *outcome = miss ? Outcome::Miss : Outcome::Hit;
        e->set = std::move(set);
        e->ready = true;
        // Account the published (or rediscovered) container file and
        // shrink back under the byte budget, preferring any key over
        // the one just produced.
        noteFileLocked(key);
        touchLocked(key);
        evictToLimitLocked(key);
    } else {
        // Failures are not cached: drop the entry so a later acquire
        // retries the capture from scratch.
        e->failed = true;
        e->error = localErr;
        entries_.erase(key);
        if (err)
            *err = localErr;
    }
    cv_.notify_all();
    return ok ? e->set : nullptr;
}

SnapshotCache::Stats
SnapshotCache::stats() const
{
    std::lock_guard<std::mutex> lk(m_);
    return stats_;
}

} // namespace sweep
} // namespace sdv
