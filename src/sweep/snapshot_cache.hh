/**
 * @file
 * Process-shared snapshot cache for the sweep work-server: capture-pass
 * results (one-boundary checkpoints and interval-sample sets) keyed by
 * everything that shapes the capture — workload, scale, footprint,
 * warm-up length, sampling parameters, the canonical warm-config hash
 * (sim/config.hh: configIdentityHash) and a fingerprint of the worker
 * binary — persisted as one container file per key under the cache
 * directory, published atomically (Checkpoint::save's temp + rename)
 * and integrity-checked on load (checksum64 trailer).
 *
 * Concurrent clients requesting the same grid share one warmup via
 * single-flight deduplication: the first acquire() of a key runs the
 * capture callback; every concurrent acquire() of the same key blocks
 * on that one capture instead of racing N redundant passes. Negative
 * results (a workload with no usable boundary) are cached too, so
 * hopeless captures are not retried per request.
 */

#ifndef SDV_SWEEP_SNAPSHOT_CACHE_HH
#define SDV_SWEEP_SNAPSHOT_CACHE_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sweep/checkpoint.hh"
#include "sweep/proto.hh"
#include "sweep/unit.hh"

namespace sdv {
namespace sweep {

/** Serialize + atomically publish @p s at @p path. */
bool saveSnapshotSet(const std::string &path, const SnapshotSet &s);

/** Load @p path (Missing / Stale / Corrupt exactly as
 *  Checkpoint::load; a stale set is recaptured without a warning). */
Checkpoint::LoadStatus loadSnapshotSet(const std::string &path,
                                       SnapshotSet &out);

/**
 * @return the cache key for @p req's workload @p workload: every
 * capture-shaping parameter plus the warm-config identity hash and
 * the server's binary fingerprint (a snapshot captured by a different
 * build of the simulator must never be trusted — deterministic ≠
 * version-stable).
 */
std::string snapshotKey(const proto::SweepRequest &req,
                        const std::string &workload,
                        std::uint64_t warmCfgHash,
                        std::uint64_t binFingerprint);

/** The single-flight, memory + disk snapshot cache (server-side).
 *  Optionally disk-bounded: with a nonzero byte limit, publishing a
 *  new snapshot evicts least-recently-used unpinned entries (and
 *  their files) until the directory fits the budget again. Requests
 *  pin() the keys they are executing against so a running request's
 *  snapshot file can never be unlinked under its workers. */
class SnapshotCache
{
  public:
    explicit SnapshotCache(std::string dir,
                           std::uint64_t limit_bytes = 0);

    struct Stats
    {
        std::uint64_t hits = 0;   ///< served from memory or disk
        std::uint64_t misses = 0; ///< captures actually run
        std::uint64_t waits = 0;  ///< blocked on another's capture
        std::uint64_t evictions = 0; ///< entries evicted for the budget
        std::uint64_t gcRemoved = 0; ///< stale entries GCed at startup
        std::uint64_t diskBytes = 0; ///< tracked bytes on disk now
    };

    /** How one acquire() call was satisfied (per-request metrics). */
    enum class Outcome
    {
        Hit,  ///< served from memory or disk
        Miss, ///< this call ran the capture
        Wait, ///< blocked on another caller's in-flight capture
    };

    /**
     * Get the snapshot set for @p key, running @p capture (which must
     * produce the file at the given path, e.g. by dispatching a
     * capture unit to a worker) at most once per key across all
     * concurrent callers.
     *
     * @retval nullptr (and sets @p err) when the capture failed; the
     * failure is not cached — a later acquire retries.
     */
    std::shared_ptr<const SnapshotSet>
    acquire(const std::string &key,
            const std::function<bool(const std::string &path,
                                     std::string *err)> &capture,
            std::string *err, Outcome *outcome = nullptr);

    /** @return the container-file path for @p key. */
    std::string pathFor(const std::string &key) const;

    /**
     * Startup GC: scan the cache directory and unlink every snapshot
     * container whose embedded binary fingerprint (the `.b<hex16>`
     * key component) does not match @p bin_fingerprint — entries left
     * behind by a previous build are stale-but-present and must never
     * be served. Surviving files seed the LRU index (ordered by
     * on-disk atime). @return the number of files removed.
     */
    unsigned gcStale(std::uint64_t bin_fingerprint);

    /**
     * Pin @p key against eviction for the lifetime of the returned
     * guard (requests hold one per snapshot they dispatch units
     * against). Releasing the last pin re-runs eviction, so a
     * temporarily over-budget directory shrinks as soon as it can.
     */
    std::shared_ptr<void> pin(const std::string &key);

    /** @return tracked cache-directory payload bytes. */
    std::uint64_t diskBytes() const;

    Stats stats() const;

  private:
    struct Entry
    {
        bool ready = false;  ///< set is valid (capture done or loaded)
        bool failed = false; ///< capture failed; waiters get the error
        std::string error;
        std::shared_ptr<const SnapshotSet> set;
    };

    /** One on-disk container file tracked for the byte budget. */
    struct FileInfo
    {
        std::uint64_t size = 0;
        std::uint64_t lastUse = 0; ///< LRU clock (seeded from atime)
    };

    void noteFileLocked(const std::string &key);
    void touchLocked(const std::string &key);
    void evictToLimitLocked(const std::string &protect);

    const std::string dir_;
    const std::uint64_t limit_;
    mutable std::mutex m_;
    std::condition_variable cv_;
    std::map<std::string, std::shared_ptr<Entry>> entries_;
    std::map<std::string, FileInfo> files_;
    std::map<std::string, unsigned> pins_;
    std::uint64_t useClock_ = 0;
    std::uint64_t diskBytes_ = 0;
    Stats stats_;
};

} // namespace sweep
} // namespace sdv

#endif // SDV_SWEEP_SNAPSHOT_CACHE_HH
