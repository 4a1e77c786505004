#include "sweep/checkpoint.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <unistd.h>

#include "common/log.hh"
#include "common/serialize.hh"

namespace sdv {
namespace sweep {

namespace {

/** Serialize the geometry the warm state depends on. Restoring into a
 *  machine whose warm structures are shaped differently is rejected
 *  up front with a readable error instead of failing mid-restore. */
void
writeGeometry(Serializer &ser, const CoreConfig &cfg)
{
    const MemHierarchyConfig &m = cfg.mem;
    ser.u64(m.l1iSize);
    ser.u32(m.l1iAssoc);
    ser.u32(m.l1iLineBytes);
    ser.u64(m.l1dSize);
    ser.u32(m.l1dAssoc);
    ser.u32(m.l1dLineBytes);
    ser.u64(m.l2Size);
    ser.u32(m.l2Assoc);
    ser.u32(m.l2LineBytes);
    ser.u32(cfg.gshareEntries);
    ser.u32(cfg.gshareHistoryBits);
    ser.u32(cfg.btbSets);
    ser.u32(cfg.btbWays);
    ser.u32(cfg.rasDepth);
    ser.u32(cfg.engine.tlSets);
    ser.u32(cfg.engine.tlWays);
    ser.u8(cfg.engine.tlConfidence);
}

bool
geometryMatches(Deserializer &des, const CoreConfig &cfg)
{
    const MemHierarchyConfig &m = cfg.mem;
    bool ok = true;
    ok &= des.u64() == m.l1iSize;
    ok &= des.u32() == m.l1iAssoc;
    ok &= des.u32() == m.l1iLineBytes;
    ok &= des.u64() == m.l1dSize;
    ok &= des.u32() == m.l1dAssoc;
    ok &= des.u32() == m.l1dLineBytes;
    ok &= des.u64() == m.l2Size;
    ok &= des.u32() == m.l2Assoc;
    ok &= des.u32() == m.l2LineBytes;
    ok &= des.u32() == cfg.gshareEntries;
    ok &= des.u32() == cfg.gshareHistoryBits;
    ok &= des.u32() == cfg.btbSets;
    ok &= des.u32() == cfg.btbWays;
    ok &= des.u32() == cfg.rasDepth;
    ok &= des.u32() == cfg.engine.tlSets;
    ok &= des.u32() == cfg.engine.tlWays;
    ok &= des.u8() == cfg.engine.tlConfidence;
    return ok && des.ok();
}

bool
setError(std::string *error, const char *msg)
{
    if (error)
        *error = msg;
    return false;
}

/** Shared header walk: magic, version, checksum and geometry; the
 *  image's program identity hash comes back via @p imageProgram for
 *  the caller to judge. On success @p des is positioned at the
 *  warm-state payload. */
bool
walkHeader(Deserializer &des, const CoreConfig &cfg,
           std::uint64_t *imageProgram, std::string *error)
{
    switch (Checkpoint::readHeader(des, Checkpoint::imageFormat)) {
    case Checkpoint::LoadStatus::Ok:
        break;
    case Checkpoint::LoadStatus::Stale:
        return setError(error, "unsupported checkpoint version");
    default:
        return setError(error, "not a checkpoint image (bad magic)");
    }
    if (!des.verifyChecksum())
        return setError(error,
                        "checkpoint image truncated or corrupted "
                        "(checksum mismatch)");
    const std::uint64_t prog = des.u64();
    if (imageProgram)
        *imageProgram = prog;
    if (!geometryMatches(des, cfg))
        return setError(error,
                        "checkpoint geometry does not match the target "
                        "configuration (caches/predictors/TL shape)");
    return true;
}

} // namespace

const Checkpoint::Format Checkpoint::imageFormat = {
    {'S', 'D', 'V', 'C', 'K', 'P', 'T', '1'}, 2};

Checkpoint::LoadStatus
Checkpoint::readHeader(Deserializer &des, const Format &fmt)
{
    char m[sizeof(fmt.magic)];
    if (!des.bytes(m, sizeof(m)) ||
        std::memcmp(m, fmt.magic, sizeof(m)) != 0)
        return LoadStatus::Corrupt;
    const std::uint32_t v = des.u32();
    if (!des.ok())
        return LoadStatus::Corrupt;
    return v == fmt.version ? LoadStatus::Ok : LoadStatus::Stale;
}

std::vector<std::uint8_t>
Checkpoint::capture(Simulator &sim)
{
    Serializer ser;
    ser.bytes(imageFormat.magic, sizeof(imageFormat.magic));
    ser.u32(imageFormat.version);
    ser.u64(sim.program().identityHash());
    writeGeometry(ser, sim.core().config());
    sim.core().saveWarmState(ser);
    return ser.finish();
}

bool
Checkpoint::restore(Simulator &sim,
                    const std::vector<std::uint8_t> &bytes,
                    std::string *error)
{
    Deserializer des(bytes);
    std::uint64_t prog = 0;
    if (!walkHeader(des, sim.core().config(), &prog, error))
        return false;
    if (prog != sim.program().identityHash())
        return setError(error,
                        "checkpoint was captured from a different "
                        "program");
    if (!sim.core().loadWarmState(des) || !des.atEnd())
        return setError(error, "checkpoint payload is inconsistent");
    return true;
}

bool
Checkpoint::validate(Simulator &sim,
                     const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t prog = 0;
    return validateImage(sim.core().config(), bytes, &prog) &&
           prog == sim.program().identityHash();
}

bool
Checkpoint::validateImage(const CoreConfig &cfg,
                          const std::vector<std::uint8_t> &bytes,
                          std::uint64_t *programHash)
{
    Deserializer des(bytes);
    return walkHeader(des, cfg, programHash, nullptr);
}

bool
Checkpoint::save(const std::string &path,
                 const std::vector<std::uint8_t> &bytes)
{
    // Concurrent writers (the snapshot cache serves many clients) and
    // crashes must never publish a partial image: write to a
    // same-directory temp file, then rename() it into place — atomic
    // on POSIX, so readers see either the old file or the complete
    // new one, never a prefix.
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return false;
    bool ok =
        std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    ok &= std::fflush(f) == 0;
    std::fclose(f);
    if (ok)
        ok = std::rename(tmp.c_str(), path.c_str()) == 0;
    if (!ok)
        std::remove(tmp.c_str());
    return ok;
}

Checkpoint::LoadStatus
Checkpoint::load(const std::string &path, std::vector<std::uint8_t> &out,
                 const Format &fmt)
{
    FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return errno == ENOENT ? LoadStatus::Missing
                               : LoadStatus::Corrupt;
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    if (size < 0) {
        std::fclose(f);
        return LoadStatus::Corrupt;
    }
    out.resize(size_t(size));
    const bool ok =
        std::fread(out.data(), 1, out.size(), f) == out.size();
    std::fclose(f);
    if (!ok)
        return LoadStatus::Corrupt;
    // An older format version is sealed with another checksum, so
    // judge the header first: the file is stale, not damaged.
    Deserializer des(out);
    if (readHeader(des, fmt) == LoadStatus::Stale)
        return LoadStatus::Stale;
    // A short or bit-rotted image fails its trailing checksum; report
    // it as corruption here so callers can tell poisoning from a plain
    // cold cache (atomic save() makes torn files unreachable through
    // this API, so a Corrupt result is worth a warning).
    if (!des.verifyChecksum())
        return LoadStatus::Corrupt;
    return LoadStatus::Ok;
}

} // namespace sweep
} // namespace sdv
