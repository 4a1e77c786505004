/**
 * @file
 * Minimal binary serialization used by the checkpoint layer: fixed
 * little-endian encodings into a growable byte buffer, sealed with an
 * 8-byte checksum64() trailer so truncated or corrupted snapshots are
 * rejected before any state is overwritten. checksum64 hashes 8-byte
 * words on four independent lanes, an order of magnitude faster than
 * the byte-serial FNV-1a that sealed format version 1 of checkpoint
 * images and snapshot sets (version 2 carries checksum64), and it
 * always detects a corruption confined to one 8-byte payload word.
 *
 * Deserialization never throws: reads past the end (or after a failed
 * structural check) latch a sticky failure flag and return zeros, and
 * the caller checks ok() once at the end.
 */

#ifndef SDV_COMMON_SERIALIZE_HH
#define SDV_COMMON_SERIALIZE_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace sdv {

/** FNV-1a over a byte range (identity hashing: program, config and
 *  commit-stream hashes keep these values). */
inline std::uint64_t
fnv1a(const std::uint8_t *data, std::size_t len,
      std::uint64_t seed = 1469598103934665603ULL)
{
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < len; ++i)
        h = (h ^ data[i]) * 1099511628211ULL;
    return h;
}

/** @return the little-endian 8-byte word at @p p. */
inline std::uint64_t
loadLe64(const std::uint8_t *p)
{
    std::uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    if constexpr (std::endian::native == std::endian::big)
        w = __builtin_bswap64(w);
    return w;
}

/**
 * Integrity checksum of a byte range, in the xxHash64 mould: four
 * independent lanes each absorb every fourth little-endian 8-byte word
 * with round(acc, w) = rotl(acc + w * P2, 31) * P1, so the lanes
 * pipeline instead of serializing on one multiply chain. The lanes
 * converge by a rotate-and-add, then the length, the remaining words
 * and the tail (zero-padded into one last word) are folded in, and a
 * xorshift-multiply avalanche finishes.
 *
 * Every step is a bijection of the one word it absorbs and of the
 * running state, so two inputs of the same length that differ only
 * within one aligned 8-byte word always hash differently. Any other
 * corruption (truncation, swapped words, scattered flips) collides
 * with probability about 2^-64.
 */
inline std::uint64_t
checksum64(const std::uint8_t *data, std::size_t len)
{
    constexpr std::uint64_t P1 = 0x9E3779B185EBCA87ULL;
    constexpr std::uint64_t P2 = 0xC2B2AE3D27D4EB4FULL;
    constexpr std::uint64_t P3 = 0x165667B19E3779F9ULL;
    constexpr std::uint64_t P4 = 0x85EBCA77C2B2AE63ULL;
    constexpr std::uint64_t P5 = 0x27D4EB2F165667C5ULL;
    const auto round = [](std::uint64_t acc, std::uint64_t w) {
        return std::rotl(acc + w * P2, 31) * P1;
    };
    const auto fold = [&](std::uint64_t h, std::uint64_t w) {
        return std::rotl(h ^ round(0, w), 27) * P1 + P4;
    };

    const std::uint8_t *p = data;
    const std::uint8_t *const end = data + len;
    std::uint64_t h = P5;
    if (len >= 32) {
        std::uint64_t v1 = P1 + P2, v2 = P2, v3 = 0, v4 = 0 - P1;
        for (; end - p >= 32; p += 32) {
            v1 = round(v1, loadLe64(p));
            v2 = round(v2, loadLe64(p + 8));
            v3 = round(v3, loadLe64(p + 16));
            v4 = round(v4, loadLe64(p + 24));
        }
        h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
            std::rotl(v4, 18);
    }
    h += len;
    for (; end - p >= 8; p += 8)
        h = fold(h, loadLe64(p));
    if (p != end) {
        std::uint8_t last[8] = {};
        std::memcpy(last, p, std::size_t(end - p));
        h = fold(h, loadLe64(last));
    }
    h ^= h >> 33;
    h *= P2;
    h ^= h >> 29;
    h *= P3;
    h ^= h >> 32;
    return h;
}

/** Append-only little-endian byte sink. */
class Serializer
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u32(std::uint32_t v)
    {
        for (unsigned i = 0; i < 4; ++i)
            buf_.push_back(std::uint8_t(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i)
            buf_.push_back(std::uint8_t(v >> (8 * i)));
    }

    void i64(std::int64_t v) { u64(std::uint64_t(v)); }

    void b(bool v) { u8(v ? 1 : 0); }

    void
    bytes(const void *data, std::size_t len)
    {
        // resize + memcpy rather than insert: equivalent, and avoids a
        // GCC 12 -Wstringop-overflow false positive when a fixed-size
        // array insert is inlined under LTO.
        const std::size_t old = buf_.size();
        buf_.resize(old + len);
        if (len)
            std::memcpy(buf_.data() + old, data, len);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    /** @return current payload size in bytes. */
    std::size_t size() const { return buf_.size(); }

    /** @return the payload written so far (no trailer), for identity
     *  hashes that must not move when the integrity checksum does. */
    const std::uint8_t *data() const { return buf_.data(); }

    /** Bytes finish() appends: the little-endian checksum64 trailer. */
    static constexpr std::size_t trailerBytes = 8;

    /**
     * Seal the buffer: append the checksum64 of everything written so
     * far and return the finished byte image.
     */
    std::vector<std::uint8_t>
    finish()
    {
        const std::uint64_t sum = checksum64(buf_.data(), buf_.size());
        u64(sum);
        return std::move(buf_);
    }

  private:
    std::vector<std::uint8_t> buf_;
};

/** Sticky-failure little-endian byte source. */
class Deserializer
{
  public:
    explicit Deserializer(const std::vector<std::uint8_t> &buf)
        : data_(buf.data()), size_(buf.size())
    {
    }

    Deserializer(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    /**
     * Validate the checksum trailer written by Serializer::finish and
     * shrink the readable window to the payload. Header fields may be
     * read first (a stale format is then told apart from a corrupt
     * one); @return false (and latch failure) on a truncated or
     * corrupted image, or when those reads already ran into the
     * trailer.
     */
    bool
    verifyChecksum()
    {
        if (!ok_ || size_ < Serializer::trailerBytes ||
            pos_ > size_ - Serializer::trailerBytes) {
            ok_ = false;
            return false;
        }
        const std::size_t payload = size_ - Serializer::trailerBytes;
        if (checksum64(data_, payload) != loadLe64(data_ + payload)) {
            ok_ = false;
            return false;
        }
        size_ = payload;
        return true;
    }

    std::uint8_t
    u8()
    {
        if (!ensure(1))
            return 0;
        return data_[pos_++];
    }

    std::uint32_t
    u32()
    {
        if (!ensure(4))
            return 0;
        std::uint32_t v = 0;
        for (unsigned i = 0; i < 4; ++i)
            v |= std::uint32_t(data_[pos_++]) << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        if (!ensure(8))
            return 0;
        const std::uint64_t v = loadLe64(data_ + pos_);
        pos_ += 8;
        return v;
    }

    std::int64_t i64() { return std::int64_t(u64()); }

    bool b() { return u8() != 0; }

    bool
    bytes(void *out, std::size_t len)
    {
        if (!ensure(len))
            return false;
        std::memcpy(out, data_ + pos_, len);
        pos_ += len;
        return true;
    }

    std::string
    str()
    {
        const std::uint64_t n = u64();
        if (!ensure(n))
            return {};
        std::string s(reinterpret_cast<const char *>(data_ + pos_),
                      std::size_t(n));
        pos_ += std::size_t(n);
        return s;
    }

    /** Latch a failure from a caller-side structural check (bad magic,
     *  geometry mismatch, ...). */
    void fail() { ok_ = false; }

    /** @return true while every read so far stayed in bounds. */
    bool ok() const { return ok_; }

    /** @return true when the whole payload was consumed. */
    bool atEnd() const { return ok_ && pos_ == size_; }

  private:
    bool
    ensure(std::size_t n)
    {
        if (!ok_ || size_ - pos_ < n) {
            ok_ = false;
            return false;
        }
        return true;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace sdv

#endif // SDV_COMMON_SERIALIZE_HH
