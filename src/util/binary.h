#pragma once

/**
 * @file
 * Minimal binary codec for the durable store (DESIGN.md §3.15).
 *
 * Fixed-width little-endian integers, IEEE-754 doubles by bit pattern,
 * and length-prefixed strings. The encoding is deliberately boring:
 * every durable artifact (WAL frame payloads, snapshot sections) is a
 * flat byte string whose integrity is guarded by an outer CRC32C, so
 * the reader's only job is bounds checking — a read past the end flips
 * a sticky error flag instead of crashing, and callers check ok()
 * once at the end of a decode. Counts that size a container are read
 * with count(), which refuses any count the remaining bytes cannot
 * hold.
 */

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace sleuth::util {

/** Append-only little-endian encoder over a growable byte string. */
class BinaryWriter
{
  public:
    void u8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }

    void
    u32(uint32_t v)
    {
        char b[4];
        std::memcpy(b, &v, 4);
        buf_.append(b, 4);
    }

    void
    u64(uint64_t v)
    {
        char b[8];
        std::memcpy(b, &v, 8);
        buf_.append(b, 8);
    }

    void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }

    void
    f64(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, 8);
        u64(bits);
    }

    /** u32 length prefix + raw bytes. */
    void
    str(std::string_view s)
    {
        u32(static_cast<uint32_t>(s.size()));
        buf_.append(s.data(), s.size());
    }

    /** Raw bytes, no prefix (caller carries the length elsewhere). */
    void bytes(std::string_view s) { buf_.append(s.data(), s.size()); }

    const std::string &buffer() const { return buf_; }
    std::string take() { return std::move(buf_); }
    size_t size() const { return buf_.size(); }

  private:
    std::string buf_;
};

/**
 * Bounds-checked little-endian decoder over a byte view. Any read past
 * the end sets a sticky error flag and returns a zero value; decoders
 * check ok() once after reading instead of guarding every field.
 */
class BinaryReader
{
  public:
    explicit BinaryReader(std::string_view data) : data_(data) {}

    uint8_t
    u8()
    {
        if (!need(1))
            return 0;
        return static_cast<uint8_t>(data_[pos_++]);
    }

    uint32_t
    u32()
    {
        if (!need(4))
            return 0;
        uint32_t v;
        std::memcpy(&v, data_.data() + pos_, 4);
        pos_ += 4;
        return v;
    }

    uint64_t
    u64()
    {
        if (!need(8))
            return 0;
        uint64_t v;
        std::memcpy(&v, data_.data() + pos_, 8);
        pos_ += 8;
        return v;
    }

    int64_t i64() { return static_cast<int64_t>(u64()); }

    double
    f64()
    {
        uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, 8);
        return v;
    }

    std::string
    str()
    {
        uint32_t n = u32();
        if (!need(n))
            return "";
        std::string out(data_.substr(pos_, n));
        pos_ += n;
        return out;
    }

    /**
     * A u32 element count for a sequence whose items each encode to at
     * least minItemBytes (> 0) bytes. A count the remaining bytes
     * cannot hold sets the sticky error and returns 0, so an untrusted
     * length field never sizes an allocation beyond the payload.
     */
    uint32_t
    count(size_t minItemBytes)
    {
        uint32_t n = u32();
        if (ok_ && static_cast<uint64_t>(n) * minItemBytes > remaining()) {
            ok_ = false;
            return 0;
        }
        return n;
    }

    /** Raw view of the next n bytes (empty + error when short). */
    std::string_view
    view(size_t n)
    {
        if (!need(n))
            return {};
        std::string_view out = data_.substr(pos_, n);
        pos_ += n;
        return out;
    }

    /** True while every read so far stayed in bounds. */
    bool ok() const { return ok_; }

    /** Bytes not yet consumed. */
    size_t remaining() const { return ok_ ? data_.size() - pos_ : 0; }

  private:
    bool
    need(size_t n)
    {
        if (!ok_ || data_.size() - pos_ < n) {
            ok_ = false;
            return false;
        }
        return true;
    }

    std::string_view data_;
    size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace sleuth::util
