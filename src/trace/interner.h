#pragma once

/**
 * @file
 * String interning for span identity and resource attributes.
 *
 * Sleuth traces draw service/operation/container/pod/node names from a
 * small vocabulary (hundreds of distinct strings across millions of
 * spans), so the columnar span layout (columnar.h) stores u32 ids and
 * shares one StringInterner per TraceStore. Ids are
 * dense and stable: the n-th distinct string ever interned gets id n-1,
 * and an id never changes or is reused for the interner's lifetime —
 * ROADMAP item 3 (encoding caches keyed by interned ids) depends on
 * that stability.
 *
 * Thread safety: intern/find/name/size may be called concurrently from
 * any number of threads (shared_mutex; lookups take the shared lock).
 */

#include <cstdint>
#include <deque>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace sleuth::trace {

class StringInterner
{
  public:
    StringInterner() = default;
    StringInterner(const StringInterner &) = delete;
    StringInterner &operator=(const StringInterner &) = delete;

    /** Id of `s`, interning it first if unseen. */
    uint32_t intern(std::string_view s);

    /** Id of `s` if already interned; does not insert. */
    std::optional<uint32_t> find(std::string_view s) const;

    /**
     * The string behind an id. The reference stays valid for the
     * interner's lifetime (strings live in a deque and are never
     * erased).
     */
    const std::string &name(uint32_t id) const;

    /** Number of distinct strings interned so far. */
    size_t size() const;

    /**
     * Copies of the strings with id >= from, in id order. The durable
     * layer serializes the vocabulary with this: a snapshot dumps
     * namesFrom(0) and a WAL commit dumps namesFrom(mark) for the
     * strings interned since the last commit. Re-interning the dump in
     * order on an interner of size `from` reproduces the exact ids,
     * which keeps raw u32 column encodings valid across recovery.
     */
    std::vector<std::string> namesFrom(size_t from) const;

    /** Estimated resident bytes (strings + hash index). */
    size_t memoryBytes() const;

  private:
    struct SvHash
    {
        using is_transparent = void;
        size_t operator()(std::string_view s) const
        {
            return std::hash<std::string_view>{}(s);
        }
    };
    struct SvEq
    {
        using is_transparent = void;
        bool operator()(std::string_view a, std::string_view b) const
        {
            return a == b;
        }
    };

    mutable std::shared_mutex mu_;
    /** Owns the string bytes; deque keeps references stable. */
    std::deque<std::string> names_;
    /** Views into names_ -> id (no second copy of the bytes). */
    std::unordered_map<std::string_view, uint32_t, SvHash, SvEq> ids_;
};

} // namespace sleuth::trace
