#pragma once

// Numeric command-line values for the sleuth tools. The whole text must
// parse (std::from_chars: no trailing characters, no overflow) and land
// inside the flag's range, so callers may cast the result to the
// flag's size_t or int field; anything else exits through util::fatal
// with a message naming the flag, the range and the text.

#include <charconv>
#include <cstdint>
#include <limits>
#include <string>
#include <system_error>
#include <type_traits>

#include "util/logging.h"

namespace sleuth::cli {

constexpr int64_t kMaxInt = std::numeric_limits<int64_t>::max();
/** Upper bounds of the flags that size allocations or thread pools. */
constexpr int64_t kMaxRpcs = 100'000;
constexpr int64_t kMaxNodes = 100'000;
constexpr int64_t kMaxTraces = 1'000'000;
constexpr int64_t kMaxThreads = 256;

/**
 * flag's value as a T (int64_t, uint64_t or double) in [lo, hi];
 * exits on anything else.
 */
template <typename T>
T
parse(const std::string &flag, const std::string &text, T lo, T hi)
{
    T v{};
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, v);
    // Written so a NaN fails the range test too.
    if (ec != std::errc() || ptr != end || !(v >= lo && v <= hi))
        util::fatal(flag, " wants ",
                    std::is_integral_v<T> ? "an integer" : "a number",
                    " in [", lo, ", ", hi, "], got '", text, "'");
    return v;
}

} // namespace sleuth::cli
