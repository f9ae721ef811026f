#pragma once

/**
 * @file
 * String helpers shared by the text-preprocessing and reporting code.
 */

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sleuth::util {

/**
 * FNV-1a over a byte view. The online layer uses this one hash for
 * the deterministic shed `sample` policy and the incident normal-trace
 * sample: an explicit hash keeps those decisions identical across
 * standard libraries, and a string_view signature means call sites
 * never materialize a temporary string.
 */
inline uint64_t
fnv1a(std::string_view s)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** Split a string on a single-character delimiter (keeps empty pieces). */
std::vector<std::string> split(const std::string &s, char delim);

/** Join pieces with a delimiter string. */
std::string join(const std::vector<std::string> &pieces,
                 const std::string &delim);

/** Lower-case an ASCII string. */
std::string toLower(std::string s);

/**
 * Split camelCase / PascalCase / snake_case / kebab-case identifiers into
 * lower-case word tokens (e.g. "GetUserById" -> {"get","user","by","id"}).
 */
std::vector<std::string> splitIdentifier(const std::string &s);

/** True when the token looks like a hex/numeric ID of >= minDigits chars. */
bool looksLikeHexId(const std::string &token, size_t min_digits = 6);

/** True when the string starts with the given prefix. */
bool startsWith(const std::string &s, const std::string &prefix);

/** Render a double with fixed precision. */
std::string formatDouble(double v, int precision = 2);

} // namespace sleuth::util
