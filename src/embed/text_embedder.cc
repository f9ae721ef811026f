#include "text_embedder.h"

#include <cmath>

#include <cctype>

#include "util/simd.h"
#include "util/strings.h"

namespace sleuth::embed {

std::vector<std::string>
preprocess(const std::string &text)
{
    // Hex-ID replacement must see whole separator-delimited tokens, so
    // split on non-alphanumerics first and camel-split afterwards.
    std::vector<std::string> tokens;
    std::string raw;
    auto flush = [&]() {
        if (raw.empty())
            return;
        if (util::looksLikeHexId(raw)) {
            tokens.push_back("<id>");
        } else {
            for (std::string &w : util::splitIdentifier(raw))
                tokens.push_back(std::move(w));
        }
        raw.clear();
    };
    for (char c : text) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            raw.push_back(c);
        else
            flush();
    }
    flush();
    return tokens;
}

TextEmbedder::TextEmbedder(size_t dim) : dim_(dim) {}

namespace {

/** FNV-1a 64-bit hash. */
uint64_t
fnv1a(const std::string &s, uint64_t seed)
{
    uint64_t h = 1469598103934665603ull ^ seed;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

/** SplitMix64 step for stream expansion from one hash. */
uint64_t
splitmix(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

std::vector<double>
TextEmbedder::tokenVector(const std::string &token) const
{
    // Each token deterministically expands to a pseudo-random Gaussian
    // direction; identical tokens always produce identical directions.
    std::vector<double> v(dim_);
    uint64_t state = fnv1a(token, 0x5145u);
    for (size_t i = 0; i < dim_; i += 2) {
        // Box-Muller from two uniform draws.
        double u1 = (static_cast<double>(splitmix(state) >> 11) + 1.0) /
                    9007199254740994.0;
        double u2 = (static_cast<double>(splitmix(state) >> 11) + 1.0) /
                    9007199254740994.0;
        double r = std::sqrt(-2.0 * std::log(u1));
        v[i] = r * std::cos(2.0 * M_PI * u2);
        if (i + 1 < dim_)
            v[i + 1] = r * std::sin(2.0 * M_PI * u2);
    }
    double norm = 0.0;
    for (double x : v)
        norm += x * x;
    norm = std::sqrt(norm);
    if (norm > 0.0)
        for (double &x : v)
            x /= norm;
    return v;
}

std::vector<double>
TextEmbedder::computeEmbedding(const std::string &text) const
{
    std::vector<double> acc(dim_, 0.0);
    std::vector<std::string> tokens = preprocess(text);
    if (tokens.empty())
        return acc;
    for (const std::string &t : tokens) {
        std::vector<double> tv = tokenVector(t);
        simd::add(acc.data(), tv.data(), dim_);
    }
    // The norm reduction stays strictly sequential so cached embedding
    // values are independent of SIMD dispatch; the elementwise divide
    // vectorizes exactly.
    double norm = 0.0;
    for (double x : acc)
        norm += x * x;
    norm = std::sqrt(norm);
    if (norm > 0.0)
        simd::div(acc.data(), norm, dim_);
    return acc;
}

const std::vector<double> &
TextEmbedder::embed(const std::string &text)
{
    auto it = cache_.find(text);
    if (it != cache_.end())
        return it->second;
    return cache_.emplace(text, computeEmbedding(text)).first->second;
}

double
TextEmbedder::cosine(const std::vector<double> &a,
                     const std::vector<double> &b)
{
    // 4-lane blocked reductions (simd::dotBlocked): no legacy
    // accumulation order is pinned here, callers only compare
    // similarities within float tolerance.
    size_t n = std::min(a.size(), b.size());
    double dot = simd::dotBlocked(a.data(), b.data(), n);
    double na = simd::dotBlocked(a.data(), a.data(), n);
    double nb = simd::dotBlocked(b.data(), b.data(), n);
    if (na == 0.0 || nb == 0.0)
        return 0.0;
    return dot / std::sqrt(na * nb);
}

} // namespace sleuth::embed
