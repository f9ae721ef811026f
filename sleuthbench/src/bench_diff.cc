// bench_diff: compare two sets of benchmark results.
//
//   bench_diff BENCHMARK.json <parent-dir> <change-dir>
//
// Each directory holds one file per run, named <workload>.<anything>,
// containing the run's standard output (or just its result line); the
// last line that parses as a JSON object is the result. Runs pair up in
// file-name order, so name them by seed on both sides.
//
// For every workload and end-to-end metric the tool prints each side's
// median and quartiles (as Python's statistics.quantiles(n=4) computes
// them) and a verdict:
//   better      the change wins at least nine tenths of the pairs and
//               the medians differ by more than the parent's quartile
//               spread;
//   worse       the change's median is worse than the parent's by more
//               than the metric's bound;
//   within      neither;
//   unresolved  a side's quartile spread exceeds the bound, unless
//               every change run beats every parent run. Set-up time
//               is judged by its median alone: it varies with
//               whatever else the machine does while inputs are built.
// Exit status: 0 when nothing is worse, 1 when something is, 2 on a
// usage or input error.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.h"

using sleuth::util::Json;

namespace {

struct MetricSpec
{
    std::string name;
    std::string unit;
    bool lowerIsBetter = true;
    double bound = 0.0;
};

bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::stringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
}

/** The last line of a run's output that parses as a JSON object. */
bool
lastResult(const std::string &text, Json *out)
{
    std::vector<std::string> lines;
    std::stringstream ss(text);
    for (std::string line; std::getline(ss, line);)
        lines.push_back(line);
    for (auto it = lines.rbegin(); it != lines.rend(); ++it) {
        std::string err;
        Json j = Json::parse(*it, &err);
        if (err.empty() && j.type() == Json::Type::Object &&
            j.has("metrics")) {
            *out = j;
            return true;
        }
    }
    return false;
}

/** Workload -> runs (in file-name order) -> metric -> value. */
using Runs = std::map<std::string, std::vector<std::map<std::string, double>>>;

bool
loadRuns(const std::string &dir, Runs *runs)
{
    std::vector<std::filesystem::path> files;
    std::error_code ec;
    for (const auto &entry : std::filesystem::directory_iterator(dir, ec))
        if (entry.is_regular_file())
            files.push_back(entry.path());
    if (ec) {
        std::fprintf(stderr, "bench_diff: cannot list %s\n", dir.c_str());
        return false;
    }
    std::sort(files.begin(), files.end());
    for (const std::filesystem::path &f : files) {
        std::string name = f.filename().string();
        std::string workload = name.substr(0, name.find('.'));
        std::string text;
        Json result;
        if (!readFile(f.string(), &text) || !lastResult(text, &result)) {
            std::fprintf(stderr, "bench_diff: no result line in %s\n",
                         f.string().c_str());
            return false;
        }
        std::map<std::string, double> values;
        for (const auto &[metric, entry] : result.at("metrics").asObject())
            if (entry.has("value"))
                values[metric] = entry.at("value").asNumber();
        (*runs)[workload].push_back(std::move(values));
    }
    return true;
}

double
median(std::vector<double> xs)
{
    std::sort(xs.begin(), xs.end());
    size_t n = xs.size();
    if (n == 0)
        return 0.0;
    return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

/** Quartiles by the 'exclusive' method of statistics.quantiles(n=4). */
void
quartiles(std::vector<double> xs, double *q1, double *q3)
{
    std::sort(xs.begin(), xs.end());
    const long ld = static_cast<long>(xs.size());
    if (ld < 2) {
        *q1 = *q3 = ld == 1 ? xs[0] : 0.0;
        return;
    }
    const long n = 4;
    const long m = ld + 1;
    double out[2];
    int k = 0;
    for (long i : {1L, 3L}) {
        long j = std::clamp(i * m / n, 1L, ld - 1);
        long delta = i * m - j * n;
        out[k++] = (xs[static_cast<size_t>(j - 1)] * static_cast<double>(n - delta) +
                    xs[static_cast<size_t>(j)] * static_cast<double>(delta)) /
                   static_cast<double>(n);
    }
    *q1 = out[0];
    *q3 = out[1];
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 4) {
        std::fprintf(stderr, "usage: bench_diff BENCHMARK.json "
                             "<parent-dir> <change-dir>\n");
        return 2;
    }
    std::string text;
    std::string err;
    if (!readFile(argv[1], &text)) {
        std::fprintf(stderr, "bench_diff: cannot read %s\n", argv[1]);
        return 2;
    }
    Json bench = Json::parse(text, &err);
    if (!err.empty() || !bench.has("end_to_end")) {
        std::fprintf(stderr, "bench_diff: %s is not a benchmark file\n",
                     argv[1]);
        return 2;
    }
    std::vector<MetricSpec> specs;
    for (const Json &m : bench.at("end_to_end").asArray())
        specs.push_back({m.at("name").asString(), m.at("unit").asString(),
                         m.at("better").asString() == "lower",
                         m.at("bound").asNumber()});

    Runs parent;
    Runs change;
    if (!loadRuns(argv[2], &parent) || !loadRuns(argv[3], &change))
        return 2;

    bool any_worse = false;
    std::printf("%-13s %-20s %33s %33s  %s\n", "workload", "metric",
                "parent median [q1, q3]", "change median [q1, q3]",
                "verdict");
    for (const auto &[workload, a_runs] : parent) {
        auto it = change.find(workload);
        if (it == change.end()) {
            std::printf("%-13s (no change runs)\n", workload.c_str());
            continue;
        }
        const auto &b_runs = it->second;
        for (const MetricSpec &spec : specs) {
            std::vector<double> a;
            std::vector<double> b;
            for (const auto &r : a_runs)
                if (r.count(spec.name))
                    a.push_back(r.at(spec.name));
            for (const auto &r : b_runs)
                if (r.count(spec.name))
                    b.push_back(r.at(spec.name));
            if (a.empty() || b.empty())
                continue;
            double ma = median(a);
            double mb = median(b);
            double a1, a3, b1, b3;
            quartiles(a, &a1, &a3);
            quartiles(b, &b1, &b3);
            double scale = std::fabs(ma) > 0.0 ? std::fabs(ma) : 1.0;
            double spread_a = (a3 - a1) / scale;
            double spread_b = std::fabs(mb) > 0.0 ? (b3 - b1) / std::fabs(mb)
                                                  : 0.0;
            // Positive = the change is worse.
            double worse = (spec.lowerIsBetter ? mb - ma : ma - mb) / scale;
            auto better = [&](double x, double y) {
                return spec.lowerIsBetter ? x < y : x > y;
            };
            size_t pairs = std::min(a.size(), b.size());
            size_t wins = 0;
            for (size_t i = 0; i < pairs; ++i)
                wins += better(b[i], a[i]) ? 1 : 0;
            auto [a_lo, a_hi] = std::minmax_element(a.begin(), a.end());
            auto [b_lo, b_hi] = std::minmax_element(b.begin(), b.end());
            // Every change run beats every parent run.
            bool dominates = spec.lowerIsBetter ? *b_hi < *a_lo
                                                : *b_lo > *a_hi;
            // Set-up time is judged by its median alone (see above).
            bool gate_spread = spec.name != "setup_s";
            std::string verdict;
            if (wins * 10 >= pairs * 9 && std::fabs(mb - ma) > (a3 - a1) &&
                worse < 0.0)
                verdict = "better";
            else if (gate_spread &&
                     (spread_a > spec.bound || spread_b > spec.bound))
                verdict = dominates ? "better" : "unresolved";
            else if (worse > spec.bound)
                verdict = "worse";
            else
                verdict = "within";
            any_worse |= verdict == "worse";
            char left[64];
            char right[64];
            std::snprintf(left, sizeof(left), "%.4g [%.4g, %.4g]", ma, a1,
                          a3);
            std::snprintf(right, sizeof(right), "%.4g [%.4g, %.4g]", mb, b1,
                          b3);
            std::printf("%-13s %-20s %33s %33s  %s (%+.1f%%, bound %.0f%%, "
                        "spread %.1f%%/%.1f%%, n=%zu/%zu)\n",
                        workload.c_str(), spec.name.c_str(), left, right,
                        verdict.c_str(), (mb - ma) / scale * 100.0,
                        spec.bound * 100.0,
                        spread_a * 100.0, spread_b * 100.0, a.size(),
                        b.size());
        }
    }
    return any_worse ? 1 : 0;
}
