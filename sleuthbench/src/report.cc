#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "util/json.h"

namespace sleuthbench {

double
msSince(Clock::time_point t0)
{
    return msBetween(t0, Clock::now());
}

double
msBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    double rank = q * static_cast<double>(xs.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - static_cast<double>(lo));
}

double
median(std::vector<double> xs)
{
    return quantile(std::move(xs), 0.5);
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

void
Report::set(const std::string &name, double value, const std::string &unit,
            size_t samples)
{
    if (!std::isfinite(value)) {
        fail("metric " + name + " is not finite");
        value = 0.0;
    }
    for (Metric &m : metrics_) {
        if (m.name == name) {
            m = {name, value, unit, samples};
            return;
        }
    }
    metrics_.push_back({name, value, unit, samples});
}

double
Report::get(const std::string &name) const
{
    for (const Metric &m : metrics_)
        if (m.name == name)
            return m.value;
    return 0.0;
}

void
Report::fail(const std::string &what)
{
    failures_.push_back(what);
}

void
Report::print(const std::vector<std::string> &keep) const
{
    std::printf("%-36s %18s  %-10s %8s\n", "metric", "value", "unit",
                "samples");
    for (const Metric &m : metrics_)
        std::printf("%-36s %18.6f  %-10s %8zu\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.samples);
    for (const std::string &f : failures_)
        std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());

    sleuth::util::Json metrics = sleuth::util::Json::object();
    for (const std::string &name : keep) {
        const Metric *found = nullptr;
        for (const Metric &m : metrics_)
            if (m.name == name)
                found = &m;
        sleuth::util::Json entry = sleuth::util::Json::object();
        entry.set("value", found != nullptr ? found->value : 0.0);
        entry.set("unit", found != nullptr ? found->unit : "");
        metrics.set(name, std::move(entry));
    }
    sleuth::util::Json out = sleuth::util::Json::object();
    out.set("correct", correct());
    out.set("attempted", attempted_);
    out.set("failed", failed_);
    out.set("metrics", std::move(metrics));
    std::fflush(stderr);
    std::printf("%s\n", out.dump().c_str());
    std::fflush(stdout);
}

} // namespace sleuthbench
