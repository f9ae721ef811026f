#pragma once

/**
 * @file
 * Metric collection and the result line of one benchmark run.
 *
 * Every metric carries its unit and the number of samples it was
 * computed from. The human-readable table goes to stdout first; the
 * last stdout line is the machine-readable result object
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 */

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace sleuthbench {

using Clock = std::chrono::steady_clock;

/** A duration of `s` seconds on the benchmark clock. */
inline Clock::duration
secondsOf(double s)
{
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
}

/** Milliseconds elapsed since t0. */
double msSince(Clock::time_point t0);

/** Milliseconds between two time points. */
double msBetween(Clock::time_point t0, Clock::time_point t1);

/**
 * Quantile q in [0, 1] with linear interpolation between closest
 * ranks; 0 for an empty sample.
 */
double quantile(std::vector<double> xs, double q);

/** Median (quantile 0.5). */
double median(std::vector<double> xs);

/** Peak resident set size of this process (VmHWM), in MiB. */
double peakRssMb();

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    /** Samples the value was computed from (1 for a single count). */
    size_t samples = 1;
};

/** The outcome of one run: metrics plus correctness accounting. */
class Report
{
  public:
    /** Add or replace a metric. */
    void set(const std::string &name, double value,
             const std::string &unit, size_t samples = 1);

    /** Value of a metric (0 when absent). */
    double get(const std::string &name) const;

    /** Record a failed correctness check; the run exits nonzero. */
    void fail(const std::string &what);

    /** Count operations attempted and failed unexpectedly. */
    void countAttempted(size_t n) { attempted_ += n; }
    void countFailed(size_t n) { failed_ += n; }

    bool correct() const { return failures_.empty(); }
    size_t attempted() const { return attempted_; }
    size_t failed() const { return failed_; }
    const std::vector<Metric> &metrics() const { return metrics_; }

    /**
     * Print the metric table, any failed checks (stderr), and the
     * result line holding exactly the metrics named in `keep` (in that
     * order).
     */
    void print(const std::vector<std::string> &keep) const;

  private:
    std::vector<Metric> metrics_;
    std::vector<std::string> failures_;
    size_t attempted_ = 0;
    size_t failed_ = 0;
};

} // namespace sleuthbench
