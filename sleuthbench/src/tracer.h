#pragma once

/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * The benchmark opens a span around each of its own calls into a
 * Sleuth module (module = the source directory, operation = the public
 * function). Spans nest through a stack on the calling thread; each
 * storm or poll gets its own trace id. Nothing is written until the
 * run ends: then the spans are exported as one trace::Trace per trace
 * id in the repository's own trace JSON format (trace::toJson), so the
 * `sleuth` tools can read the benchmark's traces. With tracing off
 * every call is a branch on a flag.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "report.h"

namespace sleuthbench {

class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return enabled_; }

    /** Start a new trace id; later root spans belong to it. */
    void beginTrace(std::string id);

    /** RAII span; records nothing when the tracer is disabled. */
    class Span
    {
      public:
        Span(Tracer &tracer, const char *module, const char *op);
        ~Span();
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

        /** Close the span now; returns its duration in ms. */
        double end();

      private:
        Tracer &tracer_;
        size_t index_ = 0;
        Clock::time_point start_;
        bool open_ = true;
    };

    /** Total duration of the spans of (module, op), in ms. */
    double totalMs(const std::string &module, const std::string &op) const;

    /**
     * Self time per module: each span's duration minus the part of it
     * that its child spans cover, summed by module (ms).
     */
    std::map<std::string, double> selfTimeByModule() const;

    /** Print the per-module self-time table. */
    void printSelfTimes() const;

    /** Write every trace as a JSON array of trace documents. */
    bool writeJson(const std::string &path) const;

  private:
    struct Rec
    {
        uint32_t trace = 0;
        int64_t parent = -1;
        const char *module = "";
        const char *op = "";
        int64_t startNs = 0;
        int64_t endNs = 0;
    };

    int64_t nsOf(Clock::time_point t) const;

    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::vector<std::string> traceIds_;
    std::vector<Rec> spans_;
    std::vector<size_t> stack_;
};

} // namespace sleuthbench
