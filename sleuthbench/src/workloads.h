#pragma once

/**
 * @file
 * The benchmark's workloads. Each one builds its inputs from the run
 * seed (set up several times; setup_s is the median), measures for the
 * requested wall time, checks the program's outputs, and fills the
 * report. With tracing on, each also runs an untraced and a traced
 * half and replays the layers one by one to produce the per-layer
 * metrics.
 */

#include <cstdint>
#include <string>

#include "report.h"
#include "tracer.h"

namespace sleuthbench {

struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Output directory for data directories and the trace file. */
    std::string outDir;
};

/** Set-ups per run; setup_s reports their median. */
constexpr int kSetups = 5;

void runStormBatch(const RunOptions &opts, Report &report, Tracer &tracer);

/** serve_steady and serve_storm (selected by opts.workload). */
void runServe(const RunOptions &opts, Report &report, Tracer &tracer);

} // namespace sleuthbench
