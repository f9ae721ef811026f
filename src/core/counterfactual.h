#pragma once

/**
 * @file
 * Root cause analysis with counterfactual queries (paper §3.5).
 *
 * A counterfactual query asks: would this trace still violate its SLO
 * if a chosen set of services were restored to their normal state
 * (exclusive durations at their medians, exclusive errors cleared)?
 * Sleuth ranks candidate services by their aggregate exclusive error
 * count and excess exclusive duration, then iteratively restores them —
 * re-running the GNN bottom-up each time — until the trace is predicted
 * normal; the restored services are the root causes. Root-cause pods,
 * nodes, and containers follow from the span resource attributes of the
 * implicated services.
 */

#include <set>
#include <string>
#include <vector>

#include "core/gnn.h"

namespace sleuth::core {

/** RCA knobs. */
struct RcaParams
{
    /** Predicted root error probability treated as anomalous. */
    double errorThreshold = 0.5;
    /**
     * Scale the SLO test by the model's reconstruction bias on the
     * analyzed trace (off = compare raw predictions against the SLO;
     * kept as a switch for the ablation study).
     */
    bool biasCorrection = true;
    /** Give up after restoring this many services. */
    size_t maxRootCauses = 5;
    /**
     * Multiplicative slack on the bias-corrected SLO test: residual
     * model error after bias correction would otherwise keep marginal
     * traces "abnormal" forever and pile up false positives.
     */
    double sloSlack = 1.15;
    /**
     * Weight of one exclusive error in the candidate ranking,
     * expressed as equivalent microseconds of excess duration; 0 uses
     * the trace's SLO.
     */
    double errorWeightUs = 0.0;
    /**
     * Answer each counterfactual with SleuthGnn::propagateFrom —
     * re-evaluating only the restored spans and their ancestor chains
     * against the memoized baseline — instead of re-running the full
     * bottom-up pass per candidate. Numerically identical verdicts
     * (the recomputed closure is exact); kept as a switch for the
     * perf ablation.
     */
    bool incrementalPropagation = true;
};

/** Output of one RCA query. */
struct RcaResult
{
    /** Predicted root-cause services, in restoration order. */
    std::vector<std::string> services;
    /** Pods hosting the implicated services in this trace. */
    std::set<std::string> pods;
    /** Nodes hosting the implicated services in this trace. */
    std::set<std::string> nodes;
    /** Containers hosting the implicated services in this trace. */
    std::set<std::string> containers;
    /** Counterfactual iterations executed. */
    size_t iterations = 0;
    /** True when restoring the services made the trace normal. */
    bool resolved = false;
    /**
     * Non-empty when the trace could not be analyzed at all (malformed
     * input skipped by the pipeline: cycle, missing root, unresolved
     * parentSpanId, ...). All other fields are empty/false then.
     */
    std::string error;
};

/** Counterfactual root cause analyzer. */
class CounterfactualRca
{
  public:
    /**
     * @param model trained Sleuth GNN (held by reference)
     * @param encoder feature encoder (shared embedding cache)
     * @param profile normal-state profile for interventions
     * @param params RCA knobs
     */
    CounterfactualRca(const SleuthGnn &model, FeatureEncoder &encoder,
                      const NormalProfile &profile,
                      RcaParams params = {});

    /**
     * Locate the root causes of an anomalous trace.
     *
     * @param trace the anomalous trace
     * @param slo_us the latency SLO the trace is held against
     */
    RcaResult analyze(const trace::Trace &trace, int64_t slo_us) const;

  private:
    const SleuthGnn &model_;
    FeatureEncoder &encoder_;
    const NormalProfile &profile_;
    RcaParams params_;
};

} // namespace sleuth::core
