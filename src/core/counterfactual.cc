#include "counterfactual.h"

#include <algorithm>
#include <map>
#include <unordered_map>

namespace sleuth::core {

namespace {

/** One candidate service and its suspicion score. */
struct CandidateScore
{
    std::string service;
    double score = 0.0;
};

/**
 * Rank a trace's candidate root-cause services by aggregate exclusive
 * error count and excess exclusive duration (§3.5) — the list the
 * counterfactual restoration loop iterates, nonpositive scores
 * dropped, ties broken lexicographically.
 *
 * @param err_weight microseconds of excess duration one exclusive
 *        error is worth (RcaParams::errorWeightUs resolution applied
 *        by the caller)
 */
std::vector<CandidateScore>
rankCandidateServices(const trace::Trace &trace,
                      const trace::TraceGraph &graph,
                      const trace::ExclusiveMetrics &metrics,
                      const NormalProfile &profile, double err_weight)
{
    // Rank candidate services by exclusive errors + excess exclusive
    // duration of their affiliated spans (§3.5). A client span
    // affiliates with the callee's service too, because network faults
    // in the child service surface on the client side only.
    const size_t n = trace.spans.size();
    // Hashed accumulation: per-service sums are added in span order
    // either way, and the final sort below is a strict total order, so
    // the container choice cannot change the result — only the cost.
    std::unordered_map<std::string, double> score;
    score.reserve(n);
    auto add_score = [&](const std::string &svc, double excess,
                         bool excl_err) {
        score[svc] += excess + (excl_err ? err_weight : 0.0);
    };
    for (size_t i = 0; i < n; ++i) {
        const trace::Span &s = trace.spans[i];
        double excess = std::max(
            0.0, static_cast<double>(metrics.exclusiveUs[i]) -
                     profile.medianExclusiveUs(s.service, s.name,
                                               s.kind));
        add_score(s.service, excess, metrics.exclusiveError[i]);
        if (s.kind == trace::SpanKind::Client ||
            s.kind == trace::SpanKind::Producer) {
            for (int c : graph.children(static_cast<int>(i))) {
                const trace::Span &child =
                    trace.spans[static_cast<size_t>(c)];
                if (child.service != s.service)
                    add_score(child.service, excess,
                              metrics.exclusiveError[i]);
            }
        }
    }
    std::vector<CandidateScore> ranked;
    ranked.reserve(score.size());
    for (const auto &[svc, sc] : score)
        ranked.push_back({svc, sc});
    std::sort(ranked.begin(), ranked.end(),
              [](const CandidateScore &a, const CandidateScore &b) {
        if (a.score != b.score)
            return a.score > b.score;
        return a.service < b.service;
    });
    while (!ranked.empty() && ranked.back().score <= 0.0)
        ranked.pop_back();
    return ranked;
}

} // namespace

CounterfactualRca::CounterfactualRca(const SleuthGnn &model,
                                     FeatureEncoder &encoder,
                                     const NormalProfile &profile,
                                     RcaParams params)
    : model_(model), encoder_(encoder), profile_(profile),
      params_(params)
{
}

RcaResult
CounterfactualRca::analyze(const trace::Trace &trace, int64_t slo_us) const
{
    RcaResult result;
    trace::TraceGraph graph = trace::TraceGraph::build(trace);
    trace::ExclusiveMetrics metrics =
        trace::computeExclusive(trace, graph);
    TraceBatch batch = encoder_.encode(trace);
    const size_t n = trace.spans.size();

    double err_weight = params_.errorWeightUs > 0.0
        ? params_.errorWeightUs
        : static_cast<double>(std::max<int64_t>(slo_us, 1));
    std::vector<CandidateScore> ranked =
        rankCandidateServices(trace, graph, metrics, profile_,
                              err_weight);
    if (ranked.empty())
        return result;

    // --- Iteratively restore services and ask the counterfactual. ---
    std::vector<NodeState> observed(n);
    for (size_t i = 0; i < n; ++i) {
        observed[i].exclusiveUs =
            static_cast<double>(metrics.exclusiveUs[i]);
        observed[i].exclusiveErr =
            metrics.exclusiveError[i] ? 1.0 : 0.0;
    }

    // Bias correction: compare counterfactual predictions against the
    // SLO scaled by the model's own reconstruction bias on this trace,
    // so a systematic over/under-prediction cancels out of the test.
    TracePrediction baseline = model_.propagate(batch, graph, observed);
    double actual_root = static_cast<double>(
        std::max<int64_t>(trace.rootDurationUs(), 1));
    double bias = params_.biasCorrection
        ? std::clamp(baseline.rootDurationUs / actual_root, 0.2, 5.0)
        : 1.0;
    double adjusted_slo = static_cast<double>(std::max<int64_t>(
                              slo_us, 1)) *
                          bias * params_.sloSlack;

    size_t limit = std::min(params_.maxRootCauses, ranked.size());
    std::set<std::string> restored;
    for (size_t k = 0; k < limit; ++k) {
        restored.insert(ranked[k].service);
        result.services.push_back(ranked[k].service);

        std::vector<NodeState> states = observed;
        std::vector<int> dirty;
        for (size_t i = 0; i < n; ++i) {
            const trace::Span &s = trace.spans[i];
            bool restore = restored.count(s.service) > 0;
            if (!restore && (s.kind == trace::SpanKind::Client ||
                             s.kind == trace::SpanKind::Producer)) {
                // Client-side symptoms clear when the callee recovers.
                for (int c : graph.children(static_cast<int>(i)))
                    restore |= restored.count(
                        trace.spans[static_cast<size_t>(c)].service) >
                        0;
            }
            if (!restore)
                continue;
            double normal = profile_.medianExclusiveUs(
                s.service, s.name, s.kind);
            states[i].exclusiveUs =
                std::min(states[i].exclusiveUs, normal);
            states[i].exclusiveErr = 0.0;
            if (states[i].exclusiveUs != observed[i].exclusiveUs ||
                states[i].exclusiveErr != observed[i].exclusiveErr)
                dirty.push_back(static_cast<int>(i));
        }

        TracePrediction pred = params_.incrementalPropagation
            ? model_.propagateFrom(batch, graph, states, baseline,
                                   dirty)
            : model_.propagate(batch, graph, states);
        ++result.iterations;
        bool latency_ok = pred.rootDurationUs <= adjusted_slo;
        // Error check: model-predicted recovery, or — analytically —
        // no exclusive error remains anywhere after the restoration,
        // so the trace has no error origin left.
        bool residual_excl_err = false;
        for (const NodeState &st : states)
            residual_excl_err |= st.exclusiveErr > 0.5;
        bool error_ok =
            pred.rootErrorProb < params_.errorThreshold ||
            pred.rootErrorProb < 0.5 * baseline.rootErrorProb ||
            !residual_excl_err;
        if (latency_ok && error_ok) {
            result.resolved = true;
            break;
        }
    }

    // --- Locate pods/nodes/containers of the implicated services. ---
    std::set<std::string> svc_set(result.services.begin(),
                                  result.services.end());
    for (const trace::Span &s : trace.spans) {
        if (!svc_set.count(s.service))
            continue;
        if (!s.pod.empty())
            result.pods.insert(s.pod);
        if (!s.node.empty())
            result.nodes.insert(s.node);
        if (!s.container.empty())
            result.containers.insert(s.container);
    }
    return result;
}

} // namespace sleuth::core
