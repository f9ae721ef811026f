#include "counterfactual.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>

namespace sleuth::core {

namespace {

/** One candidate service (by its index) and its suspicion score. */
struct CandidateScore
{
    size_t service = 0;
    double score = 0.0;
};

/**
 * A trace's services mapped to small integers once per analysis, in
 * first-appearance order, so restoration marks a vector, not a set.
 */
struct ServiceIndex
{
    /** Service index of each span. */
    std::vector<size_t> ofSpan;
    /** Service name of each index (views into the trace's spans). */
    std::vector<std::string_view> names;

    explicit ServiceIndex(const trace::Trace &trace)
    {
        std::unordered_map<std::string_view, size_t> ids;
        ofSpan.reserve(trace.spans.size());
        for (const trace::Span &s : trace.spans) {
            auto [it, fresh] = ids.try_emplace(s.service, names.size());
            if (fresh)
                names.push_back(s.service);
            ofSpan.push_back(it->second);
        }
    }
};

/** Client and producer spans also affiliate with their callees. */
bool
callsOut(const trace::Span &s)
{
    return s.kind == trace::SpanKind::Client ||
           s.kind == trace::SpanKind::Producer;
}

/**
 * Rank a trace's candidate root-cause services by aggregate exclusive
 * error count and excess exclusive duration (§3.5) — the list the
 * counterfactual restoration loop iterates, nonpositive scores
 * dropped, ties broken lexicographically.
 *
 * @param normal_us each span's normal (median) exclusive duration
 * @param err_weight microseconds of excess duration one exclusive
 *        error is worth (RcaParams::errorWeightUs resolution applied
 *        by the caller)
 */
std::vector<CandidateScore>
rankCandidateServices(const trace::Trace &trace,
                      const trace::TraceGraph &graph,
                      const trace::ExclusiveMetrics &metrics,
                      const ServiceIndex &services,
                      const std::vector<double> &normal_us,
                      double err_weight)
{
    // Rank candidate services by exclusive errors + excess exclusive
    // duration of their affiliated spans (§3.5). A client span
    // affiliates with the callee's service too, because network faults
    // in the child service surface on the client side only. Each
    // service's sum is added in span order, and the final sort below is
    // a strict total order.
    std::vector<double> score(services.names.size(), 0.0);
    for (size_t i = 0; i < trace.spans.size(); ++i) {
        const trace::Span &s = trace.spans[i];
        double excess = std::max(
            0.0, static_cast<double>(metrics.exclusiveUs[i]) - normal_us[i]);
        double add = excess + (metrics.exclusiveError[i] ? err_weight : 0.0);
        size_t own = services.ofSpan[i];
        score[own] += add;
        if (callsOut(s))
            for (int c : graph.children(static_cast<int>(i))) {
                size_t callee = services.ofSpan[static_cast<size_t>(c)];
                if (callee != own)
                    score[callee] += add;
            }
    }
    std::vector<CandidateScore> ranked;
    for (size_t v = 0; v < score.size(); ++v)
        if (score[v] > 0.0)
            ranked.push_back({v, score[v]});
    std::sort(ranked.begin(), ranked.end(),
              [&](const CandidateScore &a, const CandidateScore &b) {
        if (a.score != b.score)
            return a.score > b.score;
        return services.names[a.service] < services.names[b.service];
    });
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
    const size_t n = trace.spans.size();
    ServiceIndex services(trace);
    std::vector<double> normal_us(n);
    for (size_t i = 0; i < n; ++i) {
        const trace::Span &s = trace.spans[i];
        normal_us[i] = profile_.medianExclusiveUs(s.service, s.name, s.kind);
    }

    double err_weight = params_.errorWeightUs > 0.0
        ? params_.errorWeightUs
        : static_cast<double>(std::max<int64_t>(slo_us, 1));
    std::vector<CandidateScore> ranked = rankCandidateServices(
        trace, graph, metrics, services, normal_us, err_weight);
    if (ranked.empty())
        return result;

    // --- Iteratively restore services and ask the counterfactual. ---
    TraceBatch batch = encoder_.encode(trace, graph, metrics);
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
    std::vector<char> restored(services.names.size(), 0);
    for (size_t k = 0; k < limit; ++k) {
        restored[ranked[k].service] = 1;
        result.services.emplace_back(services.names[ranked[k].service]);

        std::vector<NodeState> states = observed;
        std::vector<int> dirty;
        for (size_t i = 0; i < n; ++i) {
            bool restore = restored[services.ofSpan[i]];
            if (!restore && callsOut(trace.spans[i])) {
                // Client-side symptoms clear when the callee recovers.
                for (int c : graph.children(static_cast<int>(i)))
                    restore |= restored[services.ofSpan[
                        static_cast<size_t>(c)]] != 0;
            }
            if (!restore)
                continue;
            states[i].exclusiveUs =
                std::min(states[i].exclusiveUs, normal_us[i]);
            states[i].exclusiveErr = 0.0;
            if (states[i].exclusiveUs != observed[i].exclusiveUs ||
                states[i].exclusiveErr != observed[i].exclusiveErr)
                dirty.push_back(static_cast<int>(i));
        }

        TracePrediction pred =
            model_.propagateFrom(batch, graph, states, baseline, dirty);
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
    for (size_t i = 0; i < n; ++i) {
        if (!restored[services.ofSpan[i]])
            continue;
        const trace::Span &s = trace.spans[i];
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
