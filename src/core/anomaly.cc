#include "anomaly.h"

#include <cmath>

#include "util/stats.h"

namespace sleuth::core {

bool
SloDetector::isAnomalous(const trace::Trace &trace, int64_t slo_us)
{
    if (slo_us > 0 && trace.rootDurationUs() > slo_us)
        return true;
    for (const trace::Span &s : trace.spans)
        if (s.parentSpanId.empty())
            return s.hasError();
    return false;
}

ModelDetector::ModelDetector(const SleuthGnn &model,
                             FeatureEncoder &encoder,
                             const NormalProfile &profile)
    : model_(model), encoder_(encoder), profile_(profile)
{
}

double
ModelDetector::score(const trace::Trace &trace)
{
    trace::TraceGraph graph = trace::TraceGraph::build(trace);
    TraceBatch batch = encoder_.encode(
        trace, graph, trace::computeExclusive(trace, graph));

    // All-normal counterfactual: every span at its operation's median
    // exclusive duration, no exclusive errors.
    std::vector<NodeState> normal(trace.spans.size());
    for (size_t i = 0; i < trace.spans.size(); ++i) {
        const trace::Span &s = trace.spans[i];
        normal[i].exclusiveUs =
            profile_.medianExclusiveUs(s.service, s.name, s.kind);
        normal[i].exclusiveErr = 0.0;
    }
    TracePrediction pred = model_.propagate(batch, graph, normal);

    double observed = static_cast<double>(
        std::max<int64_t>(trace.rootDurationUs(), 1));
    double expected = std::max(pred.rootDurationUs, 1.0);
    double score = std::log10(observed / expected);
    for (const trace::Span &s : trace.spans)
        if (s.parentSpanId.empty() && s.hasError())
            score += 1.0;
    return score;
}

void
ModelDetector::calibrate(const std::vector<trace::Trace> &normal,
                         double pct)
{
    SLEUTH_ASSERT(!normal.empty(), "calibration corpus empty");
    std::vector<double> scores;
    scores.reserve(normal.size());
    for (const trace::Trace &t : normal)
        scores.push_back(score(t));
    threshold_ = util::percentile(scores, pct);
    calibrated_ = true;
}

bool
ModelDetector::isAnomalous(const trace::Trace &trace)
{
    SLEUTH_ASSERT(calibrated_, "detector not calibrated");
    return score(trace) > threshold_;
}

} // namespace sleuth::core
