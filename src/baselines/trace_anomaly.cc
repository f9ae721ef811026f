#include "trace_anomaly.h"

#include <algorithm>
#include <cmath>

namespace sleuth::baselines {

namespace {

// Slot value for call paths absent from a trace.
constexpr double kAbsent = -3.0;

} // namespace

TraceAnomalyRca::TraceAnomalyRca(Config config)
    : config_(config), rng_(config.seed ^ 0x7a0eu)
{
}

std::string
TraceAnomalyRca::pathKey(const trace::Trace &t,
                         const trace::TraceGraph &g, size_t i)
{
    // service/name/kind chain up to the root (capped at 4 hops).
    std::string key;
    int cur = static_cast<int>(i);
    for (int hop = 0; cur >= 0 && hop < 4;
         cur = g.parent(cur), ++hop) {
        const trace::Span &s = t.spans[static_cast<size_t>(cur)];
        key += s.service + "/" + s.name + "/" + toString(s.kind) + "|";
    }
    return key;
}

std::vector<double>
TraceAnomalyRca::encodeVector(const trace::Trace &t) const
{
    std::vector<double> v(config_.maxDims, kAbsent);
    trace::TraceGraph g = trace::TraceGraph::build(t);
    for (size_t i = 0; i < t.spans.size(); ++i) {
        auto it = paths_.find(pathKey(t, g, i));
        if (it == paths_.end())
            continue;  // unseen path: not representable
        v[it->second.dim] = scale_.scaleUs(
            static_cast<double>(t.spans[i].durationUs()));
    }
    return v;
}

void
TraceAnomalyRca::fit(const std::vector<trace::Trace> &corpus)
{
    SLEUTH_ASSERT(!corpus.empty());
    // --- Path vocabulary. ---
    paths_.clear();
    for (const trace::Trace &t : corpus) {
        trace::TraceGraph g = trace::TraceGraph::build(t);
        for (size_t i = 0; i < t.spans.size(); ++i) {
            std::string key = pathKey(t, g, i);
            auto it = paths_.find(key);
            if (it == paths_.end()) {
                PathInfo info;
                info.dim = paths_.size() % config_.maxDims;
                info.depth = g.depth(static_cast<int>(i));
                paths_.emplace(std::move(key), info);
            }
        }
    }

    // --- Train the VAE. ---
    const size_t dims = config_.maxDims;
    encoder_ = std::make_unique<nn::Mlp>(
        std::vector<size_t>{dims, config_.hidden, 2 * config_.latent},
        nn::Activation::Tanh, rng_);
    decoder_ = std::make_unique<nn::Mlp>(
        std::vector<size_t>{config_.latent, config_.hidden, dims},
        nn::Activation::Tanh, rng_);

    nn::Tensor data(corpus.size(), dims);
    for (size_t r = 0; r < corpus.size(); ++r) {
        std::vector<double> v = encodeVector(corpus[r]);
        for (size_t c = 0; c < dims; ++c)
            data.at(r, c) = v[c];
    }
    nn::Var x = nn::constant(data);

    std::vector<nn::Var> params = encoder_->parameters();
    for (const nn::Var &p : decoder_->parameters())
        params.push_back(p);
    nn::Adam opt(params, config_.learningRate);

    for (int e = 0; e < config_.epochs; ++e) {
        nn::Var enc = encoder_->forward(x);
        nn::Var mu = nn::sliceCols(enc, 0, config_.latent);
        nn::Var logvar = nn::clamp(
            nn::sliceCols(enc, config_.latent, 2 * config_.latent),
            -6.0, 6.0);
        // Reparameterization with fresh Gaussian noise per epoch.
        nn::Tensor eps(corpus.size(), config_.latent);
        for (double &v : eps.data())
            v = rng_.normal();
        nn::Var z = nn::add(
            mu, nn::mul(nn::expOp(nn::scale(logvar, 0.5)),
                        nn::constant(eps)));
        nn::Var recon = decoder_->forward(z);
        nn::Var diff = nn::sub(recon, x);
        nn::Var mse = nn::meanAll(nn::mul(diff, diff));
        // KL(q || N(0,1)) = -0.5 * (1 + logvar - mu^2 - e^logvar).
        nn::Var kl = nn::scale(
            nn::meanAll(nn::sub(
                nn::addScalar(logvar, 1.0),
                nn::add(nn::mul(mu, mu), nn::expOp(logvar)))),
            -0.5);
        nn::Var loss =
            nn::add(mse, nn::scale(kl, config_.klWeight));
        nn::backward(loss);
        opt.step();
    }

    // --- Per-dimension residual scale for the three-sigma rule. ---
    nn::Tensor recon = reconstruct(data);
    residualStd_.assign(dims, 1e-9);
    std::vector<double> mean(dims, 0.0);
    for (size_t r = 0; r < corpus.size(); ++r)
        for (size_t c = 0; c < dims; ++c)
            mean[c] += recon.at(r, c) - data.at(r, c);
    for (double &m : mean)
        m /= static_cast<double>(corpus.size());
    for (size_t r = 0; r < corpus.size(); ++r)
        for (size_t c = 0; c < dims; ++c) {
            double d = recon.at(r, c) - data.at(r, c) - mean[c];
            residualStd_[c] += d * d;
        }
    for (double &s : residualStd_)
        s = std::sqrt(s / static_cast<double>(corpus.size())) + 1e-6;
}

nn::Tensor
TraceAnomalyRca::reconstruct(const nn::Tensor &x) const
{
    return decoder_->infer(
        encoder_->infer(x).sliceCols(0, config_.latent));
}

std::vector<std::string>
TraceAnomalyRca::locate(const trace::Trace &anomaly, int64_t slo_us)
{
    (void)slo_us;
    SLEUTH_ASSERT(encoder_, "trace-anomaly not fitted");
    std::vector<double> v = encodeVector(anomaly);
    nn::Tensor recon = reconstruct(nn::Tensor(1, v.size(), v));

    // Anomalous dims by the three-sigma rule on residuals (one-sided:
    // the observed duration exceeds the reconstructed normal).
    std::vector<bool> anomalous(v.size(), false);
    for (size_t c = 0; c < v.size(); ++c)
        anomalous[c] = v[c] - recon.at(0, c) > 3.0 * residualStd_[c];

    // Root cause: deepest anomalous span on the longest anomalous
    // path; when the three-sigma rule flags nothing, fall back to the
    // span with the largest positive residual.
    trace::TraceGraph g = trace::TraceGraph::build(anomaly);
    int best = -1;
    int best_depth = 0;
    int fallback = -1;
    double fallback_resid = 0.0;
    for (size_t i = 0; i < anomaly.spans.size(); ++i) {
        auto it = paths_.find(pathKey(anomaly, g, i));
        if (it == paths_.end())
            continue;
        size_t dim = it->second.dim;
        double resid = v[dim] - recon.at(0, dim);
        if (resid > fallback_resid) {
            fallback_resid = resid;
            fallback = static_cast<int>(i);
        }
        if (!anomalous[dim])
            continue;
        int depth = g.depth(static_cast<int>(i));
        if (depth > best_depth) {
            best_depth = depth;
            best = static_cast<int>(i);
        }
    }
    if (best < 0)
        best = fallback;
    if (best < 0)
        return {};
    return {anomaly.spans[static_cast<size_t>(best)].service};
}

} // namespace sleuth::baselines
