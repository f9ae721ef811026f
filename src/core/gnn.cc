#include "gnn.h"

#include <algorithm>
#include <cmath>

namespace sleuth::core {

namespace {

// Unscaled durations are clamped into [1us, 100s] in log10 space before
// exponentiation to keep the forward pass finite early in training.
constexpr double kLogLo = 0.0;
constexpr double kLogHi = 8.0;
constexpr double kProbEps = 1e-6;

util::Rng
seedRng(const GnnConfig &config)
{
    return util::Rng(config.seed ^ 0x6e6eu);
}

} // namespace

const char *
toString(Aggregator a)
{
    switch (a) {
      case Aggregator::Gin: return "gin";
      case Aggregator::Gcn: return "gcn";
    }
    util::panic("invalid aggregator");
}

SleuthGnn::SleuthGnn(const GnnConfig &config)
    : config_(config),
      mlp_([&] {
          util::Rng rng = seedRng(config);
          size_t d = config.embedDim + 2;
          return nn::Mlp({2 * d, config.hidden, config.hidden, 5},
                         nn::Activation::Relu, rng);
      }())
{
}

nn::Var
SleuthGnn::unscaleVar(const nn::Var &scaled) const
{
    return nn::pow10(nn::clamp(
        nn::addScalar(nn::scale(scaled, config_.scale.sigma),
                      config_.scale.mu),
        kLogLo, kLogHi));
}

SleuthGnn::Forward
SleuthGnn::forward(const TraceBatch &batch) const
{
    SLEUTH_ASSERT(batch.featureDim() == config_.embedDim + 2,
                  "batch feature width does not match the model");
    const size_t n = batch.numNodes;
    const size_t ecol = config_.embedDim;

    nn::Var x = nn::constant(batch.x);
    nn::Var xe = nn::constant(batch.xExcl);

    nn::Var child_x = nn::gatherRows(x, batch.edgeChild);     // E x d
    nn::Var sums = nn::segmentSum(child_x, batch.edgeParent, n);
    nn::Var sum_for_edge = nn::gatherRows(sums, batch.edgeParent);

    nn::Var agg;
    if (config_.aggregator == Aggregator::Gin) {
        // (1+eps) x_j + sum over siblings = full child sum + eps x_j.
        agg = nn::add(sum_for_edge,
                      nn::scale(child_x, config_.epsilon));
    } else {
        // GCN: degree-normalized mean over the parent's children.
        std::vector<double> degree(n, 0.0);
        for (size_t p : batch.edgeParent)
            degree[p] += 1.0;
        std::vector<double> inv(batch.edgeParent.size(), 1.0);
        for (size_t e = 0; e < batch.edgeParent.size(); ++e)
            inv[e] = 1.0 / std::max(1.0, degree[batch.edgeParent[e]]);
        agg = nn::rowScale(sum_for_edge, inv);
    }

    nn::Var parent_xe = nn::gatherRows(xe, batch.edgeParent);
    nn::Var h = mlp_.forward(nn::concatCols(parent_xe, agg));  // E x 5

    nn::Var h0 = nn::sliceCols(h, 0, 1);
    nn::Var h1 = nn::sliceCols(h, 1, 2);
    nn::Var h2 = nn::sliceCols(h, 2, 3);
    nn::Var h3 = nn::sliceCols(h, 3, 4);
    nn::Var h4 = nn::sliceCols(h, 4, 5);

    // --- Duration head (Eq. 2). ---
    // Stable reparameterization of the paper's u' = h'1 - h'0,
    // v' = h'1 + h'0: the lower threshold starts near zero, the window
    // width starts wide (pass-through), and v' >= u' >= 0 always holds
    // without a difference of large exponentials.
    nn::Var u = unscaleVar(nn::addScalar(h0, -config_.thresholdOffset));
    nn::Var v = nn::add(
        u, unscaleVar(nn::addScalar(h1, config_.thresholdOffset)));
    nn::Var d_child = nn::sliceCols(child_x, ecol, ecol + 1);
    nn::Var d_child_us = unscaleVar(d_child);
    nn::Var contrib = nn::sub(nn::relu(nn::sub(d_child_us, u)),
                              nn::relu(nn::sub(d_child_us, v)));
    nn::Var excl_dur =
        unscaleVar(nn::sliceCols(xe, ecol, ecol + 1));        // n x 1
    nn::Var dur_us = nn::add(
        nn::segmentSum(contrib, batch.edgeParent, n), excl_dur);
    nn::Var dur_scaled = nn::scale(
        nn::addScalar(nn::log10Op(dur_us), -config_.scale.mu),
        1.0 / config_.scale.sigma);

    // --- Error head (Eq. 3, see the header's implementation note). ---
    nn::Var e_child = nn::sliceCols(child_x, ecol + 1, ecol + 2);
    nn::Var term_err = nn::mul(nn::sigmoid(h2), e_child);
    nn::Var term_dur = nn::sigmoid(nn::add(nn::mul(h3, d_child), h4));
    nn::Var edge_term = nn::maxElem(term_err, term_dur);
    nn::Var node_max =
        nn::segmentMax(edge_term, batch.edgeParent, n, 0.0);
    nn::Var excl_err = nn::sliceCols(xe, ecol + 1, ecol + 2);
    nn::Var err = nn::maxElem(node_max, excl_err);

    return {dur_scaled, err};
}

nn::Var
SleuthGnn::loss(const TraceBatch &batch) const
{
    Forward f = forward(batch);
    const size_t ecol = config_.embedDim;
    nn::Var x = nn::constant(batch.x);
    nn::Var target_d = nn::sliceCols(x, ecol, ecol + 1);
    nn::Var target_e = nn::sliceCols(x, ecol + 1, ecol + 2);

    nn::Var diff = nn::sub(f.durScaled, target_d);
    nn::Var mse = nn::meanAll(nn::mul(diff, diff));

    nn::Var p = nn::clamp(f.errProb, kProbEps, 1.0 - kProbEps);
    nn::Var one_minus_t = nn::scale(nn::addScalar(target_e, -1.0), -1.0);
    nn::Var one_minus_p = nn::scale(nn::addScalar(p, -1.0), -1.0);
    nn::Var bce = nn::scale(
        nn::meanAll(nn::add(nn::mul(target_e, nn::logOp(p)),
                            nn::mul(one_minus_t,
                                    nn::logOp(one_minus_p)))),
        -1.0);
    return nn::add(mse, bce);
}

GnnPrediction
SleuthGnn::reconstruct(const TraceBatch &batch) const
{
    Forward f = forward(batch);
    GnnPrediction out;
    out.durScaled = f.durScaled->value().data();
    out.errProb = f.errProb->value().data();
    return out;
}

void
SleuthGnn::propagateNode(const TraceBatch &batch,
                         const trace::TraceGraph &graph,
                         const std::vector<NodeState> &states, int node,
                         TracePrediction *out) const
{
    const size_t ecol = config_.embedDim;
    const DurationScale &sc = config_.scale;
    size_t i = static_cast<size_t>(node);
    const std::vector<int> &kids = graph.children(node);
    double dur_us = states[i].exclusiveUs;
    double err = states[i].exclusiveErr;
    if (!kids.empty()) {
        // Edge inputs: parent exclusive features with intervened
        // values, children with their *predicted* states.
        const size_t d = ecol + 2;
        nn::Tensor input(kids.size(), 2 * d);
        // Sibling sum of child feature rows (predicted values).
        std::vector<double> sum(d, 0.0);
        auto child_feature = [&](size_t c, size_t col) {
            if (col < ecol)
                return batch.x.at(c, col);
            if (col == ecol)
                return sc.scaleUs(out->nodeDurUs[c]);
            return out->nodeErrProb[c];
        };
        for (int kid : kids)
            for (size_t col = 0; col < d; ++col)
                sum[col] +=
                    child_feature(static_cast<size_t>(kid), col);
        for (size_t k = 0; k < kids.size(); ++k) {
            size_t c = static_cast<size_t>(kids[k]);
            for (size_t col = 0; col < ecol; ++col)
                input.at(k, col) = batch.xExcl.at(i, col);
            input.at(k, ecol) = sc.scaleUs(states[i].exclusiveUs);
            input.at(k, ecol + 1) = states[i].exclusiveErr;
            for (size_t col = 0; col < d; ++col) {
                double self = child_feature(c, col);
                double agg;
                if (config_.aggregator == Aggregator::Gin)
                    agg = sum[col] + config_.epsilon * self;
                else
                    agg = sum[col] /
                          static_cast<double>(kids.size());
                input.at(k, d + col) = agg;
            }
        }
        nn::Tensor h = mlp_.infer(std::move(input));
        auto unscale_clamped = [&](double v) {
            double z = std::clamp(sc.sigma * v + sc.mu, kLogLo,
                                  kLogHi);
            return std::pow(10.0, z);
        };
        for (size_t k = 0; k < kids.size(); ++k) {
            size_t c = static_cast<size_t>(kids[k]);
            double hu = unscale_clamped(
                h.at(k, 0) - config_.thresholdOffset);
            double hv = hu + unscale_clamped(
                h.at(k, 1) + config_.thresholdOffset);
            double dc = out->nodeDurUs[c];
            dur_us += std::max(0.0, dc - hu) -
                      std::max(0.0, dc - hv);
            double sig2 = 1.0 / (1.0 + std::exp(-h.at(k, 2)));
            double gate_dur =
                1.0 / (1.0 + std::exp(-(h.at(k, 3) *
                                            sc.scaleUs(dc) +
                                        h.at(k, 4))));
            err = std::max(
                {err, sig2 * out->nodeErrProb[c], gate_dur});
        }
    }
    out->nodeDurUs[i] = std::max(dur_us, 1.0);
    out->nodeErrProb[i] = std::clamp(err, 0.0, 1.0);
}

TracePrediction
SleuthGnn::propagate(const TraceBatch &batch,
                     const trace::TraceGraph &graph,
                     const std::vector<NodeState> &states) const
{
    const size_t n = batch.numNodes;
    SLEUTH_ASSERT(batch.traceRoot.size() == 1,
                  "propagate expects a single-trace batch");
    SLEUTH_ASSERT(states.size() == n, "state count mismatch");
    SLEUTH_ASSERT(graph.size() == n, "graph size mismatch");

    TracePrediction out;
    out.nodeDurUs.assign(n, 0.0);
    out.nodeErrProb.assign(n, 0.0);

    for (int node : graph.bottomUpOrder())
        propagateNode(batch, graph, states, node, &out);

    size_t root = batch.traceRoot[0];
    out.rootDurationUs = out.nodeDurUs[root];
    out.rootErrorProb = out.nodeErrProb[root];
    return out;
}

TracePrediction
SleuthGnn::propagateFrom(const TraceBatch &batch,
                         const trace::TraceGraph &graph,
                         const std::vector<NodeState> &states,
                         const TracePrediction &baseline,
                         const std::vector<int> &dirtyNodes) const
{
    const size_t n = batch.numNodes;
    SLEUTH_ASSERT(batch.traceRoot.size() == 1,
                  "propagateFrom expects a single-trace batch");
    SLEUTH_ASSERT(states.size() == n, "state count mismatch");
    SLEUTH_ASSERT(graph.size() == n, "graph size mismatch");
    SLEUTH_ASSERT(baseline.nodeDurUs.size() == n &&
                      baseline.nodeErrProb.size() == n,
                  "baseline prediction size mismatch");

    // Start from the memoized baseline; only the dirty closure — the
    // intervened nodes and their root-ward ancestor chains — can
    // change, since every other node's subtree is untouched.
    TracePrediction out;
    out.nodeDurUs = baseline.nodeDurUs;
    out.nodeErrProb = baseline.nodeErrProb;

    std::vector<bool> recompute(n, false);
    for (int d : dirtyNodes) {
        SLEUTH_ASSERT(d >= 0 && static_cast<size_t>(d) < n,
                      "dirty node index");
        for (int a = d; a >= 0; a = graph.parent(a)) {
            if (recompute[static_cast<size_t>(a)])
                break;  // the rest of this chain is already marked
            recompute[static_cast<size_t>(a)] = true;
        }
    }

    for (int node : graph.bottomUpOrder())
        if (recompute[static_cast<size_t>(node)])
            propagateNode(batch, graph, states, node, &out);

    size_t root = batch.traceRoot[0];
    out.rootDurationUs = out.nodeDurUs[root];
    out.rootErrorProb = out.nodeErrProb[root];
    return out;
}

util::Json
SleuthGnn::save() const
{
    util::Json doc = util::Json::object();
    util::Json cfg = util::Json::object();
    cfg.set("embedDim", config_.embedDim);
    cfg.set("hidden", config_.hidden);
    cfg.set("aggregator", toString(config_.aggregator));
    cfg.set("epsilon", config_.epsilon);
    cfg.set("thresholdOffset", config_.thresholdOffset);
    cfg.set("scaleMu", config_.scale.mu);
    cfg.set("scaleSigma", config_.scale.sigma);
    cfg.set("seed", static_cast<int64_t>(config_.seed));
    doc.set("config", std::move(cfg));
    doc.set("parameters", nn::parametersToJson(parameters()));
    return doc;
}

std::optional<SleuthGnn>
SleuthGnn::tryFromJson(const util::Json &doc, std::string *error)
{
    const util::Json *cfg = nullptr;
    const util::Json *params = nullptr;
    GnnConfig config;
    int64_t embed = 0;
    int64_t hidden = 0;
    int64_t seed = 0;
    std::string aggregator;
    if (!util::getField(doc, "", "config", &cfg, error) ||
        !util::getInt(*cfg, "config", "embedDim", &embed, error) ||
        !util::getInt(*cfg, "config", "hidden", &hidden, error) ||
        !util::getString(*cfg, "config", "aggregator", &aggregator, error) ||
        !util::getNumber(*cfg, "config", "epsilon", &config.epsilon,
                         error) ||
        (cfg->has("thresholdOffset") &&
         !util::getNumber(*cfg, "config", "thresholdOffset",
                          &config.thresholdOffset, error)) ||
        !util::getNumber(*cfg, "config", "scaleMu", &config.scale.mu,
                         error) ||
        !util::getNumber(*cfg, "config", "scaleSigma", &config.scale.sigma,
                         error) ||
        !util::getInt(*cfg, "config", "seed", &seed, error) ||
        !util::getField(doc, "", "parameters", &params, error))
        return std::nullopt;
    // train's --embed / --hidden ranges, checked before they size anything.
    auto outside = [&](const char *key, int64_t v, int64_t hi) {
        if (v >= 1 && v <= hi)
            return false;
        *error = std::string("config.") + key +
                 ": expected an integer in [1, " + std::to_string(hi) +
                 "], got " + std::to_string(v);
        return true;
    };
    if (outside("embedDim", embed, 1024) || outside("hidden", hidden, 4096))
        return std::nullopt;
    if (aggregator != "gin" && aggregator != "gcn") {
        *error = "config.aggregator: unknown aggregator '" + aggregator + "'";
        return std::nullopt;
    }
    config.embedDim = static_cast<size_t>(embed);
    config.hidden = static_cast<size_t>(hidden);
    config.aggregator = aggregator == "gcn" ? Aggregator::Gcn : Aggregator::Gin;
    config.seed = static_cast<uint64_t>(seed);
    SleuthGnn model(config);
    if (!nn::tryParametersFromJson(*params, model.parameters(), error)) {
        *error = util::underPath("parameters", *error);
        return std::nullopt;
    }
    return model;
}

SleuthGnn
SleuthGnn::fromJson(const util::Json &doc)
{
    std::string error;
    std::optional<SleuthGnn> model = tryFromJson(doc, &error);
    if (!model)
        util::fatal("model load: ", error);
    return std::move(*model);
}

} // namespace sleuth::core
