#pragma once

/**
 * @file
 * The Sleuth trace GNN (paper §3.4).
 *
 * One message-passing layer suffices by the Markov property of the
 * causal DAG. For every edge child j -> parent i, a shared MLP f_Theta
 * computes a parameter vector h_j from the parent's exclusive features
 * and a GIN aggregation of j with its siblings (Eq. 4). The duration
 * head (Eq. 2) sums clipped-ReLU contributions of unscaled child
 * durations between learned thresholds u'_j <= v'_j plus the parent's
 * exclusive duration; the error head (Eq. 3) max-combines gated child
 * error and duration signals with the parent's exclusive error.
 *
 * Because the network's shape is independent of the RPC graph, one
 * model serves traces of any topology and transfers across
 * applications (paper §6.5). A GCN aggregation variant (Sleuth-GCN,
 * the paper's ablation baseline) is selectable in the config.
 *
 * Implementation note: Eq. 3 as printed uses sigmoid(h_{j,2} * e_j),
 * which is pinned to 0.5 whenever a child has no error (e_j = 0). We
 * use the equivalent-intent formulation sigmoid(h_{j,2}) * e_j for the
 * error-propagation gate and add a learned bias h_{j,4} to the
 * duration-induced (timeout) gate sigmoid(h_{j,3} * d_j + h_{j,4}),
 * so an error-free child can actually predict a zero error
 * probability. The MLP therefore emits five values per edge.
 */

#include <optional>
#include <string>
#include <vector>

#include "core/features.h"
#include "nn/layers.h"
#include "util/json.h"
#include "util/rng.h"

namespace sleuth::core {

/** Message aggregation variant. */
enum class Aggregator { Gin, Gcn };

/** Render an aggregator name. */
const char *toString(Aggregator a);

/** Model hyperparameters. */
struct GnnConfig
{
    /** Semantic embedding width (must match the FeatureEncoder). */
    size_t embedDim = 16;
    /** Hidden width of f_Theta. */
    size_t hidden = 32;
    /** GIN (the Sleuth design) or GCN (the ablation baseline). */
    Aggregator aggregator = Aggregator::Gin;
    /** GIN self-loop weight (1 + epsilon). */
    double epsilon = 0.1;
    /**
     * Offset shaping the clipping window's initialization: the lower
     * threshold u' starts at 10^(mu - offset*sigma) (near zero) and
     * the window width v' - u' at 10^(mu + offset*sigma) (very wide),
     * so child durations initially pass through and clipping must be
     * actively learned. Without it the window collapses onto the
     * normal-duration band and counterfactual interventions saturate.
     */
    double thresholdOffset = 3.0;
    /** Global duration scaling (paper: mu = 4, sigma = 1). */
    DurationScale scale;
    /** Initialization seed. */
    uint64_t seed = 1;
};

/** Predicted state of every span in a batch. */
struct GnnPrediction
{
    /** Predicted scaled duration per node. */
    std::vector<double> durScaled;
    /** Predicted error probability per node. */
    std::vector<double> errProb;
};

/** Predicted state of one trace under (optional) interventions. */
struct TracePrediction
{
    double rootDurationUs = 0.0;
    double rootErrorProb = 0.0;
    /** Bottom-up propagated duration per node, microseconds. */
    std::vector<double> nodeDurUs;
    /** Bottom-up propagated error probability per node. */
    std::vector<double> nodeErrProb;
};

/** Per-node intervention state for counterfactual queries. */
struct NodeState
{
    /** Exclusive duration in microseconds (possibly restored). */
    double exclusiveUs = 0.0;
    /** Exclusive error indicator (possibly cleared). */
    double exclusiveErr = 0.0;
};

/** The Sleuth GNN model. */
class SleuthGnn
{
  public:
    /** Build a randomly initialized model. */
    explicit SleuthGnn(const GnnConfig &config);

    /** Training objective (Eq. 5) over a batch; differentiable. */
    nn::Var loss(const TraceBatch &batch) const;

    /**
     * One-hop reconstruction: predict every span's duration and error
     * from its children's observed states. Used for model evaluation.
     */
    GnnPrediction reconstruct(const TraceBatch &batch) const;

    /**
     * Counterfactual propagation over a single trace: children's
     * predicted (not observed) states feed their parents, so deep
     * interventions surface at the root (paper §3.5).
     *
     * @param batch single-trace encoding (node order = span order)
     * @param graph the trace's dependency graph
     * @param states per-node exclusive durations/errors, already
     *        restored for intervened spans
     */
    TracePrediction propagate(const TraceBatch &batch,
                              const trace::TraceGraph &graph,
                              const std::vector<NodeState> &states) const;

    /**
     * Incremental counterfactual propagation: recompute only the nodes
     * whose predictions can change under the given intervention and
     * reuse the memoized baseline for everything else.
     *
     * An intervention on node i can only alter the predictions of i
     * and its ancestors (a sibling subtree's inputs are untouched), so
     * each counterfactual candidate costs O(depth · fanout) MLP
     * forwards instead of re-running the whole trace. The result is
     * bitwise identical to propagate(batch, graph, states) because
     * clean nodes' predictions are a deterministic function of their
     * unchanged subtrees.
     *
     * @param batch single-trace encoding (node order = span order)
     * @param graph the trace's dependency graph
     * @param states per-node exclusive states, already intervened
     * @param baseline propagate() output for the pre-intervention
     *        states (every node's memoized prediction)
     * @param dirtyNodes indices whose NodeState differs from the
     *        baseline's states (callers must list every changed node)
     */
    TracePrediction propagateFrom(
        const TraceBatch &batch, const trace::TraceGraph &graph,
        const std::vector<NodeState> &states,
        const TracePrediction &baseline,
        const std::vector<int> &dirtyNodes) const;

    /** Trainable parameters. */
    std::vector<nn::Var> parameters() const { return mlp_.parameters(); }

    /** Scalar parameter count (the model size is topology-independent). */
    size_t parameterCount() const { return mlp_.parameterCount(); }

    /** Model configuration. */
    const GnnConfig &config() const { return config_; }

    /** Serialize configuration + weights. */
    util::Json save() const;

    /**
     * Construct a model from untrusted save() output: the config first
     * (embedDim in [1, 1024], hidden in [1, 4096], aggregator gin or
     * gcn), then every tensor. A defect returns nullopt with *error
     * naming its path, e.g. "parameters[3].data[7]: expected a number".
     */
    static std::optional<SleuthGnn> tryFromJson(const util::Json &doc,
                                                std::string *error);

    /** tryFromJson for trusted save() output: a defect is fatal. */
    static SleuthGnn fromJson(const util::Json &doc);

  private:
    struct Forward
    {
        nn::Var durScaled;  // n x 1
        nn::Var errProb;    // n x 1
    };

    Forward forward(const TraceBatch &batch) const;

    /**
     * Recompute one node's propagated prediction from its children's
     * already-propagated values in out->nodeDurUs / out->nodeErrProb
     * (bottom-up invariant: children are finalized before parents).
     */
    void propagateNode(const TraceBatch &batch,
                       const trace::TraceGraph &graph,
                       const std::vector<NodeState> &states, int node,
                       TracePrediction *out) const;

    /** Clamp-then-unscale: 10^(clamp(sigma*x + mu)). */
    nn::Var unscaleVar(const nn::Var &scaled) const;

    GnnConfig config_;
    nn::Mlp mlp_;
};

} // namespace sleuth::core
