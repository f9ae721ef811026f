#pragma once

/**
 * @file
 * Trace feature engineering (paper §3.2): semantic-aware span encoding,
 * the global base-10-log duration transform, graph batch construction
 * for the GNN, and the per-operation normal profile used to phrase
 * counterfactual "restore to normal" interventions.
 */

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "embed/text_embedder.h"
#include "nn/tensor.h"
#include "trace/trace.h"

namespace sleuth::core {

/**
 * Global duration scaling constants (paper §3.2.2): durations are
 * base-10-log transformed, then standardized with a global mean of 4.0
 * and standard deviation 1.0 so one model applies to all datasets.
 */
struct DurationScale
{
    double mu = 4.0;
    double sigma = 1.0;

    /** Microseconds -> scaled feature. */
    double scaleUs(double us) const;

    /** Scaled feature -> microseconds. */
    double unscale(double scaled) const;
};

/**
 * Per-operation latency profile learned from (mostly) normal traffic;
 * supplies the "normal state" for counterfactual interventions: the
 * median exclusive duration of each (service, name, kind) operation.
 */
class NormalProfile
{
  public:
    /** Fold one trace into the profile. */
    void add(const trace::Trace &trace);

    /** Finalize medians; call once after all add()s. */
    void finalize();

    /**
     * Median exclusive duration of an operation in microseconds.
     * Falls back to the global median for unseen operations.
     */
    double medianExclusiveUs(const std::string &service,
                             const std::string &name,
                             trace::SpanKind kind) const;

    /** Median full duration of an operation in microseconds. */
    double medianDurationUs(const std::string &service,
                            const std::string &name,
                            trace::SpanKind kind) const;

    /** Number of distinct operations profiled. */
    size_t size() const { return stats_.size(); }

  private:
    struct OpStats
    {
        std::vector<double> exclusive;
        std::vector<double> duration;
        double medianExclusive = 0.0;
        double medianDuration = 0.0;
    };

    /** Transparent hash so lookups can pass a string_view over a
        reused buffer instead of allocating a key per span. */
    struct KeyHash
    {
        using is_transparent = void;
        size_t operator()(std::string_view s) const noexcept
        {
            return std::hash<std::string_view>{}(s);
        }
    };

    static std::string key(const std::string &service,
                           const std::string &name,
                           trace::SpanKind kind);

    std::unordered_map<std::string, OpStats, KeyHash, std::equal_to<>>
        stats_;
    double global_exclusive_ = 100.0;
    double global_duration_ = 100.0;
    bool finalized_ = false;
};

/**
 * A batch of traces encoded as one disjoint-union graph ready for the
 * GNN. Node features follow the paper's selection: the semantic
 * embedding of (service, name, kind) plus scaled duration and error
 * status; exclusive features swap in exclusive duration / error.
 */
struct TraceBatch
{
    /** Node features [embedding | scaled duration | error]. */
    nn::Tensor x;
    /** Exclusive node features [embedding | scaled excl dur | excl err]. */
    nn::Tensor xExcl;
    /** Edge child node index (one edge per non-root span). */
    std::vector<size_t> edgeChild;
    /** Edge parent node index. */
    std::vector<size_t> edgeParent;
    /** Node count. */
    size_t numNodes = 0;
    /** First node index of each trace in the batch. */
    std::vector<size_t> traceOffset;
    /** Root node index of each trace. */
    std::vector<size_t> traceRoot;

    /** Feature width (embedding dim + 2). */
    size_t featureDim() const { return x.cols(); }
};

/** Encodes traces into TraceBatches with a shared embedding cache. */
class FeatureEncoder
{
  public:
    /**
     * @param embed_dim semantic embedding width (the paper uses 768-d
     *        sentence-BERT; the hash embedder makes this configurable)
     * @param scale global duration scaling constants
     */
    explicit FeatureEncoder(size_t embed_dim = 16,
                            DurationScale scale = {});

    /** Encode a batch of traces into one disjoint-union graph. */
    TraceBatch encode(const std::vector<const trace::Trace *> &traces);

    /** Encode a single trace. */
    TraceBatch encode(const trace::Trace &trace);

    /**
     * Encode a single trace whose graph and exclusive metrics the
     * caller already built (the same batch as encode(trace)).
     */
    TraceBatch encode(const trace::Trace &trace,
                      const trace::TraceGraph &graph,
                      const trace::ExclusiveMetrics &metrics);

    /** Width of the node feature vectors. */
    size_t featureDim() const { return embedder_.dim() + 2; }

    /** The duration scaling constants in use. */
    const DurationScale &scale() const { return scale_; }

    /** Access to the shared embedder (cache statistics, etc.). */
    embed::TextEmbedder &embedder() { return embedder_; }

  private:
    /**
     * Write trace t's feature rows from node `base` on, with its edges,
     * offset and root, into a batch sized to hold them.
     */
    void encodeRows(const trace::Trace &t, const trace::TraceGraph &graph,
                    const trace::ExclusiveMetrics &m, size_t base,
                    TraceBatch *batch);

    embed::TextEmbedder embedder_;
    DurationScale scale_;
};

} // namespace sleuth::core
