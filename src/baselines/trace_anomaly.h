#pragma once

/**
 * @file
 * TraceAnomaly baseline (Liu et al., ISSRE'20; paper §6.1.2).
 *
 * Traces are encoded as fixed-length service-trace vectors (one slot
 * per distinct call path, valued with the scaled span duration), a
 * variational autoencoder learns the normal pattern, anomalous slots
 * are flagged with the three-sigma rule on reconstruction residuals,
 * and the root cause is read off the longest call path containing
 * anomalous spans.
 */

#include <unordered_map>

#include "baselines/rca_algorithm.h"
#include "core/features.h"
#include "nn/layers.h"
#include "nn/optim.h"

namespace sleuth::baselines {

/** TraceAnomaly: VAE + three-sigma localization. */
class TraceAnomalyRca : public RcaAlgorithm
{
  public:
    /** Training / architecture knobs. */
    struct Config
    {
        size_t maxDims = 256;   ///< vector width cap (paths fold over)
        size_t hidden = 32;
        size_t latent = 8;
        int epochs = 40;
        double learningRate = 5e-3;
        double klWeight = 1e-3;
        uint64_t seed = 13;
    };

    explicit TraceAnomalyRca(Config config);

    /** Construct with default configuration. */
    TraceAnomalyRca() : TraceAnomalyRca(Config()) {}

    std::string name() const override { return "trace-anomaly"; }
    void fit(const std::vector<trace::Trace> &corpus) override;
    std::vector<std::string> locate(const trace::Trace &anomaly,
                                    int64_t slo_us) override;

  private:
    struct PathInfo
    {
        size_t dim = 0;   ///< vector slot
        int depth = 0;    ///< call depth of the path
    };

    /** Stable call-path key of a span. */
    static std::string pathKey(const trace::Trace &t,
                               const trace::TraceGraph &g, size_t i);

    std::vector<double> encodeVector(const trace::Trace &t) const;

    /**
     * Each row decoded from its latent mean (the encoder's first
     * `latent` outputs), without the autograd tape.
     */
    nn::Tensor reconstruct(const nn::Tensor &x) const;

    Config config_;
    core::DurationScale scale_;
    std::unordered_map<std::string, PathInfo> paths_;
    std::unique_ptr<nn::Mlp> encoder_;  // dims -> 2*latent (mu, logvar)
    std::unique_ptr<nn::Mlp> decoder_;  // latent -> dims
    std::vector<double> residualStd_;   // per-dim three-sigma basis
    util::Rng rng_;
};

} // namespace sleuth::baselines
