#pragma once

/**
 * @file
 * Shared set-up of every workload: the simulated application and its
 * deployment (the load generator's world), SLO calibration, and the
 * Sleuth model trained on a healthy corpus drawn from the run seed.
 */

#include <cstdint>
#include <memory>
#include <set>
#include <string>

#include "chaos/fault.h"
#include "core/features.h"
#include "core/gnn.h"
#include "core/pipeline.h"
#include "sim/cluster_model.h"
#include "synth/config.h"

namespace sleuthbench {

/** An independent seed for one use of the run seed (splitmix64). */
inline uint64_t
deriveSeed(uint64_t seed, uint64_t tag)
{
    uint64_t z = seed + tag * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

struct Fixture
{
    sleuth::synth::AppConfig app;
    std::unique_ptr<sleuth::sim::ClusterModel> cluster;
    sleuth::core::NormalProfile profile;
    std::unique_ptr<sleuth::core::FeatureEncoder> encoder;
    std::unique_ptr<sleuth::core::SleuthGnn> model;
    /** Trainer::train wall time divided by its optimizer steps. */
    double trainStepMs = 0.0;
    size_t trainSteps = 0;
};

/**
 * Build the fixture. It is the same for every run seed: the
 * application, deployment, SLOs and the training corpus (so the trained
 * model) are fixed, as in a deployment that trained its model once. The
 * run seed drives only the traffic the workloads simulate.
 */
std::unique_ptr<Fixture> buildFixture();

/** Services hosting the instances a fault plan targets (ground truth). */
std::set<std::string> faultedServices(const Fixture &fx,
                                      const sleuth::chaos::FaultPlan &plan);

/**
 * A container-scope plan of `faults` faults that makes at least a
 * quarter of the requests of a probe simulation violate their SLO, so
 * every storm and fault phase is a real incident. Deterministic in
 * `plan_seed` (never in the run seed: the set of storms is fixed).
 */
sleuth::chaos::FaultPlan effectivePlan(const Fixture &fx, size_t faults,
                                       uint64_t plan_seed);

/**
 * Bitwise identity of an analysis: cluster labels, verdict services
 * and errors of every trace.
 */
uint64_t verdictDigest(const sleuth::core::PipelineResult &r);

} // namespace sleuthbench
