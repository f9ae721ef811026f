#pragma once

/**
 * @file
 * Chaosblade-style fault injection (paper §6.1.4).
 *
 * Faults stress CPU, network, memory, or disk at container, pod, or
 * node scope. Whether each instance receives a fault is decided by
 * independent Bernoulli draws with small probabilities, mimicking
 * real-world failure incidence. The resulting FaultPlan is both the
 * input to the trace simulator and the ground truth for accuracy
 * evaluation.
 */

#include <string>
#include <unordered_map>
#include <vector>

#include "synth/config.h"
#include "util/rng.h"

namespace sleuth::chaos {

/** What the fault stresses. */
enum class FaultType {
    CpuStress,      ///< inflates cpu kernels
    MemoryStress,   ///< inflates memory kernels
    DiskStress,     ///< inflates disk kernels, may fail I/O
    NetworkDelay,   ///< inflates RPC network hops
    NetworkError,   ///< drops/fails RPCs at the client side
};

/** Render a fault type. */
const char *toString(FaultType t);

/** Blast radius of a fault. */
enum class FaultScope { Container, Pod, Node };

/** Render a fault scope. */
const char *toString(FaultScope s);

/** A deployed instance (one container of one pod on one node). */
struct Instance
{
    int serviceId = 0;
    std::string container;
    std::string pod;
    std::string node;
};

/** One injected fault. */
struct FaultSpec
{
    FaultType type = FaultType::CpuStress;
    FaultScope scope = FaultScope::Container;
    /** Container, pod, or node name depending on scope. */
    std::string target;
    /** Latency multiplier applied to affected kernels/hops. */
    double latencyMultiplier = 1.0;
    /** Probability an affected span/call errors. */
    double errorProb = 0.0;
};

/** The set of active faults — the experiment's ground truth. */
struct FaultPlan
{
    std::vector<FaultSpec> faults;

    /** True when no fault is active. */
    bool empty() const { return faults.empty(); }
};

/** Bernoulli incidence and severity knobs for fault planning. */
struct ChaosParams
{
    /** P(fault) per container. */
    double containerProb = 0.0;
    /** P(fault) per pod. */
    double podProb = 0.0;
    /** P(fault) per node. */
    double nodeProb = 0.0;
    /** Latency multiplier range for stress faults. */
    double minMultiplier = 5.0;
    double maxMultiplier = 20.0;
    /** Error probability range for error-prone faults. */
    double minErrorProb = 0.3;
    double maxErrorProb = 0.9;
};

/**
 * Decide faults for a deployment by independent Bernoulli draws per
 * instance/pod/node (paper §6.1.4). Fault types are drawn uniformly.
 */
FaultPlan planFaults(const std::vector<Instance> &instances,
                     const ChaosParams &params, util::Rng &rng);

/**
 * Plan exactly `count` faults on distinct uniformly chosen targets
 * (used by experiments that need a fixed number of root causes).
 */
FaultPlan planFixedFaults(const std::vector<Instance> &instances,
                          size_t count, FaultScope scope,
                          const ChaosParams &params, util::Rng &rng);

/**
 * A timed chaos schedule: phases of fault activity over event time,
 * e.g. healthy → faulty → healthy. Drives the online serving layer's
 * live load (sleuth_serviced, online tests and campaign invariants)
 * where storms must start and stop mid-run.
 */
struct FaultPhase
{
    /** Event time at which this phase becomes active (inclusive). */
    int64_t startUs = 0;
    FaultPlan plan;
};

/** Phases sorted by start time; before the first phase, no faults. */
struct FaultSchedule
{
    std::vector<FaultPhase> phases;

    /** Active plan at t: the latest phase with startUs <= t. */
    const FaultPlan &activeAt(int64_t t_us) const;

    /** True when no phase carries any fault. */
    bool empty() const;
};

/**
 * Fast lookup from instance coordinates to the faults affecting them.
 */
class FaultIndex
{
  public:
    /** Build an index over a plan. */
    explicit FaultIndex(const FaultPlan &plan);

    /** Faults affecting an instance (any scope matching). */
    std::vector<const FaultSpec *> faultsOn(const Instance &inst) const;

    /** True when the plan contains no faults. */
    bool empty() const { return empty_; }

  private:
    std::unordered_map<std::string, std::vector<FaultSpec>> by_container_;
    std::unordered_map<std::string, std::vector<FaultSpec>> by_pod_;
    std::unordered_map<std::string, std::vector<FaultSpec>> by_node_;
    bool empty_ = true;
};

} // namespace sleuth::chaos
