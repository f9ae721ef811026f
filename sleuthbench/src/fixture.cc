#include "fixture.h"

#include <vector>

#include "core/trainer.h"
#include "report.h"
#include "sim/simulator.h"
#include "synth/generator.h"
#include "util/rng.h"
#include "util/strings.h"

namespace sleuthbench {

using namespace sleuth;

namespace {

/** Healthy requests the model and the normal profile are fitted on. */
constexpr size_t kTrainingTraces = 400;
/** Seed of the training corpus, the same for every run seed. */
constexpr uint64_t kTrainingSeed = 0x7ea1;

} // namespace

std::unique_ptr<Fixture>
buildFixture()
{
    auto fx = std::make_unique<Fixture>();
    fx->app = synth::generateApp(synth::syntheticParams(28, 11));
    fx->cluster = std::make_unique<sim::ClusterModel>(fx->app, 10, 11);
    sim::Simulator::calibrateSlos(fx->app, *fx->cluster, 300, 99.0, 11);

    sim::Simulator healthy(fx->app, *fx->cluster, {.seed = kTrainingSeed});
    std::vector<trace::Trace> corpus;
    corpus.reserve(kTrainingTraces);
    for (size_t i = 0; i < kTrainingTraces; ++i)
        corpus.push_back(healthy.simulateOne().trace);
    for (const trace::Trace &t : corpus)
        fx->profile.add(t);
    fx->profile.finalize();

    core::GnnConfig gc;
    fx->encoder = std::make_unique<core::FeatureEncoder>(gc.embedDim);
    fx->model = std::make_unique<core::SleuthGnn>(gc);
    core::TrainConfig tc;
    core::Trainer trainer(*fx->model, *fx->encoder, tc);
    Clock::time_point t0 = Clock::now();
    trainer.train(corpus);
    double ms = msSince(t0);
    fx->trainSteps =
        static_cast<size_t>(tc.epochs) *
        ((corpus.size() + tc.tracesPerBatch - 1) / tc.tracesPerBatch);
    fx->trainStepMs = ms / static_cast<double>(fx->trainSteps);
    return fx;
}

std::set<std::string>
faultedServices(const Fixture &fx, const chaos::FaultPlan &plan)
{
    std::set<std::string> out;
    for (const chaos::FaultSpec &f : plan.faults)
        for (const chaos::Instance &inst : fx.cluster->allInstances())
            if (inst.container == f.target || inst.pod == f.target ||
                inst.node == f.target)
                out.insert(
                    fx.app.services[static_cast<size_t>(inst.serviceId)]
                        .name);
    return out;
}

uint64_t
verdictDigest(const core::PipelineResult &r)
{
    std::string s = std::to_string(r.numClusters);
    for (size_t i = 0; i < r.perTrace.size(); ++i) {
        s += "|" + std::to_string(r.clusterLabels[i]) + ":";
        for (const std::string &svc : r.perTrace[i].services)
            s += svc + ",";
        s += r.perTrace[i].error;
    }
    return util::fnv1a(s);
}

chaos::FaultPlan
effectivePlan(const Fixture &fx, size_t faults, uint64_t plan_seed)
{
    util::Rng rng(plan_seed);
    chaos::FaultPlan best;
    size_t best_violations = 0;
    for (int attempt = 0; attempt < 64; ++attempt) {
        chaos::FaultPlan plan = chaos::planFixedFaults(
            fx.cluster->allInstances(), faults,
            chaos::FaultScope::Container, {}, rng);
        sim::Simulator probe(fx.app, *fx.cluster, {.seed = plan_seed},
                             plan);
        const size_t probes = 200;
        size_t violations = 0;
        for (size_t i = 0; i < probes; ++i) {
            sim::SimResult r = probe.simulateOne();
            if (r.faultTouched() &&
                r.violatesSlo(
                    fx.app.flows[static_cast<size_t>(r.flowIndex)].sloUs))
                ++violations;
        }
        if (violations > best_violations) {
            best = plan;
            best_violations = violations;
        }
        if (violations * 4 >= probes)
            break;
    }
    return best;
}

} // namespace sleuthbench
