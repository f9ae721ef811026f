#include "invariants.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "baselines/simple_rules.h"
#include "cluster/hdbscan.h"
#include "collector/collector.h"
#include "core/pipeline_cache.h"
#include "distance/trace_distance.h"
#include "durable/durable_log.h"
#include "online/durable_state.h"
#include "online/service.h"
#include "sim/simulator.h"
#include "storage/trace_store.h"
#include "synth/infer.h"
#include "trace/trace_json.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/simd.h"

namespace sleuth::campaign {

namespace {

InvariantResult
fail(std::string why)
{
    return {false, std::move(why)};
}

InvariantResult
pass()
{
    return {true, ""};
}

std::string
joinServices(const std::vector<std::string> &xs)
{
    std::string out;
    for (const std::string &x : xs) {
        if (!out.empty())
            out += ",";
        out += x;
    }
    return out.empty() ? "<none>" : out;
}

/**
 * Full structural comparison of two pipeline results; returns a
 * human-readable description of the first difference, or empty.
 */
std::string
diffResults(const core::PipelineResult &a,
            const core::PipelineResult &b)
{
    std::ostringstream os;
    if (a.perTrace.size() != b.perTrace.size()) {
        os << "perTrace size " << a.perTrace.size() << " vs "
           << b.perTrace.size();
        return os.str();
    }
    if (a.clusterLabels != b.clusterLabels)
        return "cluster labels differ";
    if (a.numClusters != b.numClusters) {
        os << "numClusters " << a.numClusters << " vs "
           << b.numClusters;
        return os.str();
    }
    if (a.rcaInvocations != b.rcaInvocations) {
        os << "rcaInvocations " << a.rcaInvocations << " vs "
           << b.rcaInvocations;
        return os.str();
    }
    if (a.distanceEvaluations != b.distanceEvaluations) {
        os << "distanceEvaluations " << a.distanceEvaluations
           << " vs " << b.distanceEvaluations;
        return os.str();
    }
    if (a.skippedTraces != b.skippedTraces) {
        os << "skippedTraces " << a.skippedTraces << " vs "
           << b.skippedTraces;
        return os.str();
    }
    for (size_t i = 0; i < a.perTrace.size(); ++i) {
        const core::RcaResult &x = a.perTrace[i];
        const core::RcaResult &y = b.perTrace[i];
        if (x.services != y.services) {
            os << "trace " << i << " services ["
               << joinServices(x.services) << "] vs ["
               << joinServices(y.services) << "]";
            return os.str();
        }
        if (x.pods != y.pods || x.nodes != y.nodes ||
            x.containers != y.containers) {
            os << "trace " << i << " scope sets differ";
            return os.str();
        }
        if (x.iterations != y.iterations ||
            x.resolved != y.resolved || x.error != y.error) {
            os << "trace " << i << " verdict metadata differs";
            return os.str();
        }
    }
    return "";
}

/** Field-by-field trace equality (serialization round trips). */
std::string
diffTraces(const trace::Trace &a, const trace::Trace &b)
{
    std::ostringstream os;
    if (a.traceId != b.traceId) {
        os << "traceId " << a.traceId << " vs " << b.traceId;
        return os.str();
    }
    if (a.spans.size() != b.spans.size()) {
        os << "span count " << a.spans.size() << " vs "
           << b.spans.size();
        return os.str();
    }
    for (size_t i = 0; i < a.spans.size(); ++i) {
        const trace::Span &x = a.spans[i];
        const trace::Span &y = b.spans[i];
        if (x.spanId != y.spanId || x.parentSpanId != y.parentSpanId ||
            x.service != y.service || x.name != y.name ||
            x.kind != y.kind || x.startUs != y.startUs ||
            x.endUs != y.endUs || x.status != y.status ||
            x.container != y.container || x.pod != y.pod ||
            x.node != y.node) {
            os << "span " << i << " of trace " << a.traceId
               << " differs";
            return os.str();
        }
    }
    return "";
}

/** Fraction of storm traces whose verdict hits the ground truth. */
double
hitRate(const core::PipelineResult &res,
        const std::vector<std::set<std::string>> &truth)
{
    if (truth.empty())
        return 1.0;
    size_t hits = 0;
    for (size_t i = 0; i < truth.size(); ++i) {
        for (const std::string &svc : res.perTrace[i].services) {
            if (truth[i].count(svc)) {
                ++hits;
                break;
            }
        }
    }
    return static_cast<double>(hits) /
           static_cast<double>(truth.size());
}

/**
 * Accuracy floor per application tier, calibrated at roughly half the
 * minimum hit rate observed over 1000+ randomized easy scenarios. The
 * floors catch collapses (a model that stopped locating anything), not
 * regressions of a few points — those are the perf suite's job. The
 * 12-RPC tier gets no floor (negative): apps that small cannot be
 * trained reliably with campaign-sized budgets, so it exercises the
 * metamorphic and robustness invariants only.
 */
double
tierFloor(int num_rpcs)
{
    if (num_rpcs < 16)
        return -1.0;
    if (num_rpcs < 24)
        return 0.15;
    if (num_rpcs < 32)
        return 0.20;
    return 0.25;
}

// ---------------------------------------------------------------------
// Invariants.
// ---------------------------------------------------------------------

InvariantResult
checkThreadDeterminism(const ScenarioRun &run, const CheckContext &)
{
    core::PipelineConfig cfg = run.scenario.pipelineConfig();
    cfg.numThreads = 1;
    core::PipelineResult base = run.analyze(cfg);
    for (size_t threads : {size_t{2}, size_t{8}}) {
        cfg.numThreads = threads;
        std::string diff = diffResults(base, run.analyze(cfg));
        if (!diff.empty())
            return fail("results diverge at numThreads=" +
                        std::to_string(threads) + ": " + diff);
    }
    return pass();
}

/**
 * The pipeline's pairwise distances for a storm, computed exactly as
 * the pipeline computes them (span-set encoding under the config's
 * distance options, weighted Jaccard).
 */
std::vector<std::vector<double>>
pairwiseDistances(const ScenarioRun &run,
                  const core::PipelineConfig &cfg)
{
    const size_t n = run.traces.size();
    std::vector<distance::WeightedSpanSet> sets(n);
    for (size_t i = 0; i < n; ++i) {
        trace::TraceGraph graph;
        std::string err;
        if (trace::TraceGraph::tryBuild(run.traces[i], &graph, &err))
            sets[i] = distance::encodeSpanSet(run.traces[i], graph,
                                              cfg.distanceOpts);
    }
    std::vector<std::vector<double>> d(n, std::vector<double>(n, 0.0));
    for (size_t i = 0; i < n; ++i)
        for (size_t j = i + 1; j < n; ++j)
            d[i][j] = d[j][i] =
                distance::jaccardDistance(sets[i], sets[j]);
    return d;
}

/**
 * True when HDBSCAN's tie-breaking may legally depend on input order:
 * the mutual-reachability edge multiset has (near-)duplicate weights,
 * so MST construction — and with it the condensed hierarchy — is not
 * unique. Incident storms hit this constantly (repeated flows produce
 * identical span sets, i.e. distance-0 pairs), and the implementation
 * breaks such ties by batch index, which is an accepted and documented
 * order sensitivity — not a bug the campaign should flag.
 */
bool
hdbscanHasTies(const std::vector<std::vector<double>> &d,
               const cluster::HdbscanParams &params)
{
    const size_t n = d.size();
    if (n < 2)
        return false;
    // Core distances, replicated from cluster::hdbscan().
    size_t k = std::max<size_t>(1, params.minSamples);
    std::vector<double> core(n, 0.0);
    std::vector<double> row(n - 1);
    for (size_t i = 0; i < n; ++i) {
        size_t w = 0;
        for (size_t j = 0; j < n; ++j)
            if (j != i)
                row[w++] = d[i][j];
        size_t kk = std::min(k, w) - 1;
        std::nth_element(row.begin(),
                         row.begin() + static_cast<ptrdiff_t>(kk),
                         row.begin() + static_cast<ptrdiff_t>(w));
        core[i] = row[kk];
    }
    std::vector<double> edges;
    edges.reserve(n * (n - 1) / 2);
    for (size_t i = 0; i < n; ++i)
        for (size_t j = i + 1; j < n; ++j)
            edges.push_back(std::max({core[i], core[j], d[i][j]}));
    std::sort(edges.begin(), edges.end());
    for (size_t i = 1; i < edges.size(); ++i)
        if (edges[i] - edges[i - 1] < 1e-9)
            return true;
    return false;
}

InvariantResult
checkPermutationInvariance(const ScenarioRun &run,
                           const CheckContext &)
{
    const size_t n = run.traces.size();
    std::vector<size_t> perm(n);
    for (size_t i = 0; i < n; ++i)
        perm[i] = i;
    util::Rng rng(run.scenario.seed ^ 0x9e57u);
    rng.shuffle(perm);

    std::vector<trace::Trace> shuffled;
    std::vector<int64_t> shuffled_slos;
    shuffled.reserve(n);
    for (size_t i : perm) {
        shuffled.push_back(run.traces[i]);
        shuffled_slos.push_back(run.slos[i]);
    }

    // Individual RCA is a per-trace function of the trace alone, so
    // with clustering off the verdicts must survive any reordering
    // exactly — this part holds in every scenario.
    core::PipelineConfig solo = run.scenario.pipelineConfig();
    solo.clustering = false;
    core::PipelineResult solo_base = run.analyze(solo);
    core::PipelineResult solo_perm =
        run.analyzeBatch(solo, shuffled, shuffled_slos);
    for (size_t pos = 0; pos < n; ++pos) {
        const core::RcaResult &x = solo_base.perTrace[perm[pos]];
        const core::RcaResult &y = solo_perm.perTrace[pos];
        if (x.services != y.services)
            return fail(
                "individual-RCA verdict of trace " +
                std::to_string(perm[pos]) + " [" +
                joinServices(x.services) + "] became [" +
                joinServices(y.services) + "] under permutation");
        if (x.error != y.error || x.resolved != y.resolved)
            return fail("individual-RCA metadata of trace " +
                        std::to_string(perm[pos]) +
                        " changed under permutation");
    }

    core::PipelineConfig cfg = run.scenario.pipelineConfig();
    if (!cfg.clustering)
        return pass();
    core::PipelineResult base = run.analyze(cfg);
    core::PipelineResult permuted =
        run.analyzeBatch(cfg, shuffled, shuffled_slos);
    if (base.skippedTraces != permuted.skippedTraces)
        return fail("skippedTraces changed under permutation");

    if (cfg.algorithm == core::PipelineConfig::Algorithm::Dbscan) {
        // DBSCAN's core points and their connectivity components are
        // order-independent, so the cluster count and every trace's
        // noise-vs-clustered status must hold; which neighboring
        // cluster claims a border point is legitimately order-
        // dependent, so per-trace verdicts are not compared.
        if (base.numClusters != permuted.numClusters)
            return fail("DBSCAN numClusters " +
                        std::to_string(base.numClusters) + " vs " +
                        std::to_string(permuted.numClusters) +
                        " under permutation");
        for (size_t pos = 0; pos < n; ++pos)
            if ((base.clusterLabels[perm[pos]] < 0) !=
                (permuted.clusterLabels[pos] < 0))
                return fail("DBSCAN noise membership of trace " +
                            std::to_string(perm[pos]) +
                            " flipped under permutation");
        return pass();
    }

    // HDBSCAN: when the mutual-reachability edges are tie-free the MST
    // (and everything downstream) is unique, so the full partition and
    // all verdicts must be preserved. With ties, the documented
    // by-index tie-breaking makes the partition order-dependent and
    // only the weak properties above apply.
    if (hdbscanHasTies(pairwiseDistances(run, cfg), cfg.hdbscan))
        return pass();

    if (base.numClusters != permuted.numClusters)
        return fail("numClusters " +
                    std::to_string(base.numClusters) + " vs " +
                    std::to_string(permuted.numClusters) +
                    " under tie-free permutation");

    // The cluster partition must be identical up to label renaming.
    std::map<int, int> base_to_perm;
    for (size_t pos = 0; pos < n; ++pos) {
        int bl = base.clusterLabels[perm[pos]];
        int pl = permuted.clusterLabels[pos];
        if ((bl < 0) != (pl < 0))
            return fail("trace " + std::to_string(perm[pos]) +
                        " noise/cluster membership flipped under "
                        "tie-free permutation");
        if (bl < 0)
            continue;
        auto [it, inserted] = base_to_perm.emplace(bl, pl);
        if (!inserted && it->second != pl)
            return fail("cluster partition not preserved under "
                        "tie-free permutation");
    }

    // Verdicts travel with the trace, not with its batch position.
    for (size_t pos = 0; pos < n; ++pos) {
        const core::RcaResult &x = base.perTrace[perm[pos]];
        const core::RcaResult &y = permuted.perTrace[pos];
        if (x.services != y.services)
            return fail(
                "trace " + std::to_string(perm[pos]) + " verdict [" +
                joinServices(x.services) + "] became [" +
                joinServices(y.services) +
                "] under tie-free permutation");
        if (x.error != y.error)
            return fail("trace " + std::to_string(perm[pos]) +
                        " error verdict changed under permutation");
    }
    return pass();
}

InvariantResult
checkJsonRoundTrip(const ScenarioRun &run, const CheckContext &)
{
    util::Json doc = trace::toJson(run.traces);
    std::string text = doc.dump();
    std::string err;
    util::Json reparsed = util::Json::parse(text, &err);
    if (!err.empty())
        return fail("serialized storm failed to re-parse: " + err);
    std::vector<trace::Trace> reloaded =
        trace::tracesFromJson(reparsed);
    if (reloaded.size() != run.traces.size())
        return fail("round trip changed trace count");
    for (size_t i = 0; i < reloaded.size(); ++i) {
        std::string diff = diffTraces(run.traces[i], reloaded[i]);
        if (!diff.empty())
            return fail("round trip altered " + diff);
    }
    core::PipelineConfig cfg = run.scenario.pipelineConfig();
    std::string diff = diffResults(
        run.analyze(cfg), run.analyzeBatch(cfg, reloaded, run.slos));
    if (!diff.empty())
        return fail("reanalysis after JSON round trip diverged: " +
                    diff);
    return pass();
}

/** Deterministic malformed traces for the skip-accounting check. */
std::vector<trace::Trace>
malformedTraces()
{
    auto span = [](const std::string &id, const std::string &parent,
                   int64_t start, int64_t end) {
        trace::Span s;
        s.spanId = id;
        s.parentSpanId = parent;
        s.service = "campaign-bad";
        s.name = "Op";
        s.startUs = start;
        s.endUs = end;
        s.container = "campaign-bad-ctr";
        s.pod = "campaign-bad-pod";
        s.node = "campaign-bad-node";
        return s;
    };
    std::vector<trace::Trace> out;
    trace::Trace orphan;
    orphan.traceId = "campaign-orphan";
    orphan.spans = {span("r", "", 0, 100),
                    span("x", "no-such-span", 10, 60)};
    out.push_back(orphan);
    trace::Trace cyclic;
    cyclic.traceId = "campaign-cyclic";
    cyclic.spans = {span("r", "", 0, 100), span("a", "b", 5, 50),
                    span("b", "a", 6, 40)};
    out.push_back(cyclic);
    trace::Trace dup;
    dup.traceId = "campaign-dup";
    dup.spans = {span("r", "", 0, 100), span("d", "r", 5, 50),
                 span("d", "r", 6, 40)};
    out.push_back(dup);
    return out;
}

InvariantResult
checkSkippedAccounting(const ScenarioRun &run, const CheckContext &ctx)
{
    core::PipelineConfig cfg = run.scenario.pipelineConfig();
    core::PipelineResult base = run.analyze(cfg);

    std::vector<trace::Trace> batch = run.traces;
    std::vector<int64_t> batch_slos = run.slos;
    const size_t n = run.traces.size();
    std::vector<trace::Trace> bad = malformedTraces();
    for (trace::Trace &t : bad) {
        batch.push_back(std::move(t));
        batch_slos.push_back(1000);
    }
    size_t k = batch.size() - n;
    size_t expected_skipped = k;
    if (ctx.mutation == "miscount-skipped")
        expected_skipped = k + 1;  // deliberately wrong (test-only)

    core::PipelineResult res =
        run.analyzeBatch(cfg, batch, batch_slos);
    if (res.skippedTraces != expected_skipped)
        return fail("skippedTraces=" +
                    std::to_string(res.skippedTraces) + ", expected " +
                    std::to_string(expected_skipped) + " after " +
                    std::to_string(k) + " injected malformed traces");
    for (size_t i = n; i < batch.size(); ++i) {
        if (res.perTrace[i].error.empty())
            return fail("injected malformed trace " +
                        std::to_string(i - n) +
                        " did not get an error verdict");
        if (res.clusterLabels[i] != -1)
            return fail("injected malformed trace was clustered");
    }
    // The well-formed prefix must be untouched: malformed traces are
    // compacted out before the distance matrix, so clustering and
    // verdicts match the clean batch exactly.
    auto wellFormedPrefix = [n](core::PipelineResult r) {
        r.perTrace.resize(n);
        r.clusterLabels.resize(n);
        r.skippedTraces = 0;
        return r;
    };
    std::string diff =
        diffResults(wellFormedPrefix(base), wellFormedPrefix(res));
    if (!diff.empty())
        return fail("well-formed traces were disturbed by malformed "
                    "batch mates: " + diff);

    // The caller-provided-distance path compacts the same way: its
    // prefix equals its run of the clean batch, and its distance
    // accounting excludes the malformed rows.
    core::SleuthPipeline pipeline(run.adapter->model(),
                                  run.adapter->encoder(),
                                  run.adapter->profile(), cfg);
    std::function<double(size_t, size_t)> flat = [](size_t, size_t) {
        return 0.3;
    };
    core::PipelineResult via_oracle =
        pipeline.analyzeWithDistance(batch, batch_slos, flat);
    diff = diffResults(
        wellFormedPrefix(
            pipeline.analyzeWithDistance(run.traces, run.slos, flat)),
        wellFormedPrefix(via_oracle));
    if (!diff.empty())
        return fail("caller-distance path: well-formed traces were "
                    "disturbed by malformed batch mates: " + diff);
    size_t expected_evals =
        cfg.clustering ? n * (n > 0 ? n - 1 : 0) / 2 : 0;
    if (via_oracle.skippedTraces != k)
        return fail("caller-distance path skippedTraces=" +
                    std::to_string(via_oracle.skippedTraces) +
                    ", expected " + std::to_string(k));
    if (via_oracle.distanceEvaluations != expected_evals)
        return fail("caller-distance path distanceEvaluations=" +
                    std::to_string(via_oracle.distanceEvaluations) +
                    ", expected " + std::to_string(expected_evals) +
                    " over the well-formed traces");
    return pass();
}

InvariantResult
checkAccuracyFloor(const ScenarioRun &run, const CheckContext &)
{
    // Some randomized scenarios are unsolvable at service granularity
    // (node-scope faults perturbing everything a little, storms of a
    // handful of traces), so an unconditional per-scenario floor would
    // flake on arbitrary seeds. The floor is therefore gated on
    // scenario easiness: when the crude max-duration heuristic solves
    // the storm comfortably, a collapsed model has no excuse.
    baselines::MaxDurationRca heuristic;
    heuristic.fit(run.trainCorpus);
    size_t heuristic_hits = 0;
    for (size_t i = 0; i < run.traces.size(); ++i) {
        for (const std::string &svc :
             heuristic.locate(run.traces[i], run.slos[i])) {
            if (run.truthServices[i].count(svc)) {
                ++heuristic_hits;
                break;
            }
        }
    }
    double heuristic_rate = static_cast<double>(heuristic_hits) /
                            static_cast<double>(run.traces.size());
    double floor = tierFloor(run.scenario.numRpcs);
    if (heuristic_rate < 0.7 || floor < 0.0)
        return pass();  // hard scenario or tiny tier: no floor binds

    core::PipelineResult res =
        run.analyze(run.scenario.pipelineConfig());
    double rate = hitRate(res, run.truthServices);
    if (rate + 1e-12 < floor) {
        std::ostringstream os;
        os << "top-k hit rate " << rate << " below the "
           << run.scenario.numRpcs << "-RPC tier floor " << floor
           << " over " << run.traces.size()
           << " queries (heuristic solves " << heuristic_rate
           << " of them: the scenario is easy)";
        return fail(os.str());
    }
    return pass();
}

InvariantResult
checkBaselineDifferential(const ScenarioRun &run, const CheckContext &)
{
    core::PipelineResult res =
        run.analyze(run.scenario.pipelineConfig());
    baselines::MaxDurationRca baseline;
    baseline.fit(run.trainCorpus);

    std::set<std::string> services = run.serviceNames();
    size_t baseline_hits = 0;
    for (size_t i = 0; i < run.traces.size(); ++i) {
        std::vector<std::string> predicted =
            baseline.locate(run.traces[i], run.slos[i]);
        for (const std::string &svc : predicted)
            if (!services.count(svc))
                return fail("baseline predicted unknown service '" +
                            svc + "'");
        for (const std::string &svc : predicted) {
            if (run.truthServices[i].count(svc)) {
                ++baseline_hits;
                break;
            }
        }
        for (const std::string &svc : res.perTrace[i].services)
            if (!services.count(svc))
                return fail("pipeline predicted unknown service '" +
                            svc + "'");
    }
    // The gap check binds from the 16-RPC tier up, like the accuracy
    // floor (12-RPC models are too small to train reliably; their
    // prediction-name sanity above still applies).
    if (run.scenario.numRpcs < 16)
        return pass();
    double baseline_rate = static_cast<double>(baseline_hits) /
                           static_cast<double>(run.traces.size());
    double sleuth_rate = hitRate(res, run.truthServices);
    // Differential sanity, not a leaderboard: the learned pipeline
    // may trail the single-best-guess heuristic on a lucky storm
    // (worst observed gap over 1000+ random scenarios: 0.64), but a
    // larger gap means the model or the clustering broke.
    if (sleuth_rate + 0.75 < baseline_rate) {
        std::ostringstream os;
        os << "pipeline hit rate " << sleuth_rate
           << " implausibly far below the max-duration baseline "
           << baseline_rate;
        return fail(os.str());
    }
    return pass();
}

InvariantResult
checkStorageRoundTrip(const ScenarioRun &run, const CheckContext &)
{
    storage::TraceStore store;
    collector::TraceCollector coll(&store);
    for (size_t i = 0; i < run.traces.size(); ++i) {
        util::Json payload = util::Json::array();
        payload.push(trace::toJson(run.traces[i]));
        size_t accepted = coll.ingest(payload.dump(),
                                      collector::Protocol::Otel,
                                      run.slos[i]);
        if (accepted != 1)
            return fail("collector rejected well-formed trace " +
                        run.traces[i].traceId);
    }
    if (store.size() != run.traces.size())
        return fail("store holds " + std::to_string(store.size()) +
                    " records, expected " +
                    std::to_string(run.traces.size()));

    // Reload in the original batch order (keyed by traceId) and
    // require a bitwise-identical reanalysis.
    std::map<std::string, size_t> by_id;
    for (size_t id = 0; id < store.size(); ++id)
        by_id[store.at(id).traceId()] = id;
    std::vector<trace::Trace> reloaded;
    std::vector<int64_t> reloaded_slos;
    for (size_t i = 0; i < run.traces.size(); ++i) {
        auto it = by_id.find(run.traces[i].traceId);
        if (it == by_id.end())
            return fail("trace " + run.traces[i].traceId +
                        " vanished in the store");
        const storage::Record &rec = store.at(it->second);
        std::string diff = diffTraces(run.traces[i], rec.trace());
        if (!diff.empty())
            return fail("persisted " + diff);
        if (rec.sloUs != run.slos[i])
            return fail("persisted SLO drifted for trace " +
                        run.traces[i].traceId);
        reloaded.push_back(rec.trace());
        reloaded_slos.push_back(rec.sloUs);
    }
    core::PipelineConfig cfg = run.scenario.pipelineConfig();
    std::string diff =
        diffResults(run.analyze(cfg),
                    run.analyzeBatch(cfg, reloaded, reloaded_slos));
    if (!diff.empty())
        return fail("reanalysis after collector→store→reload "
                    "diverged: " + diff);
    return pass();
}

/**
 * The fields of an incident that must be identical across ingest
 * thread counts (wall-clock timing excluded by construction).
 */
std::string
incidentFingerprint(const online::Incident &incident)
{
    std::ostringstream os;
    os << incident.id << "|" << online::toString(incident.state) << "|"
       << incident.openedAtUs << "|" << incident.windowStartUs << "|"
       << incident.windowEndUs << "|" << incident.snapshotMaxRecordId
       << "\n";
    for (const std::string &e : incident.endpoints)
        os << "ep " << e << "\n";
    for (size_t i = 0; i < incident.anomalousTraces.size(); ++i) {
        os << incident.anomalousTraces[i].traceId << " slo "
           << incident.slos[i];
        if (i < incident.rca.perTrace.size())
            os << " -> "
               << joinServices(incident.rca.perTrace[i].services);
        os << "\n";
    }
    for (const trace::Trace &t : incident.normalSample)
        os << "normal " << t.traceId << "\n";
    for (const auto &[svc, votes] : incident.rankedRootCauses)
        os << "rank " << svc << "=" << votes << "\n";
    return os.str();
}

/** One span delivery on the staggered storm timeline. */
struct StormDelivery
{
    int64_t atUs = 0;
    online::SpanEvent event;
};

/**
 * The scenario's storm rendered as an online serving workload, shared
 * by every online-layer invariant (differential, crash-recovery,
 * wal-torn-tail): a detection configuration whose single window
 * comfortably spans the staggered storm, an endpoint SLO map judging
 * each endpoint by the tightest SLO seen at it, and the storm exploded
 * into span events delivered at span end in one canonical order (the
 * thread count only changes which thread performs a delivery).
 */
struct StormTimeline
{
    online::OnlineConfig cfg;
    std::vector<StormDelivery> deliveries;
    /** Latest span end on the staggered timeline. */
    int64_t lastEndUs = 0;
    /** Poll instant by which every delivered trace has completed. */
    int64_t pollAtUs = 0;
};

StormTimeline
buildStormTimeline(const ScenarioRun &run)
{
    StormTimeline tl;
    online::OnlineConfig &cfg = tl.cfg;
    cfg.pipeline = run.scenario.pipelineConfig();
    // One detection window comfortably spanning the whole staggered
    // storm, firing on the first anomalous trace.
    cfg.detector.bucketUs = 1'000'000;
    cfg.detector.windowBuckets = 64;
    cfg.detector.minWindowCount = 1;
    cfg.detector.minAnomalous = 1;
    cfg.detector.onsetFraction = 0.01;
    cfg.detector.clearFraction = 0.0;
    cfg.assembler.latenessUs = 10'000;
    cfg.assembler.quietGapUs = 10'000;
    // Campaign scenarios construct many short-lived services; size the
    // rings to the storm (one poll drains everything) instead of the
    // serving default, which provisions for a full poll interval at
    // million-span/s rates.
    cfg.ringCapacitySpans = 4096;
    // Judge each endpoint by the tightest SLO seen at it: every
    // harvested storm trace violates its own flow's SLO (or errors at
    // the root), so all of them stay anomalous under the minimum.
    for (size_t i = 0; i < run.traces.size(); ++i) {
        const trace::Span *root = nullptr;
        for (const trace::Span &s : run.traces[i].spans)
            if (s.parentSpanId.empty()) {
                root = &s;
                break;
            }
        if (root == nullptr)
            continue;
        auto [it, inserted] = cfg.endpoints.try_emplace(
            root->service + "/" + root->name,
            online::EndpointProfile{run.slos[i], -1});
        if (!inserted && run.slos[i] < it->second.sloUs)
            it->second.sloUs = run.slos[i];
    }

    for (size_t i = 0; i < run.traces.size(); ++i) {
        int64_t shift = static_cast<int64_t>(i) * 10'000;
        for (trace::Span span : run.traces[i].spans) {
            span.startUs += shift;
            span.endUs += shift;
            tl.lastEndUs = std::max(tl.lastEndUs, span.endUs);
            tl.deliveries.push_back(
                {span.endUs,
                 online::SpanEvent{run.traces[i].traceId, span}});
        }
    }
    std::sort(tl.deliveries.begin(), tl.deliveries.end(),
              [](const StormDelivery &a, const StormDelivery &b) {
                  if (a.atUs != b.atUs)
                      return a.atUs < b.atUs;
                  if (a.event.traceId != b.event.traceId)
                      return a.event.traceId < b.event.traceId;
                  return a.event.span.spanId < b.event.span.spanId;
              });
    tl.pollAtUs = tl.lastEndUs + cfg.assembler.quietGapUs +
                  cfg.assembler.latenessUs + 1;
    return tl;
}

InvariantResult
checkOnlineDifferential(const ScenarioRun &run, const CheckContext &)
{
    // Route the scenario's storm through the online serving layer as a
    // span stream and require (a) the same incident — snapshot, every
    // verdict, the root-cause ranking — at 1/2/8 ingest threads,
    // (b) that the snapshot reproduces from the trace store via the
    // recorded high-water mark, and (c) that the incident-scoped RCA
    // is bitwise equal to the batch pipeline over that snapshot.
    StormTimeline tl = buildStormTimeline(run);
    const online::OnlineConfig &cfg = tl.cfg;
    const std::vector<StormDelivery> &deliveries = tl.deliveries;
    int64_t last_end = tl.lastEndUs;
    int64_t poll_at = tl.pollAtUs;

    // The differential runs on two timelines: the staggered storm as
    // built, and the same storm shifted wholly before the epoch (every
    // detector bucket index < -1) — the regression surface of the old
    // Bucket empty-sentinel collision, which silently dropped all
    // pre-epoch observations and opened no incident. On top of that,
    // every shed policy gets its own leg with an active per-poll
    // budget, proving shed decisions are deterministic given the
    // event stream.
    // Fingerprint references are keyed per leg and shared across
    // runTimeline calls, so a re-run of the same timeline (the
    // SIMD-off leg below) is pinned byte-for-byte to the first run's
    // incident rather than merely to itself.
    std::map<std::string, std::string> reference_by_key;
    // Shed legs of a heavily-shrunk scenario may deterministically
    // shed every anomalous trace; the invariant then pins the absence
    // of an incident across thread counts instead of failing.
    auto runTimeline = [&](int64_t shift, const std::string &label,
                           const online::OnlineConfig &use_cfg,
                           const std::string &ref_key,
                           bool allow_no_incident =
                               false) -> InvariantResult {
    std::string &reference = reference_by_key[ref_key];
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
        online::OnlineService service(run.adapter->model(),
                                      run.adapter->encoder(),
                                      run.adapter->profile(), use_cfg);
        auto deliver = [&](const StormDelivery &d) {
            online::SpanEvent ev = d.event;
            ev.span.startUs += shift;
            ev.span.endUs += shift;
            service.ingest(ev);
        };
        if (threads == 1) {
            for (const StormDelivery &d : deliveries)
                deliver(d);
        } else {
            std::vector<std::thread> workers;
            for (size_t t = 0; t < threads; ++t)
                workers.emplace_back([&, t] {
                    for (size_t i = t; i < deliveries.size();
                         i += threads)
                        deliver(deliveries[i]);
                });
            for (std::thread &w : workers)
                w.join();
        }
        service.poll(poll_at + shift);
        if (service.incidents().empty() && !allow_no_incident)
            return fail(label + "online layer opened no incident over "
                        "the storm at ingestThreads=" +
                        std::to_string(threads));
        const online::Incident *incident =
            service.incidents().empty() ? nullptr
                                        : &service.incidents()[0];
        std::string fp = incident != nullptr
                             ? incidentFingerprint(*incident)
                             : std::string("no-incident\n");
        // Drop accounting rides the fingerprint: with poll-side
        // shedding the whole drop taxonomy — not just the incident —
        // must be identical at any producer thread count.
        {
            online::OnlineStats stats = service.stats();
            std::ostringstream acct;
            acct << "acct " << stats.spansIngested << "/"
                 << stats.assembly.spansAccepted << "/"
                 << stats.assembly.spansRejected << " drops "
                 << stats.assembly.droppedOrphan << ","
                 << stats.assembly.droppedDuplicate << ","
                 << stats.assembly.droppedLate << ","
                 << stats.assembly.droppedMalformed << ","
                 << stats.assembly.droppedBackpressure << ","
                 << stats.assembly.droppedRingFull << ","
                 << stats.assembly.droppedShed << "\n";
            fp += acct.str();
        }
        if (reference.empty())
            reference = fp;
        else if (fp != reference)
            return fail(label + "incident diverges at ingestThreads=" +
                        std::to_string(threads));
        if (threads != 1 || incident == nullptr)
            continue;

        // Batch side of the differential, over the snapshot
        // reconstructed independently from the store.
        storage::Query q;
        q.minStartUs = incident->windowStartUs;
        q.maxStartUs = incident->windowEndUs;
        q.onlyAnomalous = true;
        std::vector<const storage::Record *> window =
            service.store().query(q);
        std::vector<const storage::Record *> rows;
        for (const storage::Record *r : window)
            if (r->id <= incident->snapshotMaxRecordId)
                rows.push_back(r);
        std::sort(rows.begin(), rows.end(),
                  [](const storage::Record *a,
                     const storage::Record *b) {
                      if (a->startUs() != b->startUs())
                          return a->startUs() < b->startUs();
                      return a->traceId() < b->traceId();
                  });
        if (rows.size() != incident->anomalousTraces.size())
            return fail(
                label + "snapshot not reproducible from the store: " +
                std::to_string(rows.size()) + " records vs " +
                std::to_string(incident->anomalousTraces.size()) +
                " snapshot traces");
        std::vector<trace::Trace> batch;
        std::vector<int64_t> batch_slos;
        for (size_t i = 0; i < rows.size(); ++i) {
            if (rows[i]->traceId() !=
                incident->anomalousTraces[i].traceId)
                return fail(label + "snapshot order diverges from the "
                            "store at position " + std::to_string(i));
            batch.push_back(rows[i]->trace());
            batch_slos.push_back(rows[i]->sloUs);
        }
        std::string diff = diffResults(
            incident->rca,
            run.analyzeBatch(use_cfg.pipeline, batch, batch_slos));
        if (!diff.empty())
            return fail(label + "online incident RCA diverges from the "
                        "batch pipeline over the same snapshot: " +
                        diff);
        if (core::aggregateRootCauses(incident->rca) !=
            incident->rankedRootCauses)
            return fail(label + "incident root-cause ranking is not "
                        "the aggregation of its per-trace verdicts");
    }
    return pass();
    };

    InvariantResult on_epoch = runTimeline(0, "", cfg, "epoch");
    if (!on_epoch.pass)
        return on_epoch;
    // SIMD-off leg: replay the epoch timeline with the vectorized
    // kernels force-dispatched to their scalar mirrors. The shared
    // fingerprint reference pins columnar + SIMD ≡ legacy scalar end
    // to end — ingest, detection, snapshot, RCA, and ranking.
    {
        simd::ScopedForceScalar scalar_only;
        InvariantResult simd_off =
            runTimeline(0, "simd-off: ", cfg, "epoch");
        if (!simd_off.pass)
            return simd_off;
    }
    // Shed-policy legs: rerun the epoch timeline with a per-poll
    // budget tight enough that every policy actually sheds (60% of
    // the storm's spans survive). Different policies legitimately
    // keep different survivors — each leg pins only its own
    // fingerprint across 1/2/8 producer threads, plus the usual
    // store-snapshot/batch differential over whatever survived.
    for (online::ShedPolicy policy : {online::ShedPolicy::DropNewest,
                                      online::ShedPolicy::DropOldest,
                                      online::ShedPolicy::Sample}) {
        online::OnlineConfig shed_cfg = cfg;
        shed_cfg.shedPolicy = policy;
        shed_cfg.shedBudgetSpans = std::max<size_t>(
            1, deliveries.size() * 3 / (5 * shed_cfg.ingestShards));
        std::string name = online::toString(policy);
        InvariantResult shed_leg = runTimeline(
            0, "shed-policy " + name + ": ", shed_cfg,
            "shed:" + name, /*allow_no_incident=*/true);
        if (!shed_leg.pass)
            return shed_leg;
    }
    // Shift the whole storm (and the poll watermark) so every span end
    // lands below -2 detector buckets.
    return runTimeline(-(last_end + 3 * cfg.detector.bucketUs),
                       "negative-epoch timeline: ", cfg, "negative");
}

/** mkdtemp under $TMPDIR (default /tmp), removed on destruction. */
struct TempDir
{
    std::string path;

    explicit TempDir(const char *tag)
    {
        const char *base = std::getenv("TMPDIR");
        std::string tmpl =
            (base != nullptr && *base != '\0') ? base : "/tmp";
        if (tmpl.back() != '/')
            tmpl += '/';
        tmpl += std::string("sleuth-") + tag + "-XXXXXX";
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        if (::mkdtemp(buf.data()) != nullptr)
            path.assign(buf.data());
    }

    ~TempDir()
    {
        if (!path.empty()) {
            std::error_code ec;
            std::filesystem::remove_all(path, ec);
        }
    }

    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;
};

/** Deliver a slice of the storm with `threads` striding producers. */
void
deliverStorm(online::OnlineService *service,
             const std::vector<StormDelivery> &deliveries,
             size_t threads)
{
    if (threads <= 1) {
        for (const StormDelivery &d : deliveries)
            service->ingest(d.event);
        return;
    }
    std::vector<std::thread> workers;
    for (size_t t = 0; t < threads; ++t)
        workers.emplace_back([&, t] {
            for (size_t i = t; i < deliveries.size(); i += threads)
                service->ingest(deliveries[i].event);
        });
    for (std::thread &w : workers)
        w.join();
}

InvariantResult
checkCrashRecovery(const ScenarioRun &run, const CheckContext &ctx)
{
    // Kill the durable serving layer mid-storm and restart it from
    // disk (DESIGN.md §3.15): at 1/2/8 ingest threads, the recovered
    // service — replayed snapshot + committed WAL polls, then fed the
    // rest of the storm — must fingerprint bitwise equal to an
    // uninterrupted (non-durable) run of the same delivery/poll
    // schedule. The storm is split by whole traces, and the crash
    // lands on a quiescent committed poll: everything the service
    // acknowledged at that poll is on disk, while the volatile ingest
    // front it would have lost in a real crash is exactly the part
    // the upstream redelivers (the second half of the schedule).
    StormTimeline tl = buildStormTimeline(run);
    online::OnlineConfig cfg = tl.cfg;
    // Tight retention so the committed history contains real
    // evictions: replay must honor them to land on the same state
    // (and the skip-eviction-replay mutation has decisions to skip).
    cfg.retention.maxRecords =
        std::max<size_t>(1, run.traces.size() / 4);

    // First half = whole traces only — a trace straddling the crash
    // would leave assembler state the crash legitimately forgets.
    std::set<std::string> first_ids;
    for (size_t i = 0; i < run.traces.size() / 2; ++i)
        first_ids.insert(run.traces[i].traceId);
    std::vector<StormDelivery> first, second;
    int64_t first_last_end = 0;
    for (const StormDelivery &d : tl.deliveries) {
        if (first_ids.count(d.event.traceId) != 0) {
            first.push_back(d);
            first_last_end = std::max(first_last_end, d.atUs);
        } else {
            second.push_back(d);
        }
    }
    int64_t mid_poll = first_last_end + cfg.assembler.quietGapUs +
                       cfg.assembler.latenessUs + 1;
    int64_t final_poll = std::max(tl.pollAtUs, mid_poll + 1);
    int64_t drain_at = final_poll + 1;

    online::RecoverOptions opts;
    opts.skipEvictionReplay = ctx.mutation == "skip-eviction-replay";

    uint64_t reference = 0;
    bool have_reference = false;
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
        std::string at =
            " at ingestThreads=" + std::to_string(threads);

        // Uninterrupted control run, no durability attached: also
        // pins that attaching the log never changes serving state.
        uint64_t uninterrupted = 0;
        {
            online::OnlineService service(run.adapter->model(),
                                          run.adapter->encoder(),
                                          run.adapter->profile(), cfg);
            deliverStorm(&service, first, threads);
            service.poll(mid_poll);
            deliverStorm(&service, second, threads);
            service.poll(final_poll);
            service.drainAll(drain_at);
            uninterrupted = service.servingFingerprint();
        }

        TempDir dir("crash");
        if (dir.path.empty())
            return fail("cannot create a temporary data directory");
        durable::DurableConfig dcfg;
        dcfg.dir = dir.path;
        dcfg.fsyncPolicy = durable::FsyncPolicy::Off;
        // One leg recovers through a snapshot + WAL tail, the others
        // through pure WAL replay.
        dcfg.snapshotEveryPolls = threads == 2 ? 1 : 0;

        // Durable run up to the crash point.
        {
            online::OnlineService service(run.adapter->model(),
                                          run.adapter->encoder(),
                                          run.adapter->profile(), cfg);
            online::RecoveryInfo boot = service.enableDurability(dcfg);
            if (!boot.ok)
                return fail("fresh durable service refused to open " +
                            dir.path + ": " + boot.error);
            deliverStorm(&service, first, threads);
            service.poll(mid_poll);
            if (service.backlogSpans() != 0)
                return fail("crash point is not quiescent (" +
                            std::to_string(service.backlogSpans()) +
                            " backlog spans)" + at);
            // Crash: the service dies here. Committed polls are on
            // disk; rings and assemblers are simply gone.
        }

        // Restart from disk and finish the storm.
        uint64_t recovered_fp = 0;
        {
            online::OnlineService service(run.adapter->model(),
                                          run.adapter->encoder(),
                                          run.adapter->profile(), cfg);
            online::RecoveryInfo rec =
                service.enableDurability(dcfg, opts);
            if (!rec.ok)
                return fail("recovery failed" + at + ": " + rec.error);
            if (dcfg.snapshotEveryPolls != 0 && !rec.usedSnapshot)
                return fail("snapshot-every=1 recovery did not seed "
                            "from a snapshot" + at);
            deliverStorm(&service, second, threads);
            service.poll(final_poll);
            service.drainAll(drain_at);
            recovered_fp = service.servingFingerprint();
        }

        // Replay the finished log once more: the drainAll commit
        // group seals several detector advances under one marker, and
        // replaying them must land on the live service's exact state.
        online::RecoveryInfo again;
        online::DurableServingState state =
            online::recoverState(dcfg, opts, &again);
        if (!again.ok)
            return fail("post-drain replay failed" + at + ": " +
                        again.error);
        uint64_t replay_fp = online::servingStateFingerprint(
            state.store, state.detector, state.incidents,
            state.watermarkUs, state.tracesStored, state.lastRecordId);
        if (replay_fp != recovered_fp)
            return fail("post-drain replay diverges from the live "
                        "recovered service" + at);

        if (!have_reference) {
            reference = uninterrupted;
            have_reference = true;
        } else if (uninterrupted != reference) {
            return fail("uninterrupted run diverges" + at);
        }
        if (recovered_fp != reference)
            return fail("recovered run diverges from the "
                        "uninterrupted run" + at);
    }
    return pass();
}

InvariantResult
checkWalTornTail(const ScenarioRun &run, const CheckContext &)
{
    // Crash artifacts never pick a polite boundary: truncate the WAL
    // at every frame boundary, inside frames, and at random offsets,
    // and flip single bits — recovery must never crash and must
    // always rebuild exactly the committed-poll prefix that survived
    // (ref[m] below), discarding any unsealed tail.
    StormTimeline tl = buildStormTimeline(run);
    online::OnlineConfig cfg = tl.cfg;
    cfg.retention.maxRecords =
        std::max<size_t>(1, run.traces.size() / 4);

    TempDir dir("torn");
    if (dir.path.empty())
        return fail("cannot create a temporary data directory");
    durable::DurableConfig dcfg;
    dcfg.dir = dir.path;
    dcfg.fsyncPolicy = durable::FsyncPolicy::Off;
    dcfg.snapshotEveryPolls = 0; // pure WAL: one segment, no rotation

    // Write a multi-poll log: the storm in whole-trace chunks, one
    // poll per chunk, recording the live fingerprint after each
    // committed poll (plus ref[0], the empty service).
    const size_t kPolls = 4;
    std::vector<uint64_t> reference;
    {
        online::OnlineService service(run.adapter->model(),
                                      run.adapter->encoder(),
                                      run.adapter->profile(), cfg);
        online::RecoveryInfo boot = service.enableDurability(dcfg);
        if (!boot.ok)
            return fail("fresh durable service refused to open " +
                        dir.path + ": " + boot.error);
        reference.push_back(service.servingFingerprint());
        int64_t poll_at = std::numeric_limits<int64_t>::min();
        size_t begin = 0;
        for (size_t p = 0; p < kPolls; ++p) {
            size_t end = run.traces.size() * (p + 1) / kPolls;
            std::set<std::string> chunk_ids;
            for (size_t i = begin; i < end; ++i)
                chunk_ids.insert(run.traces[i].traceId);
            int64_t chunk_last_end = 0;
            for (const StormDelivery &d : tl.deliveries)
                if (chunk_ids.count(d.event.traceId) != 0) {
                    service.ingest(d.event);
                    chunk_last_end =
                        std::max(chunk_last_end, d.atUs);
                }
            poll_at = std::max(poll_at + 1,
                               chunk_last_end +
                                   cfg.assembler.quietGapUs +
                                   cfg.assembler.latenessUs + 1);
            service.poll(poll_at);
            reference.push_back(service.servingFingerprint());
            begin = end;
        }
    }

    std::vector<std::pair<uint64_t, std::string>> segments =
        durable::listSegments(dir.path);
    if (segments.size() != 1)
        return fail("expected one WAL segment, found " +
                    std::to_string(segments.size()));
    durable::SegmentScan scan = durable::scanSegment(segments[0].second);
    if (scan.torn)
        return fail("pristine log scans as torn: " + scan.tornReason);
    if (scan.frames.empty())
        return fail("pristine log holds no frames");
    std::string pristine;
    {
        std::ifstream in(segments[0].second, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        pristine = buf.str();
    }
    if (pristine.size() != scan.validBytes)
        return fail("segment bytes do not match the scan");

    // Committed polls fully contained in the first `bytes` of the
    // segment (a truncation there recovers exactly ref of that).
    auto pollsWithin = [&](uint64_t bytes) {
        size_t polls = 0, frames = 0;
        for (size_t i = 0; i < scan.frames.size(); ++i) {
            uint64_t end = i + 1 < scan.frames.size()
                               ? scan.frames[i + 1].offset
                               : scan.validBytes;
            if (end > bytes)
                break;
            ++frames;
            if (scan.frames[i].kind ==
                durable::RecordKind::PollMarker)
                ++polls;
        }
        return std::make_pair(polls, frames);
    };

    TempDir scratch("torn-case");
    if (scratch.path.empty())
        return fail("cannot create a scratch data directory");
    std::string scratch_seg =
        scratch.path + "/" + durable::segmentFileName(0);
    durable::DurableConfig scfg;
    scfg.dir = scratch.path;
    scfg.fsyncPolicy = durable::FsyncPolicy::Off;

    // `validUpTo` is the length of the byte prefix known to be intact
    // (everything at or past it may be torn or corrupt).
    auto checkCase = [&](const std::string &bytes, uint64_t validUpTo,
                         const std::string &label)
        -> InvariantResult {
        {
            std::ofstream out(scratch_seg,
                              std::ios::binary | std::ios::trunc);
            out.write(bytes.data(),
                      static_cast<std::streamsize>(bytes.size()));
        }
        online::RecoveryInfo info;
        online::DurableServingState state =
            online::recoverState(scfg, {}, &info);
        if (!info.ok)
            return fail(label + ": recovery reported an internal "
                        "inconsistency: " + info.error);
        auto [polls, frames] = pollsWithin(
            std::min<uint64_t>(validUpTo, scan.validBytes));
        if (frames == 0) {
            // Not even the Epoch survived: recovery must come back
            // empty (the detector config is unknowable from bytes).
            if (state.tracesStored != 0 || state.store.size() != 0 ||
                !state.incidents.empty())
                return fail(label + ": recovery from an empty prefix "
                            "is not the empty state");
            return pass();
        }
        uint64_t fp = online::servingStateFingerprint(
            state.store, state.detector, state.incidents,
            state.watermarkUs, state.tracesStored, state.lastRecordId);
        if (fp != reference[polls])
            return fail(label + ": recovery does not equal the live "
                        "state after " + std::to_string(polls) +
                        " committed polls");
        return pass();
    };

    // Every frame boundary, plus offsets inside every frame header
    // and body, as truncation points.
    for (size_t i = 0; i <= scan.frames.size(); ++i) {
        uint64_t boundary = i < scan.frames.size()
                                ? scan.frames[i].offset
                                : scan.validBytes;
        InvariantResult r = checkCase(
            pristine.substr(0, boundary), boundary,
            "truncate at frame boundary " + std::to_string(boundary));
        if (!r.pass)
            return r;
        if (i < scan.frames.size()) {
            uint64_t end = i + 1 < scan.frames.size()
                               ? scan.frames[i + 1].offset
                               : scan.validBytes;
            for (uint64_t cut :
                 {boundary + 1, boundary + 5, end - 1}) {
                if (cut <= boundary || cut >= end)
                    continue;
                r = checkCase(pristine.substr(0, cut), cut,
                              "truncate mid-frame at " +
                                  std::to_string(cut));
                if (!r.pass)
                    return r;
            }
        }
    }

    // The byte offset where the frame containing `at` starts: a flip
    // there tears the log at that frame, keeping everything before.
    auto frameStartBefore = [&](uint64_t at) {
        uint64_t start = 0;
        for (const durable::WalFrame &f : scan.frames) {
            if (f.offset > at)
                break;
            start = f.offset;
        }
        return start;
    };

    // Random truncations and single-bit flips (seed-pinned).
    util::Rng rng(run.scenario.seed ^ 0x70524eULL);
    for (int k = 0; k < 8; ++k) {
        uint64_t cut = static_cast<uint64_t>(rng.uniformInt(
            0, static_cast<int64_t>(pristine.size())));
        InvariantResult r = checkCase(
            pristine.substr(0, cut), cut,
            "truncate at random offset " + std::to_string(cut));
        if (!r.pass)
            return r;
    }
    for (int k = 0; k < 8; ++k) {
        uint64_t at = static_cast<uint64_t>(rng.uniformInt(
            0, static_cast<int64_t>(pristine.size()) - 1));
        std::string flipped = pristine;
        flipped[at] = static_cast<char>(
            static_cast<uint8_t>(flipped[at]) ^
            (1u << rng.uniformInt(0, 7)));
        // The flipped frame fails its CRC (or its length turns
        // implausible): the valid prefix ends where it starts.
        InvariantResult r = checkCase(
            flipped, frameStartBefore(at),
            "bit flip at offset " + std::to_string(at));
        if (!r.pass)
            return r;
    }
    return pass();
}

InvariantResult
checkDropAccounting(const ScenarioRun &run, const CheckContext &)
{
    // Conservation ledger over the ingest path: at a quiescent barrier
    // (producers joined, poll done) every span ever offered to
    // ingest() is accounted for exactly once —
    //
    //   sent == accepted + Σ(drops by reason) + backlog
    //
    // — and the whole ledger is bitwise identical at 1/2/8 producer
    // threads for every shed policy, since poll-side shedding decides
    // over the canonically re-sorted drained batch. A final leg
    // shrinks the physical ring so the enqueue-side ring-full path
    // fires: there the victim set is legitimately nondeterministic
    // (whichever producer loses the race is dropped), but the ledger
    // must still balance and the ring-full count itself stays
    // deterministic — between barriered polls exactly `capacity`
    // pushes per shard can succeed.
    online::OnlineConfig base;
    base.pipeline = run.scenario.pipelineConfig();
    base.detector.bucketUs = 1'000'000;
    base.detector.windowBuckets = 64;
    // Accounting only: detection and RCA are pinned by
    // online-differential, so keep the detector from opening incidents
    // over whatever survives shedding.
    base.detector.minAnomalous = 1'000'000;
    base.assembler.latenessUs = 10'000;
    base.assembler.quietGapUs = 10'000;
    // Short-lived services: ring sized to the storm, not the serving
    // default (the ring-full leg below overrides this downward).
    base.ringCapacitySpans = 4096;

    std::vector<online::SpanEvent> events;
    int64_t last_end = 0;
    for (size_t i = 0; i < run.traces.size(); ++i) {
        int64_t shift = static_cast<int64_t>(i) * 10'000;
        for (trace::Span span : run.traces[i].spans) {
            span.startUs += shift;
            span.endUs += shift;
            last_end = std::max(last_end, span.endUs);
            events.push_back({run.traces[i].traceId, span});
            // Every third span is delivered twice so the duplicate
            // reason participates in the ledger (and, when the budget
            // is 1, guarantees some shard holds two spans and sheds).
            if (events.size() % 3 == 0)
                events.push_back(events.back());
        }
    }
    if (events.size() < 3)
        return pass();
    int64_t poll_at = last_end + base.assembler.quietGapUs +
                      base.assembler.latenessUs + 1;

    struct Leg
    {
        std::string name;
        online::OnlineConfig cfg;
        /** Poll-side shed: the whole ledger is thread-invariant. */
        bool deterministic = true;
    };
    std::vector<Leg> legs;
    for (online::ShedPolicy policy : {online::ShedPolicy::DropNewest,
                                      online::ShedPolicy::DropOldest,
                                      online::ShedPolicy::Sample}) {
        Leg leg;
        leg.cfg = base;
        leg.cfg.shedPolicy = policy;
        leg.cfg.shedBudgetSpans = std::max<size_t>(
            1, events.size() / (3 * leg.cfg.ingestShards));
        leg.name = std::string("shed-policy ") +
                   std::string(online::toString(policy));
        legs.push_back(std::move(leg));
    }
    {
        Leg leg;
        leg.cfg = base;
        leg.cfg.ringCapacitySpans = 2;
        leg.name = "ring-full";
        leg.deterministic = false;
        legs.push_back(std::move(leg));
    }

    for (const Leg &leg : legs) {
        std::string reference;
        size_t ring_full_reference = 0;
        for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
            online::OnlineService service(run.adapter->model(),
                                          run.adapter->encoder(),
                                          run.adapter->profile(),
                                          leg.cfg);
            if (threads == 1) {
                for (const online::SpanEvent &ev : events)
                    service.ingest(ev);
            } else {
                std::vector<std::thread> workers;
                for (size_t t = 0; t < threads; ++t)
                    workers.emplace_back([&, t] {
                        for (size_t i = t; i < events.size();
                             i += threads)
                            service.ingest(events[i]);
                    });
                for (std::thread &w : workers)
                    w.join();
            }
            service.poll(poll_at);
            online::OnlineStats stats = service.stats();
            size_t backlog = service.backlogSpans();
            std::string where = leg.name + " at ingestThreads=" +
                                std::to_string(threads);
            if (stats.spansIngested != events.size())
                return fail(where + ": offered " +
                            std::to_string(events.size()) +
                            " spans but spansIngested=" +
                            std::to_string(stats.spansIngested));
            size_t drops = stats.assembly.droppedOrphan +
                           stats.assembly.droppedDuplicate +
                           stats.assembly.droppedLate +
                           stats.assembly.droppedMalformed +
                           stats.assembly.droppedBackpressure +
                           stats.assembly.droppedRingFull +
                           stats.assembly.droppedShed;
            if (drops != stats.assembly.spansRejected)
                return fail(where + ": drop taxonomy sums to " +
                            std::to_string(drops) +
                            " but spansRejected=" +
                            std::to_string(stats.assembly.spansRejected));
            if (stats.assembly.spansAccepted + drops + backlog !=
                stats.spansIngested)
                return fail(
                    where + ": ledger does not balance: accepted " +
                    std::to_string(stats.assembly.spansAccepted) +
                    " + drops " + std::to_string(drops) +
                    " + backlog " + std::to_string(backlog) +
                    " != sent " + std::to_string(stats.spansIngested));
            if (leg.deterministic) {
                if (stats.assembly.droppedShed == 0)
                    return fail(where + ": shed budget never fired, "
                                "the leg proves nothing");
                std::ostringstream acct;
                acct << stats.assembly.spansAccepted << "/"
                     << stats.assembly.spansRejected << "/" << backlog
                     << " drops " << stats.assembly.droppedOrphan
                     << "," << stats.assembly.droppedDuplicate << ","
                     << stats.assembly.droppedLate << ","
                     << stats.assembly.droppedMalformed << ","
                     << stats.assembly.droppedBackpressure << ","
                     << stats.assembly.droppedRingFull << ","
                     << stats.assembly.droppedShed;
                if (reference.empty())
                    reference = acct.str();
                else if (acct.str() != reference)
                    return fail(where + ": accounting diverges across "
                                "thread counts: " + acct.str() +
                                " vs " + reference);
            } else {
                if (stats.assembly.droppedRingFull == 0)
                    return fail(where + ": tiny ring never "
                                "overflowed, the leg proves nothing");
                if (ring_full_reference == 0)
                    ring_full_reference =
                        stats.assembly.droppedRingFull;
                else if (stats.assembly.droppedRingFull !=
                         ring_full_reference)
                    return fail(where + ": ring-full count is not "
                                "deterministic across thread counts");
            }
        }
    }
    return pass();
}

InvariantResult
checkOnlineSoak(const ScenarioRun &run, const CheckContext &)
{
    // Long-haul soak: tile the storm across an hour-plus of simulated
    // time against a retention budget far below the total volume and
    // require steady state — the watermark advances with every poll,
    // the backlog fully drains at each quiet horizon (the ring never
    // wedges), the store never exceeds its span budget (eviction, not
    // growth, is the steady-state mechanism), and the accounting
    // ledger balances at the end. This is the campaign-sized mirror
    // of `online_suite --soak`, which additionally samples RSS; here
    // the bounded-memory proxies are exact span counts.
    online::OnlineConfig cfg;
    cfg.pipeline = run.scenario.pipelineConfig();
    cfg.detector.bucketUs = 1'000'000;
    cfg.detector.windowBuckets = 64;
    // Incidents pin snapshots alive by design and are exercised by
    // online-differential; the soak measures resource behaviour.
    cfg.detector.minAnomalous = 1'000'000;
    cfg.assembler.latenessUs = 10'000;
    cfg.assembler.quietGapUs = 10'000;
    cfg.ringCapacitySpans = 4096;

    std::vector<online::SpanEvent> events;
    int64_t last_end = 0;
    size_t max_trace_spans = 0;
    for (size_t i = 0; i < run.traces.size(); ++i) {
        int64_t shift = static_cast<int64_t>(i) * 10'000;
        max_trace_spans =
            std::max(max_trace_spans, run.traces[i].spans.size());
        for (trace::Span span : run.traces[i].spans) {
            span.startUs += shift;
            span.endUs += shift;
            last_end = std::max(last_end, span.endUs);
            events.push_back({run.traces[i].traceId, span});
        }
    }
    if (events.empty())
        return pass();
    // Keep two repetitions' worth of spans (and never less than a few
    // whole traces: the store always protects the newest record).
    cfg.retention.maxSpans =
        std::max(events.size() * 2, max_trace_spans * 4);

    online::OnlineService service(run.adapter->model(),
                                  run.adapter->encoder(),
                                  run.adapter->profile(), cfg);
    const int64_t spacing = last_end + 60'000'000;
    const size_t reps = 60; // >= 60 min of simulated time
    int64_t prev_watermark = INT64_MIN;
    size_t delivered = 0;
    for (size_t rep = 0; rep < reps; ++rep) {
        int64_t shift = static_cast<int64_t>(rep) * spacing;
        for (online::SpanEvent ev : events) {
            ev.span.startUs += shift;
            ev.span.endUs += shift;
            service.ingest(std::move(ev));
            ++delivered;
        }
        int64_t poll_at = shift + last_end +
                          cfg.assembler.quietGapUs +
                          cfg.assembler.latenessUs + 1;
        service.poll(poll_at);
        std::string when = "rep " + std::to_string(rep) + "/" +
                           std::to_string(reps);
        if (service.watermarkUs() <= prev_watermark)
            return fail("soak: watermark stalled at " + when);
        prev_watermark = service.watermarkUs();
        size_t backlog = service.backlogSpans();
        if (backlog != 0)
            return fail("soak: backlog of " + std::to_string(backlog) +
                        " spans survived the quiet horizon at " + when);
        if (service.store().totalSpans() > cfg.retention.maxSpans)
            return fail("soak: store holds " +
                        std::to_string(service.store().totalSpans()) +
                        " spans over the " +
                        std::to_string(cfg.retention.maxSpans) +
                        "-span budget at " + when);
    }
    if (service.store().evictions().records == 0)
        return fail("soak: retention never evicted — the budget was "
                    "not exercised");
    online::OnlineStats stats = service.stats();
    if (stats.spansIngested != delivered)
        return fail("soak: delivered " + std::to_string(delivered) +
                    " spans but spansIngested=" +
                    std::to_string(stats.spansIngested));
    if (stats.assembly.spansAccepted + stats.assembly.spansRejected !=
        stats.spansIngested)
        return fail("soak: final ledger does not balance: accepted " +
                    std::to_string(stats.assembly.spansAccepted) +
                    " + rejected " +
                    std::to_string(stats.assembly.spansRejected) +
                    " != sent " + std::to_string(stats.spansIngested));
    return pass();
}

InvariantResult
checkIncrementalRepoll(const ScenarioRun &run, const CheckContext &)
{
    // The cross-poll incremental cache (DESIGN.md §3.14): every cached
    // value is the output of a pure function of fingerprinted inputs,
    // so a warm analysis must be bitwise identical to a full
    // recompute — over the identical batch (served from memory), over
    // a growing and a slid window sharing most traces, and after a
    // content mutation that must invalidate and fall back.
    core::PipelineConfig cfg = run.scenario.pipelineConfig();
    core::SleuthPipeline pipeline(run.adapter->model(),
                                  run.adapter->encoder(),
                                  run.adapter->profile(), cfg);
    core::PipelineResult fresh = run.analyze(cfg);

    core::PipelineCache cache;
    core::PipelineResult cold =
        pipeline.analyze(run.traces, run.slos, &cache);
    std::string diff = diffResults(fresh, cold);
    if (!diff.empty())
        return fail("cold-cache run diverges from the cache-free "
                    "run: " + diff);

    core::PipelineCache::Stats cold_stats = cache.stats();
    core::PipelineResult warm =
        pipeline.analyze(run.traces, run.slos, &cache);
    diff = diffResults(fresh, warm);
    if (!diff.empty())
        return fail("warm-cache re-poll diverges from the full "
                    "recompute: " + diff);
    // The identical re-poll is served from memory: no well-formed
    // trace is re-encoded and the model never runs. Malformed traces
    // are never stored; when clustered, each misses its encoding
    // lookup once, and it never reaches a verdict lookup.
    core::PipelineCache::Stats warm_stats = cache.stats();
    const size_t malformed = fresh.skippedTraces;
    size_t reencoded = warm_stats.encodingMisses -
                       cold_stats.encodingMisses;
    size_t rejudged = warm_stats.verdictMisses - cold_stats.verdictMisses;
    if (reencoded != (cfg.clustering ? malformed : 0))
        return fail("identical re-poll re-encoded " +
                    std::to_string(reencoded) + " traces (" +
                    std::to_string(malformed) + " malformed)");
    if (rejudged != 0)
        return fail("identical re-poll missed " +
                    std::to_string(rejudged) + " cached verdicts (" +
                    std::to_string(malformed) + " malformed)");

    // Growing window: an open incident gains late traces between
    // polls, so every well-formed head trace must come back from the
    // encoding cache and the verdicts must still equal a cache-free
    // run of the grown batch.
    if (run.traces.size() >= 4) {
        core::PipelineCache grow_cache;
        const size_t half = run.traces.size() / 2;
        std::vector<trace::Trace> head(run.traces.begin(),
                                       run.traces.begin() +
                                           static_cast<long>(half));
        std::vector<int64_t> head_slos(run.slos.begin(),
                                       run.slos.begin() +
                                           static_cast<long>(half));
        core::PipelineResult head_res =
            pipeline.analyze(head, head_slos, &grow_cache);
        size_t hits_before = grow_cache.stats().encodingHits;
        core::PipelineResult inc =
            pipeline.analyze(run.traces, run.slos, &grow_cache);
        diff = diffResults(fresh, inc);
        if (!diff.empty())
            return fail("growing-window re-poll diverges from the "
                        "full recompute: " + diff);
        size_t head_hits = grow_cache.stats().encodingHits - hits_before;
        size_t head_well_formed = half - head_res.skippedTraces;
        if (cfg.clustering && head_hits < head_well_formed)
            return fail("growing-window re-poll hit " +
                        std::to_string(head_hits) + " of " +
                        std::to_string(head_well_formed) +
                        " cached head encodings");
    }

    // Slid window: a later poll typically sees the same storm minus
    // its oldest trace; the delta must be the only recomputation and
    // the answer must still match a cache-free run of the window.
    if (run.traces.size() >= 2) {
        std::vector<trace::Trace> slid(run.traces.begin() + 1,
                                       run.traces.end());
        std::vector<int64_t> slid_slos(run.slos.begin() + 1,
                                       run.slos.end());
        core::PipelineCache::Stats before = cache.stats();
        core::PipelineResult inc =
            pipeline.analyze(slid, slid_slos, &cache);
        diff = diffResults(run.analyzeBatch(cfg, slid, slid_slos),
                           inc);
        if (!diff.empty())
            return fail("incremental slid-window re-poll diverges "
                        "from the full recompute: " + diff);
        core::PipelineCache::Stats after = cache.stats();
        if (after.encodingHits + after.verdictHits <=
            before.encodingHits + before.verdictHits)
            return fail("slid-window re-poll reused nothing from the "
                        "cache");
    }

    // Mutated trace (new content between polls): the fingerprint
    // changes, the stale entry must be invalidated, and the re-poll
    // must equal a full recompute of the mutated batch.
    std::vector<trace::Trace> mutated = run.traces;
    if (!mutated.empty() && !mutated[0].spans.empty()) {
        mutated[0].spans[0].endUs += 1;
        size_t before_inval = cache.stats().invalidations;
        core::PipelineResult inc =
            pipeline.analyze(mutated, run.slos, &cache);
        diff = diffResults(run.analyzeBatch(cfg, mutated, run.slos),
                           inc);
        if (!diff.empty())
            return fail("re-poll after a trace mutation diverges from "
                        "the full recompute: " + diff);
        if (cache.stats().invalidations <= before_inval)
            return fail("mutated trace did not invalidate its cache "
                        "entry");
    }
    return pass();
}

// ---------------------------------------------------------------------
// synth-clone-fidelity: profile the scenario's application from its
// own healthy traces, reconstruct it via synth::inferAppModel, and
// require the clone to reproduce the source's storm onset and RCA
// verdict under the same network-delay fault, within declared
// tolerances:
//   - the clone validates, its JSON round trip is bitwise stable, and
//     it invents no service the source does not have;
//   - fault-free SLO-violation fraction <= 0.12 on both legs;
//   - when the source leg storms (violation delta >= 0.10 over its
//     healthy floor), the clone's delta must reach 35% of the
//     source's (and at least 0.05);
//   - the two legs' fault-phase violation fractions differ by <= 0.35;
//   - when the source leg's top-3 aggregated root causes contain the
//     faulted service, the clone leg's top-3 must too.
// A network-delay fault is used because network hops are directly
// inferable from span timestamps; per-call resources are not, so a
// cpu/memory/disk stress would not transfer to the clone by design.

InvariantResult
checkSynthCloneFidelity(const ScenarioRun &run, const CheckContext &)
{
    const Scenario &s = run.scenario;

    // --- Profile: a healthy corpus simulated from the source app. ---
    const size_t kProfile = 300;
    sim::Simulator profiler(run.app, *run.cluster,
                            {.seed = s.seed ^ 0x1f2au});
    std::vector<trace::Trace> profile;
    std::vector<int64_t> profile_slos;
    profile.reserve(kProfile);
    for (size_t i = 0; i < kProfile; ++i) {
        sim::SimResult r = profiler.simulateOne();
        profile_slos.push_back(
            run.app.flows[static_cast<size_t>(r.flowIndex)].sloUs);
        profile.push_back(std::move(r.trace));
    }

    synth::InferOptions opts;
    opts.name = run.app.name + "-clone";
    synth::InferStats stats;
    synth::AppConfig clone =
        synth::inferAppModel(profile, profile_slos, opts, &stats);
    if (stats.tracesUsed == 0)
        return fail("inference consumed none of the " +
                    std::to_string(kProfile) + " profiled traces");

    // --- Structural fidelity. ---
    std::string defect = clone.validationError();
    if (!defect.empty())
        return fail("inferred clone fails validation: " + defect);
    std::string first = toJson(clone).dump(2);
    std::string err;
    util::Json doc = util::Json::parse(first, &err);
    if (!err.empty())
        return fail("clone JSON does not re-parse: " + err);
    synth::AppConfig reloaded;
    if (!synth::tryAppFromJson(doc, &reloaded, &err))
        return fail("clone JSON does not reload: " + err);
    if (toJson(reloaded).dump(2) != first)
        return fail("clone JSON round trip is not bitwise stable");
    std::set<std::string> source_names = run.serviceNames();
    for (const synth::ServiceConfig &svc : clone.services)
        if (source_names.count(svc.name) == 0)
            return fail("clone invented service '" + svc.name + "'");

    // --- Fault target: the service whose network legs touch the
    // largest fraction of profiled traces (client side or non-root
    // server side; ties break lexicographically). ---
    std::map<std::string, size_t> touched;
    for (const trace::Trace &t : profile) {
        std::set<std::string> here;
        for (const trace::Span &sp : t.spans) {
            bool caller = sp.kind == trace::SpanKind::Client ||
                          sp.kind == trace::SpanKind::Producer;
            if (caller || !sp.parentSpanId.empty())
                here.insert(sp.service);
        }
        for (const std::string &name : here)
            ++touched[name];
    }
    std::string target;
    size_t target_count = 0;
    for (const auto &[name, count] : touched) {
        if (count > target_count) {
            target = name;
            target_count = count;
        }
    }
    if (target.empty())
        return fail("no faultable service observed in the profile");
    double affected =
        static_cast<double>(target_count) / profile.size();

    // All replicas of the target get the delay, per leg, using that
    // leg's own replica count — the svc-ctr-N naming is stable across
    // ClusterModel builds, so the plan transfers by construction.
    auto planFor = [&](const synth::AppConfig &app) {
        chaos::FaultPlan plan;
        for (const synth::ServiceConfig &svc : app.services) {
            if (svc.name != target)
                continue;
            for (int r = 0; r < svc.replicas; ++r) {
                chaos::FaultSpec f;
                f.type = chaos::FaultType::NetworkDelay;
                f.scope = chaos::FaultScope::Container;
                f.target = svc.name + "-ctr-" + std::to_string(r);
                f.latencyMultiplier = 48.0;
                plan.faults.push_back(std::move(f));
            }
        }
        return plan;
    };

    sim::ClusterModel clone_cluster(clone, s.clusterNodes,
                                    s.seed ^ 0xc1u);
    sim::Simulator::calibrateSlos(clone, clone_cluster, 120, 99.0,
                                  s.seed ^ 0xca1u);

    // --- Measure one leg: healthy and fault-phase SLO-violation
    // fractions plus a small anomalous sample for the RCA check. ---
    struct Leg
    {
        double healthy = 0.0;
        double faulty = 0.0;
        std::vector<trace::Trace> anomalous;
        std::vector<int64_t> anomalousSlos;
    };
    const size_t kLeg = 120;
    auto measure = [&](const synth::AppConfig &app,
                       const sim::ClusterModel &cluster) {
        Leg leg;
        sim::Simulator calm(app, cluster, {.seed = s.seed ^ 0x7ea1u});
        size_t bad = 0;
        for (size_t i = 0; i < kLeg; ++i) {
            sim::SimResult r = calm.simulateOne();
            int64_t slo =
                app.flows[static_cast<size_t>(r.flowIndex)].sloUs;
            if (r.violatesSlo(slo))
                ++bad;
        }
        leg.healthy = static_cast<double>(bad) / kLeg;
        sim::Simulator storm(app, cluster, {.seed = s.seed ^ 0x7ea2u},
                             planFor(app));
        bad = 0;
        for (size_t i = 0; i < kLeg; ++i) {
            sim::SimResult r = storm.simulateOne();
            int64_t slo =
                app.flows[static_cast<size_t>(r.flowIndex)].sloUs;
            if (!r.violatesSlo(slo))
                continue;
            ++bad;
            if (leg.anomalous.size() < 10) {
                leg.anomalous.push_back(std::move(r.trace));
                leg.anomalousSlos.push_back(slo);
            }
        }
        leg.faulty = static_cast<double>(bad) / kLeg;
        return leg;
    };
    Leg src = measure(run.app, *run.cluster);
    Leg cln = measure(clone, clone_cluster);

    // --- Storm-onset fidelity. ---
    if (src.healthy > 0.12)
        return fail("source healthy leg violates its own SLOs (" +
                    std::to_string(src.healthy) + " > 0.12)");
    if (cln.healthy > 0.12)
        return fail("clone healthy leg violates its calibrated SLOs (" +
                    std::to_string(cln.healthy) + " > 0.12)");
    double src_delta = src.faulty - src.healthy;
    double cln_delta = cln.faulty - cln.healthy;
    if (src_delta >= 0.10 &&
        cln_delta < std::max(0.05, 0.35 * src_delta))
        return fail("source storms on '" + target + "' (delta " +
                    std::to_string(src_delta) +
                    ", affected fraction " + std::to_string(affected) +
                    ") but the clone does not (delta " +
                    std::to_string(cln_delta) + ")");
    if (std::abs(src.faulty - cln.faulty) > 0.35)
        return fail("fault-phase violation fractions diverge: source " +
                    std::to_string(src.faulty) + " vs clone " +
                    std::to_string(cln.faulty) + " (tolerance 0.35)");

    // --- RCA-verdict fidelity: when the source leg's storm pins the
    // faulted service in its top-3, the clone's storm must as well
    // (same adapter: the clone emits the source's vocabulary). ---
    core::PipelineConfig cfg = s.pipelineConfig();
    cfg.clustering = false;
    auto topkHasTarget = [&](const Leg &leg) {
        core::PipelineResult res =
            run.analyzeBatch(cfg, leg.anomalous, leg.anomalousSlos);
        auto ranked = aggregateRootCauses(res);
        for (size_t i = 0; i < ranked.size() && i < 3; ++i)
            if (ranked[i].first == target)
                return true;
        return false;
    };
    if (src.anomalous.size() >= 3 && cln.anomalous.size() >= 3 &&
        topkHasTarget(src) && !topkHasTarget(cln))
        return fail("source RCA pins '" + target +
                    "' in its top-3 root causes but the clone's "
                    "storm does not");
    return pass();
}

} // namespace

const std::vector<Invariant> &
invariantRegistry()
{
    static const std::vector<Invariant> registry = {
        {"determinism-threads",
         "results are bitwise identical at 1/2/8 worker threads",
         checkThreadDeterminism},
        {"permutation-invariance",
         "verdicts and the cluster partition survive batch reordering",
         checkPermutationInvariance},
        {"json-roundtrip",
         "serialize → parse → reanalyze reproduces the exact result",
         checkJsonRoundTrip},
        {"skipped-accounting",
         "injected malformed spans are counted, quarantined, and "
         "excluded from distance accounting",
         checkSkippedAccounting},
        {"accuracy-floor",
         "top-k hit rate vs chaos ground truth clears the tier floor",
         checkAccuracyFloor},
        {"baseline-differential",
         "pipeline accuracy is sane against the max-duration baseline",
         checkBaselineDifferential},
        {"storage-roundtrip",
         "collector ingest → store → reload → bitwise-equal analysis",
         checkStorageRoundTrip},
        {"online-differential",
         "streaming the storm through the online layer reproduces the "
         "batch pipeline at 1/2/8 ingest threads, with and without "
         "SIMD dispatch, under every shed policy",
         checkOnlineDifferential},
        {"drop-accounting",
         "sent == assembled + Σ(drops by reason) + backlog, bitwise "
         "at 1/2/8 producer threads per shed policy, ring-full "
         "included",
         checkDropAccounting},
        {"online-soak",
         "an hour-plus simulated stream holds steady state: watermark "
         "advances, backlog drains, store obeys its retention budget",
         checkOnlineSoak},
        {"incremental-repoll",
         "warm-cache re-polls (identical, slid, and mutated windows) "
         "are bitwise equal to a full recompute",
         checkIncrementalRepoll},
        {"crash-recovery",
         "kill the durable service mid-storm at 1/2/8 ingest threads "
         "and restart from disk: the recovered run is bitwise equal "
         "to the uninterrupted run",
         checkCrashRecovery},
        {"wal-torn-tail",
         "truncate or corrupt the WAL at arbitrary offsets: recovery "
         "always rebuilds exactly the committed-poll prefix, never "
         "crashes",
         checkWalTornTail},
        {"synth-clone-fidelity",
         "an app inferred from the scenario's own healthy traces "
         "validates, round-trips bitwise, and reproduces the source's "
         "storm onset (healthy legs <= 0.12 violations, onset delta "
         ">= 35% of the source's, fault-phase gap <= 0.35) and top-3 "
         "RCA verdict under the same network-delay fault",
         checkSynthCloneFidelity},
    };
    return registry;
}

const Invariant *
tryFindInvariant(const std::string &name)
{
    for (const Invariant &inv : invariantRegistry())
        if (inv.name == name)
            return &inv;
    return nullptr;
}

const Invariant &
findInvariant(const std::string &name)
{
    const Invariant *inv = tryFindInvariant(name);
    if (inv != nullptr)
        return *inv;
    std::string known;
    for (const Invariant &i : invariantRegistry()) {
        if (!known.empty())
            known += ", ";
        known += i.name;
    }
    util::fatal("unknown invariant '", name, "' (known: ", known, ")");
}

const std::vector<std::string> &
knownMutations()
{
    static const std::vector<std::string> mutations = {
        "miscount-skipped",
        "skip-eviction-replay",
    };
    return mutations;
}

} // namespace sleuth::campaign
