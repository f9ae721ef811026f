// storm_batch: offline incident analysis, the job `sleuth ingest` plus
// `sleuth analyze` does. A fixed set of incident storms, each under
// its own container-scope fault plan, is exported as collector
// payloads (OTel, Zipkin and Jaeger in rotation), imported into a
// fresh TraceStore, then every storm is queried back, materialized and
// analyzed by the default SleuthPipeline (1 thread, no cache).
//
// This is the only workload where JSON decode and the encode /
// distance / cluster / RCA stages do most of the work; it bypasses the
// online layer, the WAL and the PipelineCache.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/hdbscan.h"
#include "cluster/svdd.h"
#include "collector/collector.h"
#include "core/counterfactual.h"
#include "core/pipeline.h"
#include "distance/distance_matrix.h"
#include "fixture.h"
#include "sim/simulator.h"
#include "storage/trace_store.h"
#include "trace/trace_json.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/strings.h"
#include "workloads.h"

namespace sleuthbench {

using namespace sleuth;

namespace {

/**
 * Trace counts of the storms, repeated kStormCycles times: every size
 * from 128 to 1024, with 256-trace storms in the majority. The median
 * analysis then falls in the middle of the 256 class and the p75 in the
 * middle of the 512 class, away from the class boundaries, so that a
 * seed's draw of storm contents moves them little; 11 of the 44 storms
 * lie beyond the p75.
 */
constexpr size_t kStormCycle[] = {128, 256, 256, 512,  256, 1024,
                                  256, 256, 512, 1024, 256};
constexpr size_t kStormCycles = 4;
/** Each storm's root spans start inside its own window of this width. */
constexpr int64_t kStormWindowUs = 1'000'000'000;
/** Root-start spacing of consecutive traces within a storm. */
constexpr int64_t kTraceSpacingUs = 1'000;
/**
 * Every kMalformedEvery-th trace of an export loses a parent link (an
 * orphan span), the defect real exports carry when a collector drops
 * spans. The collector must reject exactly these.
 */
constexpr size_t kMalformedEvery = 50;
/** Analyses of every storm per import pass (more latency samples). */
constexpr int kAnalysesPerPass = 2;

struct Storm
{
    collector::Protocol protocol = collector::Protocol::Otel;
    std::string payload;
    int64_t sloUs = 0;
    size_t offered = 0;
    size_t malformed = 0;
    /** Spans of the well-formed traces (what the collector accepts). */
    size_t acceptedSpans = 0;
};

struct Inputs
{
    std::unique_ptr<Fixture> fx;
    std::vector<Storm> storms;
    /** Trace id -> SimResult::rootCauseServices (fault-touched only). */
    std::unordered_map<std::string, std::set<std::string>> truth;
    /** fnv1a over every payload (set-up determinism check). */
    uint64_t digest = 0;
};

std::string
upper(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    return s;
}

/** Zipkin v2 span array, the shape collector::parseZipkin reads. */
std::string
zipkinPayload(const std::vector<trace::Trace> &traces)
{
    util::Json doc = util::Json::array();
    for (const trace::Trace &t : traces) {
        for (const trace::Span &s : t.spans) {
            util::Json j = util::Json::object();
            j.set("traceId", t.traceId);
            j.set("id", s.spanId);
            if (!s.parentSpanId.empty())
                j.set("parentId", s.parentSpanId);
            j.set("name", s.name);
            if (s.kind != trace::SpanKind::Local)
                j.set("kind", upper(trace::toString(s.kind)));
            j.set("timestamp", s.startUs);
            j.set("duration", s.durationUs());
            util::Json ep = util::Json::object();
            ep.set("serviceName", s.service);
            j.set("localEndpoint", std::move(ep));
            if (s.hasError()) {
                util::Json tags = util::Json::object();
                tags.set("error", "true");
                j.set("tags", std::move(tags));
            }
            doc.push(std::move(j));
        }
    }
    return doc.dump();
}

/** Jaeger JSON export, the shape collector::parseJaeger reads. */
std::string
jaegerPayload(const std::vector<trace::Trace> &traces)
{
    util::Json data = util::Json::array();
    for (const trace::Trace &t : traces) {
        util::Json entry = util::Json::object();
        entry.set("traceID", t.traceId);
        util::Json processes = util::Json::object();
        std::map<std::string, std::string> pids;
        util::Json spans = util::Json::array();
        for (const trace::Span &s : t.spans) {
            auto [it, fresh] =
                pids.try_emplace(s.service, "p" + std::to_string(pids.size()));
            if (fresh) {
                util::Json proc = util::Json::object();
                proc.set("serviceName", s.service);
                processes.set(it->second, std::move(proc));
            }
            util::Json j = util::Json::object();
            j.set("spanID", s.spanId);
            if (!s.parentSpanId.empty()) {
                util::Json ref = util::Json::object();
                ref.set("refType", "CHILD_OF");
                ref.set("spanID", s.parentSpanId);
                util::Json refs = util::Json::array();
                refs.push(std::move(ref));
                j.set("references", std::move(refs));
            }
            j.set("operationName", s.name);
            j.set("startTime", s.startUs);
            j.set("duration", s.durationUs());
            j.set("processID", it->second);
            util::Json tags = util::Json::array();
            util::Json kind = util::Json::object();
            kind.set("key", "span.kind");
            kind.set("value", trace::toString(s.kind));
            tags.push(std::move(kind));
            if (s.hasError()) {
                util::Json err = util::Json::object();
                err.set("key", "error");
                err.set("value", true);
                tags.push(std::move(err));
            }
            j.set("tags", std::move(tags));
            spans.push(std::move(j));
        }
        entry.set("spans", std::move(spans));
        entry.set("processes", std::move(processes));
        data.push(std::move(entry));
    }
    util::Json doc = util::Json::object();
    doc.set("data", std::move(data));
    return doc.dump();
}

Inputs
buildInputs(uint64_t seed)
{
    Inputs in;
    in.fx = buildFixture();
    const Fixture &fx = *in.fx;
    const size_t flows = fx.app.flows.size();
    for (size_t k = 0; k < kStormCycles * std::size(kStormCycle); ++k) {
        // Storms at the same position of the cycle share a fault plan.
        const size_t pos = k % std::size(kStormCycle);
        const size_t size = kStormCycle[pos];
        chaos::FaultPlan plan = effectivePlan(fx, 1 + pos % 3, 100 + pos);
        sim::Simulator sim(fx.app, *fx.cluster,
                           {.seed = deriveSeed(seed, 100 + k)}, plan);
        std::vector<trace::Trace> traces;
        traces.reserve(size);
        Storm storm;
        storm.sloUs = INT64_MAX;
        // Round-robin over flows, keeping only SLO violators: the storm
        // mixes the flows the fault reaches (clusters) with stray
        // violators of the others (noise).
        for (size_t tries = 0; traces.size() < size && tries < size * 400;
             ++tries) {
            sim::SimResult r =
                sim.simulateFlow(static_cast<int>(tries % flows));
            int64_t flow_slo =
                fx.app.flows[static_cast<size_t>(r.flowIndex)].sloUs;
            if (!r.violatesSlo(flow_slo))
                continue;
            const trace::Span *root = nullptr;
            for (const trace::Span &s : r.trace.spans)
                if (s.parentSpanId.empty())
                    root = &s;
            int64_t shift = static_cast<int64_t>(k) * kStormWindowUs +
                            static_cast<int64_t>(traces.size()) *
                                kTraceSpacingUs -
                            root->startUs;
            for (trace::Span &s : r.trace.spans) {
                s.startUs += shift;
                s.endUs += shift;
            }
            r.trace.traceId = "s" + std::to_string(k) + "-" + r.trace.traceId;
            bool malformed =
                traces.size() % kMalformedEvery == kMalformedEvery - 1 &&
                r.trace.spans.size() > 1;
            if (malformed) {
                for (trace::Span &s : r.trace.spans) {
                    if (!s.parentSpanId.empty()) {
                        s.parentSpanId = "lost-" + s.parentSpanId;
                        break;
                    }
                }
                ++storm.malformed;
            } else {
                if (r.faultTouched())
                    in.truth[r.trace.traceId] = r.rootCauseServices;
                // The export carries one SLO: the tightest of its flows,
                // so every accepted trace is stored as anomalous.
                storm.sloUs = std::min(storm.sloUs, flow_slo);
                storm.acceptedSpans += r.trace.spans.size();
            }
            traces.push_back(std::move(r.trace));
        }
        SLEUTH_ASSERT(traces.size() == size, "storm ", k, " reached only ",
                      traces.size(), " SLO violators");

        storm.protocol = static_cast<collector::Protocol>(k % 3);
        storm.offered = traces.size();
        switch (storm.protocol) {
          case collector::Protocol::Otel:
            storm.payload = trace::toJson(traces).dump();
            break;
          case collector::Protocol::Zipkin:
            storm.payload = zipkinPayload(traces);
            break;
          case collector::Protocol::Jaeger:
            storm.payload = jaegerPayload(traces);
            break;
        }
        in.digest = in.digest * 31 + util::fnv1a(storm.payload);
        in.storms.push_back(std::move(storm));
    }
    return in;
}

storage::Query
stormQuery(size_t k)
{
    storage::Query q;
    q.minStartUs = static_cast<int64_t>(k) * kStormWindowUs;
    q.maxStartUs = static_cast<int64_t>(k + 1) * kStormWindowUs;
    q.onlyAnomalous = true;
    return q;
}

struct Scores
{
    size_t touched = 0;
    size_t hits = 0;
    size_t errorVerdicts = 0;
};

void
score(const Inputs &in, const std::vector<trace::Trace> &traces,
      const core::PipelineResult &res, Scores *out)
{
    for (size_t i = 0; i < traces.size(); ++i) {
        const core::RcaResult &v = res.perTrace[i];
        if (!v.error.empty())
            ++out->errorVerdicts;
        auto it = in.truth.find(traces[i].traceId);
        if (it == in.truth.end())
            continue;
        ++out->touched;
        for (size_t j = 0; j < v.services.size() && j < 3; ++j) {
            if (it->second.count(v.services[j])) {
                ++out->hits;
                break;
            }
        }
    }
}

/**
 * End-to-end samples of one measured phase. Every pass repeats the
 * same work, so each storm keeps its fastest import and its fastest
 * analysis over the run: on a shared host a sample is the storm's cost
 * plus whatever interference it met, and the minimum over repeats
 * removes most of the interference.
 */
struct Measured
{
    explicit Measured(size_t storms)
        : importMs(storms, kUnset), analysisMs(storms, kUnset)
    {}

    static constexpr double kUnset = 1e300;

    /** Per storm: fastest TraceCollector::ingest of its payload. */
    std::vector<double> importMs;
    /** Per storm: fastest query + materialize + analyze. */
    std::vector<double> analysisMs;
    size_t importSamples = 0;
    size_t analysisSamples = 0;
    size_t passes = 0;
    Scores scores;
    size_t offered = 0;
    size_t rejected = 0;
    size_t acceptedSpans = 0;
};

/**
 * One import-then-analyze pass, appended to *m. Checks the collector's
 * accounting, and the verdicts against the first pass's.
 */
void
measurePass(const Inputs &in, Tracer &tracer, Report &report,
            uint64_t *verdict_digest, Measured *out)
{
    const Fixture &fx = *in.fx;
    core::SleuthPipeline pipeline(*fx.model, *fx.encoder, fx.profile, {});
    Measured &m = *out;
    {
        const size_t pass = m.passes++;
        storage::TraceStore store;
        collector::TraceCollector coll(&store);
        {
            tracer.beginTrace("storm_batch/pass" + std::to_string(pass) +
                              "/import");
            Tracer::Span root(tracer, "bench", "import");
            for (size_t k = 0; k < in.storms.size(); ++k) {
                const Storm &s = in.storms[k];
                Tracer::Span span(tracer, "collector",
                                  "TraceCollector::ingest");
                coll.ingest(s.payload, s.protocol, s.sloUs);
                m.importMs[k] = std::min(m.importMs[k], span.end());
                ++m.importSamples;
            }
        }
        report.countAttempted(in.storms.size());
        size_t want_accepted = 0;
        size_t want_rejected = 0;
        size_t want_spans = 0;
        for (const Storm &s : in.storms) {
            want_accepted += s.offered - s.malformed;
            want_rejected += s.malformed;
            want_spans += s.acceptedSpans;
        }
        const collector::CollectorStats &cs = coll.stats();
        if (cs.tracesAccepted != want_accepted ||
            cs.tracesRejected != want_rejected ||
            cs.spansAccepted != want_spans) {
            report.fail("collector accepted " +
                        std::to_string(cs.tracesAccepted) + "/" +
                        std::to_string(want_accepted) + " traces, rejected " +
                        std::to_string(cs.tracesRejected) + "/" +
                        std::to_string(want_rejected));
            report.countFailed(1);
        }
        m.acceptedSpans = cs.spansAccepted;
        m.offered = want_accepted + want_rejected;
        m.rejected = cs.tracesRejected;

        uint64_t digest = 0;
        Scores scores;
        for (int r = 0; r < kAnalysesPerPass; ++r) {
            for (size_t k = 0; k < in.storms.size(); ++k) {
                tracer.beginTrace("storm_batch/pass" + std::to_string(pass) +
                                  "/storm" + std::to_string(k) + "/r" +
                                  std::to_string(r));
                Tracer::Span root(tracer, "bench", "storm");
                std::vector<const storage::Record *> recs;
                {
                    Tracer::Span span(tracer, "storage", "TraceStore::query");
                    recs = store.query(stormQuery(k));
                }
                std::vector<trace::Trace> traces;
                std::vector<int64_t> slos;
                {
                    Tracer::Span span(tracer, "trace", "Record::trace");
                    traces.reserve(recs.size());
                    for (const storage::Record *rec : recs) {
                        traces.push_back(rec->trace());
                        slos.push_back(rec->sloUs);
                    }
                }
                core::PipelineResult res;
                {
                    Tracer::Span span(tracer, "core",
                                      "SleuthPipeline::analyze");
                    res = pipeline.analyze(traces, slos);
                }
                m.analysisMs[k] = std::min(m.analysisMs[k], root.end());
                ++m.analysisSamples;
                report.countAttempted(1);
                if (r == 0) {
                    score(in, traces, res, &scores);
                    if (traces.size() != in.storms[k].offered -
                                             in.storms[k].malformed) {
                        report.fail("storm " + std::to_string(k) +
                                    ": query returned " +
                                    std::to_string(traces.size()) +
                                    " anomalous traces");
                        report.countFailed(1);
                    }
                }
                digest = digest * 31 + verdictDigest(res);
            }
        }
        if (scores.errorVerdicts > 0)
            report.countFailed(scores.errorVerdicts);
        if (pass == 0) {
            m.scores = scores;
            if (*verdict_digest == 0)
                *verdict_digest = digest;
        }
        if (digest != *verdict_digest)
            report.fail("verdicts of pass " + std::to_string(pass) +
                        " differ from the first pass");
    }
}

void
reportEndToEnd(const Measured &m, double rss_mb, Report &report)
{
    double import_ms = 0.0;
    std::vector<double> verdict_ms(m.importMs.size());
    for (size_t k = 0; k < m.importMs.size(); ++k) {
        import_ms += m.importMs[k];
        verdict_ms[k] = m.importMs[k] + m.analysisMs[k];
    }
    report.set("ingest_spans_per_s",
               static_cast<double>(m.acceptedSpans) / (import_ms / 1000.0),
               "spans/s", m.importSamples);
    report.set("latency_ms_p50", median(m.analysisMs), "ms",
               m.analysisSamples);
    report.set("latency_ms_p75", quantile(m.analysisMs, 0.75), "ms",
               m.analysisSamples);
    report.set("verdict_ms_p50", median(verdict_ms), "ms",
               m.importSamples + m.analysisSamples);
    report.set("failed_fraction",
               static_cast<double>(m.rejected + m.scores.errorVerdicts) /
                   static_cast<double>(m.offered),
               "fraction", m.offered);
    report.set("rca_top3_hit_rate",
               m.scores.touched > 0
                   ? static_cast<double>(m.scores.hits) /
                         static_cast<double>(m.scores.touched)
                   : 0.0,
               "fraction", m.scores.touched);
    report.set("peak_rss_mb", rss_mb, "MB");
}

/**
 * The traced replay: recompose TraceCollector::ingest and
 * SleuthPipeline::analyze from the public calls they are built of,
 * timing each, and check that the recomposed verdicts equal analyze()'s
 * bitwise.
 */
void
recompose(const Inputs &in, Tracer &tracer, Report &report)
{
    const Fixture &fx = *in.fx;
    core::PipelineConfig cfg;
    core::SleuthPipeline pipeline(*fx.model, *fx.encoder, fx.profile, cfg);
    core::PipelineConfig par_cfg = cfg;
    par_cfg.numThreads =
        std::min<size_t>(4, std::max(1u, std::thread::hardware_concurrency()));
    core::SleuthPipeline parallel(*fx.model, *fx.encoder, fx.profile,
                                  par_cfg);
    core::CounterfactualRca rca(*fx.model, *fx.encoder, fx.profile, cfg.rca);

    // --- Import, stage by stage. ---
    storage::TraceStore store;
    size_t rejected = 0;
    size_t planted = 0;
    double normalize_ms = 0.0;
    for (size_t k = 0; k < in.storms.size(); ++k) {
        const Storm &s = in.storms[k];
        planted += s.malformed;
        tracer.beginTrace("storm_batch/layers/import" + std::to_string(k));
        Tracer::Span root(tracer, "bench", "import");
        util::Json doc;
        {
            Tracer::Span span(tracer, "util", "Json::parse");
            std::string err;
            doc = util::Json::parse(s.payload, &err);
            if (!err.empty())
                report.fail("payload " + std::to_string(k) + ": " + err);
        }
        std::vector<trace::Trace> traces;
        switch (s.protocol) {
          case collector::Protocol::Otel: {
            Tracer::Span span(tracer, "collector", "parseOtel");
            traces = collector::parseOtel(doc);
            normalize_ms += span.end();
            break;
          }
          case collector::Protocol::Zipkin: {
            Tracer::Span span(tracer, "collector", "parseZipkin");
            traces = collector::parseZipkin(doc);
            normalize_ms += span.end();
            break;
          }
          case collector::Protocol::Jaeger: {
            Tracer::Span span(tracer, "collector", "parseJaeger");
            traces = collector::parseJaeger(doc);
            normalize_ms += span.end();
            break;
          }
        }
        std::vector<char> valid(traces.size(), 0);
        {
            Tracer::Span span(tracer, "trace", "TraceGraph::tryBuild/validate");
            for (size_t i = 0; i < traces.size(); ++i) {
                trace::TraceGraph g;
                std::string why;
                valid[i] = trace::TraceGraph::tryBuild(traces[i], &g, &why);
                rejected += valid[i] ? 0 : 1;
            }
        }
        {
            Tracer::Span span(tracer, "storage", "TraceStore::insert");
            for (size_t i = 0; i < traces.size(); ++i)
                if (valid[i])
                    store.insert(std::move(traces[i]), s.sloUs);
        }
    }
    if (rejected != planted)
        report.fail("recomposed import rejected " + std::to_string(rejected) +
                    " traces, " + std::to_string(planted) + " were planted");

    // --- Analysis, stage by stage. ---
    size_t pairs = 0;
    size_t clusters = 0;
    size_t noise = 0;
    size_t rca_calls = 0;
    size_t rca_iterations = 0;
    size_t rca_resolved = 0;
    double encode_us = 0.0;
    double propagate_us = 0.0;
    size_t rcad = 0;
    double query_ms = 0.0;
    double materialize_ms = 0.0;
    double analyze_ms = 0.0;
    double parallel_ms = 0.0;
    double stages_ms = 0.0;
    for (size_t k = 0; k < in.storms.size(); ++k) {
        tracer.beginTrace("storm_batch/layers/storm" + std::to_string(k));
        Tracer::Span root(tracer, "bench", "storm");
        std::vector<const storage::Record *> recs;
        {
            Tracer::Span span(tracer, "storage", "TraceStore::query");
            recs = store.query(stormQuery(k));
            query_ms += span.end();
        }
        std::vector<trace::Trace> traces;
        std::vector<int64_t> slos;
        {
            Tracer::Span span(tracer, "trace", "Record::trace");
            for (const storage::Record *rec : recs) {
                traces.push_back(rec->trace());
                slos.push_back(rec->sloUs);
            }
            materialize_ms += span.end();
        }
        const size_t n = traces.size();
        std::vector<trace::TraceGraph> graphs(n);
        {
            Tracer::Span span(tracer, "trace", "TraceGraph::tryBuild");
            for (size_t i = 0; i < n; ++i) {
                std::string why;
                if (!trace::TraceGraph::tryBuild(traces[i], &graphs[i], &why))
                    report.fail("stored trace failed validation: " + why);
            }
            stages_ms += span.end();
        }
        std::vector<distance::WeightedSpanSet> sets(n);
        {
            Tracer::Span span(tracer, "distance", "encodeSpanSet");
            for (size_t i = 0; i < n; ++i)
                sets[i] = distance::encodeSpanSet(traces[i], graphs[i],
                                                  cfg.distanceOpts);
            stages_ms += span.end();
        }
        distance::DistanceMatrix dist;
        {
            Tracer::Span span(tracer, "distance",
                              "DistanceMatrix::fromSpanSets");
            dist = distance::DistanceMatrix::fromSpanSets(sets);
            stages_ms += span.end();
        }
        pairs += n * (n - 1) / 2;
        cluster::ClusterResult cl;
        {
            Tracer::Span span(tracer, "cluster", "hdbscan");
            cl = cluster::hdbscan(dist, cfg.hdbscan);
            stages_ms += span.end();
        }
        std::vector<size_t> reps;
        {
            Tracer::Span span(tracer, "cluster", "selectRepresentatives");
            reps = cluster::selectRepresentatives(cl.labels, cl.numClusters,
                                                  dist);
            stages_ms += span.end();
        }
        clusters += static_cast<size_t>(cl.numClusters);

        // Representatives first, then members too far from theirs and
        // noise traces individually: analyzeCore's order.
        std::vector<core::RcaResult> verdicts(n);
        std::vector<char> assigned(n, 0);
        std::vector<size_t> analyzed;
        auto runRca = [&](size_t i) {
            Tracer::Span span(tracer, "core", "CounterfactualRca::analyze");
            core::RcaResult v = rca.analyze(traces[i], slos[i]);
            stages_ms += span.end();
            ++rca_calls;
            rca_iterations += v.iterations;
            rca_resolved += v.resolved ? 1 : 0;
            analyzed.push_back(i);
            return v;
        };
        for (int c = 0; c < cl.numClusters; ++c) {
            size_t rep = reps[static_cast<size_t>(c)];
            core::RcaResult v = runRca(rep);
            for (size_t i = 0; i < n; ++i) {
                if (cl.labels[i] != c)
                    continue;
                if (cfg.maxRepresentativeDistance > 0.0 && i != rep &&
                    dist.at(i, rep) > cfg.maxRepresentativeDistance)
                    continue;
                verdicts[i] = v;
                assigned[i] = 1;
            }
        }
        for (size_t i = 0; i < n; ++i) {
            if (!assigned[i]) {
                verdicts[i] = runRca(i);
                ++noise;
            }
        }

        core::PipelineResult res;
        {
            Tracer::Span span(tracer, "core", "SleuthPipeline::analyze");
            res = pipeline.analyze(traces, slos);
            analyze_ms += span.end();
        }
        bool same = res.clusterLabels == cl.labels &&
                    res.numClusters == cl.numClusters;
        for (size_t i = 0; same && i < n; ++i)
            same = res.perTrace[i].services == verdicts[i].services;
        if (!same)
            report.fail("storm " + std::to_string(k) +
                        ": verdicts recomposed from the stage calls differ "
                        "from SleuthPipeline::analyze");

        core::PipelineResult par;
        {
            Tracer::Span span(tracer, "core",
                              "SleuthPipeline::analyze[threads=4]");
            par = parallel.analyze(traces, slos);
            parallel_ms += span.end();
        }
        if (verdictDigest(par) != verdictDigest(res))
            report.fail("storm " + std::to_string(k) +
                        ": verdicts depend on the thread count");

        // The two inner kernels of every RCA'd trace, called directly.
        for (size_t i : analyzed) {
            core::TraceBatch batch;
            {
                Tracer::Span span(tracer, "core", "FeatureEncoder::encode");
                batch = fx.encoder->encode(traces[i]);
                encode_us += span.end() * 1000.0;
            }
            trace::ExclusiveMetrics ex =
                trace::computeExclusive(traces[i], graphs[i]);
            std::vector<core::NodeState> states(traces[i].spans.size());
            for (size_t j = 0; j < states.size(); ++j) {
                states[j].exclusiveUs = static_cast<double>(ex.exclusiveUs[j]);
                states[j].exclusiveErr = ex.exclusiveError[j] ? 1.0 : 0.0;
            }
            Tracer::Span span(tracer, "core", "SleuthGnn::propagate");
            core::TracePrediction p =
                fx.model->propagate(batch, graphs[i], states);
            propagate_us += span.end() * 1000.0;
            if (!(p.rootDurationUs >= 0.0))
                report.fail("propagate returned a negative root duration");
            ++rcad;
        }
    }

    report.set("util.json_parse_ms", tracer.totalMs("util", "Json::parse"),
               "ms", in.storms.size());
    report.set("collector.normalize_ms", normalize_ms, "ms",
               in.storms.size());
    report.set("collector.rejected_traces", static_cast<double>(rejected),
               "count");
    report.set("storage.insert_ms",
               tracer.totalMs("storage", "TraceStore::insert"), "ms",
               store.size());
    report.set("storage.query_ms", query_ms, "ms", in.storms.size());
    report.set("trace.materialize_ms", materialize_ms, "ms",
               in.storms.size());
    report.set("storage.evicted_records",
               static_cast<double>(store.evictions().records), "count");
    report.set("storage.bytes_per_span",
               static_cast<double>(store.memoryBytes()) /
                   static_cast<double>(store.totalSpans()),
               "bytes");
    report.set("trace.graph_build_ms",
               tracer.totalMs("trace", "TraceGraph::tryBuild"), "ms",
               in.storms.size());
    report.set("distance.encode_ms",
               tracer.totalMs("distance", "encodeSpanSet"), "ms",
               in.storms.size());
    report.set("distance.matrix_ms",
               tracer.totalMs("distance", "DistanceMatrix::fromSpanSets"),
               "ms", in.storms.size());
    report.set("distance.pairs", static_cast<double>(pairs), "count");
    report.set("cluster.hdbscan_ms", tracer.totalMs("cluster", "hdbscan"),
               "ms", in.storms.size());
    report.set("cluster.representatives_ms",
               tracer.totalMs("cluster", "selectRepresentatives"), "ms",
               in.storms.size());
    report.set("cluster.clusters", static_cast<double>(clusters), "count");
    report.set("cluster.noise_traces", static_cast<double>(noise), "count");
    report.set("core.rca_ms",
               tracer.totalMs("core", "CounterfactualRca::analyze"), "ms",
               rca_calls);
    report.set("core.rca_calls", static_cast<double>(rca_calls), "count");
    report.set("core.rca_iterations", static_cast<double>(rca_iterations),
               "count");
    report.set("core.rca_resolved_ratio",
               rca_calls > 0 ? static_cast<double>(rca_resolved) /
                                   static_cast<double>(rca_calls)
                             : 0.0,
               "ratio", rca_calls);
    report.set("core.feature_encode_us",
               rcad > 0 ? encode_us / static_cast<double>(rcad) : 0.0, "us",
               rcad);
    report.set("core.gnn_propagate_us",
               rcad > 0 ? propagate_us / static_cast<double>(rcad) : 0.0, "us",
               rcad);
    report.set("core.analyze_ms", analyze_ms, "ms", in.storms.size());
    report.set("core.pipeline_residual_ms", analyze_ms - stages_ms, "ms",
               in.storms.size());
    report.set("util.pool_speedup_4t",
               parallel_ms > 0.0 ? analyze_ms / parallel_ms : 0.0, "x",
               in.storms.size());
}

} // namespace

void
runStormBatch(const RunOptions &opts, Report &report, Tracer &tracer)
{
    std::vector<double> setup_s;
    Inputs in;
    uint64_t first_digest = 0;
    for (int s = 0; s < kSetups; ++s) {
        in = Inputs{};
        Clock::time_point t0 = Clock::now();
        in = buildInputs(opts.seed);
        setup_s.push_back(msSince(t0) / 1000.0);
        if (s == 0)
            first_digest = in.digest;
        else if (in.digest != first_digest)
            report.fail("set-up is not deterministic in the seed");
    }
    report.set("setup_s", median(setup_s), "s", setup_s.size());
    report.set("nn.train_step_ms", in.fx->trainStepMs, "ms",
               in.fx->trainSteps);

    size_t traces = 0;
    for (const Storm &s : in.storms)
        traces += s.offered;
    std::printf("storm_batch: %zu storms, %zu traces, %zu fault-touched\n",
                in.storms.size(), traces, in.truth.size());

    // Passes until time is up. A traced run alternates untraced and
    // traced passes, so both halves see the same warm-up and drift.
    uint64_t verdicts = 0;
    Tracer off(false);
    Measured m(in.storms.size());
    Measured traced(in.storms.size());
    Clock::time_point deadline = Clock::now() + secondsOf(opts.seconds);
    do {
        measurePass(in, off, report, &verdicts, &m);
        if (opts.trace)
            measurePass(in, tracer, report, &verdicts, &traced);
    } while (Clock::now() < deadline);
    reportEndToEnd(m, peakRssMb(), report);
    std::printf("storm_batch: %zu passes, %zu analyses\n", m.passes,
                m.analysisSamples);
    if (!opts.trace)
        return;

    double u = median(m.analysisMs);
    double t = median(traced.analysisMs);
    report.set("bench.tracing_overhead_pct", (t - u) / u * 100.0, "%",
               traced.analysisSamples);
    recompose(in, tracer, report);
}

} // namespace sleuthbench
