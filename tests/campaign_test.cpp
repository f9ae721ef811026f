// Campaign engine tests: scenario serialization and determinism, the
// invariant registry, the tier-1 pinned-seed campaign, and the
// mutation smoke check — a deliberately broken invariant must shrink
// to a minimal repro that campaign_replay reproduces bit-for-bit.

#include "campaign/campaign.h"

#include <gtest/gtest.h>

using namespace sleuth;
using namespace sleuth::campaign;

TEST(Scenario, JsonRoundTripIsExact)
{
    util::Rng rng(31);
    for (int i = 0; i < 25; ++i) {
        util::Rng fork = rng.fork(static_cast<uint64_t>(i));
        Scenario s = drawScenario(fork);
        s.keptTraces = {0, 2, 5};
        s.droppedFaults = {1};
        std::string err;
        util::Json doc = util::Json::parse(toJson(s).dump(), &err);
        ASSERT_TRUE(err.empty()) << err;
        EXPECT_TRUE(s == scenarioFromJson(doc));
    }
    // Empty shrink masks are omitted from the document and restored
    // as empty.
    Scenario plain;
    util::Json doc = toJson(plain);
    EXPECT_FALSE(doc.has("keptTraces"));
    EXPECT_FALSE(doc.has("droppedFaults"));
    EXPECT_TRUE(plain == scenarioFromJson(doc));
}

TEST(Scenario, DrawingIsSeedStable)
{
    util::Rng a(77), b(77);
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(drawScenario(a) == drawScenario(b));
}

TEST(Scenario, BuildIsDeterministic)
{
    Scenario s;
    s.seed = 1234;
    s.numRpcs = 16;
    s.numQueries = 6;
    std::unique_ptr<ScenarioRun> a = buildScenario(s);
    std::unique_ptr<ScenarioRun> b = buildScenario(s);
    ASSERT_EQ(a->degenerate, b->degenerate);
    ASSERT_EQ(a->traces.size(), b->traces.size());
    for (size_t i = 0; i < a->traces.size(); ++i) {
        EXPECT_EQ(a->traces[i].traceId, b->traces[i].traceId);
        EXPECT_EQ(a->slos[i], b->slos[i]);
        EXPECT_EQ(a->truthServices[i], b->truthServices[i]);
    }
    if (!a->degenerate) {
        core::PipelineConfig cfg = s.pipelineConfig();
        core::PipelineResult ra = a->analyze(cfg);
        core::PipelineResult rb = b->analyze(cfg);
        EXPECT_EQ(ra.clusterLabels, rb.clusterLabels);
        ASSERT_EQ(ra.perTrace.size(), rb.perTrace.size());
        for (size_t i = 0; i < ra.perTrace.size(); ++i)
            EXPECT_EQ(ra.perTrace[i].services, rb.perTrace[i].services);
    }
}

TEST(Scenario, ShrinkMasksApply)
{
    Scenario s;
    s.seed = 1234;
    s.numRpcs = 16;
    s.numQueries = 8;
    std::unique_ptr<ScenarioRun> full = buildScenario(s);
    ASSERT_FALSE(full->degenerate);
    ASSERT_GE(full->traces.size(), 3u);

    Scenario masked = s;
    masked.keptTraces = {0, 2};
    std::unique_ptr<ScenarioRun> sub = buildScenario(masked);
    ASSERT_EQ(sub->traces.size(), 2u);
    EXPECT_EQ(sub->traces[0].traceId, full->traces[0].traceId);
    EXPECT_EQ(sub->traces[1].traceId, full->traces[2].traceId);

    // Dropping every fault leaves nothing to harvest: degenerate.
    Scenario no_faults = s;
    for (size_t i = 0; i < s.faultCount; ++i)
        no_faults.droppedFaults.push_back(i);
    EXPECT_TRUE(buildScenario(no_faults)->degenerate);
}

TEST(Invariants, RegistryIsComplete)
{
    const std::vector<Invariant> &reg = invariantRegistry();
    ASSERT_EQ(reg.size(), 14u);
    for (const Invariant &inv : reg) {
        EXPECT_FALSE(inv.name.empty());
        EXPECT_FALSE(inv.description.empty());
        EXPECT_TRUE(inv.check != nullptr);
        EXPECT_EQ(&findInvariant(inv.name), &inv);
        EXPECT_EQ(tryFindInvariant(inv.name), &inv);
    }
    EXPECT_EQ(tryFindInvariant("no-such-invariant"), nullptr);
    EXPECT_EQ(knownMutations().size(), 2u);
    EXPECT_EQ(knownMutations()[0], "miscount-skipped");
    EXPECT_EQ(knownMutations()[1], "skip-eviction-replay");
}

TEST(Campaign, TierOnePinnedSeedIsGreen)
{
    // The tier-1 gate: 20 scenarios from a pinned master seed, every
    // invariant green. Deterministic — a failure here is a real
    // regression, never a flake.
    CampaignParams params;
    params.seed = 1;
    params.scenarios = 20;
    params.shrink = false;
    CampaignReport report = runCampaign(params);
    ASSERT_EQ(report.outcomes.size(), 20u);
    for (const ScenarioOutcome &o : report.outcomes)
        for (const InvariantOutcome &c : o.checks)
            EXPECT_TRUE(c.pass) << c.invariant << " failed on seed "
                                << o.scenario.seed << ": " << c.detail;
    EXPECT_TRUE(report.allPassed());
    EXPECT_EQ(report.failures(), 0u);
    EXPECT_GE(report.checksRun(),
              (report.outcomes.size() - report.degenerateScenarios()) *
                  invariantRegistry().size());

    util::Json rows = report.benchJson(1.5);
    ASSERT_GE(rows.asArray().size(), 5u);
    for (const util::Json &row : rows.asArray()) {
        EXPECT_TRUE(row.has("metric"));
        EXPECT_TRUE(row.has("value"));
        EXPECT_TRUE(row.has("unit"));
    }
}

TEST(Campaign, MutationSmokeShrinksToReplayableRepro)
{
    // End-to-end proof that a real invariant violation would be caught,
    // minimized, and shipped as a deterministic repro: a test-only
    // mutation makes the skipped-accounting invariant expect one more
    // skip than the pipeline reports, which must fail on every
    // scenario.
    CampaignParams params;
    params.seed = 5;
    params.scenarios = 1;
    params.mutation = "miscount-skipped";
    params.maxShrinkRuns = 60;
    CampaignReport report = runCampaign(params);
    ASSERT_EQ(report.outcomes.size(), 1u);
    ASSERT_FALSE(report.outcomes[0].degenerate);
    EXPECT_FALSE(report.allPassed());
    ASSERT_EQ(report.repros.size(), 1u);

    const ReproCase &repro = report.repros[0];
    EXPECT_EQ(repro.invariant, "skipped-accounting");
    EXPECT_EQ(repro.mutation, "miscount-skipped");
    EXPECT_EQ(repro.expect, "fail");
    // The shrinker must have minimized the incident: a single kept
    // trace suffices to exhibit a miscount.
    EXPECT_EQ(repro.scenario.keptTraces.size(), 1u);

    // The repro survives a JSON round trip and replays to the same
    // deterministic failure.
    std::string err;
    util::Json doc = util::Json::parse(toJson(repro).dump(2), &err);
    ASSERT_TRUE(err.empty()) << err;
    ReproCase reloaded = reproFromJson(doc);
    EXPECT_TRUE(reloaded.scenario == repro.scenario);
    InvariantResult first = replayCase(reloaded);
    InvariantResult second = replayCase(reloaded);
    EXPECT_FALSE(first.pass);
    EXPECT_EQ(first.detail, second.detail);

    // Without the mutation the same scenario is healthy: the failure
    // was injected, not real.
    EXPECT_TRUE(runInvariantOnScenario(repro.scenario,
                                       repro.invariant, "")
                    .pass);
}

TEST(Campaign, ShrinkerKeepsFailureAndShrinksBudgeted)
{
    util::Rng rng(5);
    util::Rng fork = rng.fork(0);
    Scenario s = drawScenario(fork);
    ASSERT_FALSE(
        runInvariantOnScenario(s, "skipped-accounting",
                               "miscount-skipped")
            .pass);
    ShrinkStats stats;
    Scenario small = shrinkScenario(s, "skipped-accounting",
                                    "miscount-skipped", 40, &stats);
    EXPECT_LE(stats.runs, 40u);
    EXPECT_GT(stats.accepted, 0u);
    EXPECT_LE(small.numRpcs, s.numRpcs);
    EXPECT_FALSE(
        runInvariantOnScenario(small, "skipped-accounting",
                               "miscount-skipped")
            .pass);
}
