// Durable replay engine (DESIGN.md §3.15): snapshot payload round
// trips, poll-atomic tail discard, config-free epoch replay, format
// version checks, bounded decoding of untrusted counts and columns,
// and the regression pinning replayed evictions bitwise to live
// evictions while the vocabulary interner keeps growing past evicted
// records.

#include "online/durable_state.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "durable/durable_log.h"
#include "storage/trace_store.h"
#include "temp_dir.h"
#include "test_helpers.h"
#include "trace/trace.h"
#include "util/binary.h"

using namespace sleuth;
using sleuth::testing::patched;

namespace {

/** A tiny two-span trace with a per-index vocabulary, so every insert
    grows the interner even after older records are evicted. */
trace::Trace
makeTrace(int i)
{
    std::string tag = std::to_string(i);
    trace::Trace t;
    t.traceId = "trace-" + tag;
    trace::Span root;
    root.spanId = "s" + tag + "-root";
    root.service = "svc-" + tag;
    root.name = "op-" + tag;
    root.startUs = 1'000 * i;
    root.endUs = root.startUs + 900;
    t.spans.push_back(root);
    trace::Span child;
    child.spanId = "s" + tag + "-child";
    child.parentSpanId = root.spanId;
    child.service = "dep-" + tag;
    child.name = "call-" + tag;
    child.startUs = root.startUs + 10;
    child.endUs = root.startUs + 500;
    t.spans.push_back(child);
    return t;
}

/** A live retention-bounded run and the WAL frame stream a durable
    service would have committed for it, one poll per insert. */
struct LiveRun
{
    storage::TraceStore store{storage::RetentionConfig{0, 2}};
    std::vector<durable::WalFrame> frames;
    size_t lastRecordId = 0;
    size_t tracesStored = 0;
    size_t evictionPolls = 0;
};

LiveRun
buildLiveRun(int polls)
{
    LiveRun run;
    run.store.trackEvictions(true);
    size_t interner_logged = run.store.interner()->size();
    for (int i = 0; i < polls; ++i) {
        size_t id = run.store.insert(makeTrace(i), 2'000, i);
        run.lastRecordId = id;
        ++run.tracesStored;
        util::BinaryWriter batch;
        online::appendSpanBatchRecord(batch, run.store.at(id));

        // Commit order mirrors the live service: vocabulary first (the
        // batch's raw u32 ids reference it), then the batch, the
        // eviction summary, and the sealing marker.
        size_t interned = run.store.interner()->size();
        if (interned > interner_logged) {
            run.frames.push_back(
                {durable::RecordKind::InternerDelta,
                 online::encodeInternerDeltaPayload(
                     static_cast<uint32_t>(interner_logged),
                     run.store.interner()->namesFrom(interner_logged)),
                 0});
            interner_logged = interned;
        }
        run.frames.push_back(
            {durable::RecordKind::SpanBatch, batch.take(), 0});
        std::vector<size_t> evicted =
            run.store.takeRecentEvictions();
        if (!evicted.empty()) {
            ++run.evictionPolls;
            run.frames.push_back(
                {durable::RecordKind::Eviction,
                 online::encodeEvictionPayload(evicted), 0});
        }
        online::PollMarkerPayload m;
        m.watermarkUs = 1'000 * (i + 1);
        m.lastRecordId = run.lastRecordId;
        m.tracesStored = run.tracesStored;
        m.storeRecords = run.store.size();
        m.storeSpans = run.store.totalSpans();
        m.internerSize = run.store.interner()->size();
        run.frames.push_back(
            {durable::RecordKind::PollMarker,
             online::encodePollMarkerPayload(m), 0});
    }
    return run;
}

durable::RecoveredLog
asLog(std::vector<durable::WalFrame> frames)
{
    durable::RecoveredLog log;
    log.haveSegments = true;
    log.frames = std::move(frames);
    return log;
}

} // namespace

TEST(DurableReplay, EvictionReplayMatchesLiveUnderInternerGrowth)
{
    // Retention maxRecords=2 over 6 single-trace polls: inserts 2..5
    // each evict the then-oldest record, while every insert interns a
    // fresh vocabulary. Replay applies the logged decisions — not the
    // policy — and must land on the live store's exact content,
    // including the interner entries only evicted records used.
    LiveRun live = buildLiveRun(6);
    ASSERT_GE(live.evictionPolls, 4u);
    ASSERT_EQ(live.store.size(), 2u);

    online::RecoveryInfo info;
    online::DurableServingState state = online::replayRecoveredLog(
        asLog(live.frames), online::DetectorConfig{}, {}, &info);
    ASSERT_TRUE(info.ok) << info.error;
    EXPECT_EQ(info.pollsReplayed, 6u);
    EXPECT_EQ(info.discardedTailFrames, 0u);
    EXPECT_EQ(state.store.contentFingerprint(),
              live.store.contentFingerprint());
    EXPECT_EQ(state.store.interner()->size(),
              live.store.interner()->size());
    EXPECT_EQ(state.lastRecordId, live.lastRecordId);
    EXPECT_EQ(state.tracesStored, live.tracesStored);

    // The cumulative eviction counters replay too.
    EXPECT_EQ(state.store.evictions().records,
              live.store.evictions().records);
}

TEST(DurableReplay, SkippingEvictionReplayIsRejected)
{
    // The skip-eviction-replay mutation ignores logged Eviction
    // records; the first sealed poll whose marker counters disagree
    // must stop the replay with a state-shape error instead of
    // returning silently divergent state.
    LiveRun live = buildLiveRun(6);
    online::RecoverOptions opts;
    opts.skipEvictionReplay = true;
    online::RecoveryInfo info;
    online::replayRecoveredLog(asLog(live.frames),
                               online::DetectorConfig{}, opts, &info);
    EXPECT_FALSE(info.ok);
    EXPECT_NE(info.error.find("state-shape"), std::string::npos)
        << info.error;
}

TEST(DurableReplay, UnsealedTailIsDiscarded)
{
    // Frames after the last PollMarker never reach the state — the
    // poll is the atomic unit, and a torn mid-poll tail (even one
    // full of garbage bytes) costs exactly that uncommitted poll.
    LiveRun live = buildLiveRun(4);
    online::RecoveryInfo clean_info;
    online::DurableServingState clean = online::replayRecoveredLog(
        asLog(live.frames), online::DetectorConfig{}, {}, &clean_info);
    ASSERT_TRUE(clean_info.ok) << clean_info.error;

    std::vector<durable::WalFrame> torn = live.frames;
    torn.push_back({durable::RecordKind::SpanBatch,
                    "garbage never decoded", 0});
    torn.push_back({durable::RecordKind::Eviction, "\x01", 0});
    online::RecoveryInfo info;
    online::DurableServingState state = online::replayRecoveredLog(
        asLog(torn), online::DetectorConfig{}, {}, &info);
    ASSERT_TRUE(info.ok) << info.error;
    EXPECT_EQ(info.discardedTailFrames, 2u);
    EXPECT_EQ(info.pollsReplayed, 4u);
    EXPECT_EQ(online::servingStateFingerprint(
                  state.store, state.detector, state.incidents,
                  state.watermarkUs, state.tracesStored,
                  state.lastRecordId),
              online::servingStateFingerprint(
                  clean.store, clean.detector, clean.incidents,
                  clean.watermarkUs, clean.tracesStored,
                  clean.lastRecordId));
}

TEST(DurableReplay, EpochRecordDrivesConfigFreeReplay)
{
    // The CLI replays logs with no config of its own: the segment's
    // Epoch record supplies it. A marker arriving before any epoch
    // (and no caller config) is a hard error, not a guess.
    LiveRun live = buildLiveRun(3);

    std::vector<durable::WalFrame> with_epoch = live.frames;
    with_epoch.insert(
        with_epoch.begin(),
        {durable::RecordKind::Epoch,
         online::encodeEpochPayload(online::DetectorConfig{}), 0});
    online::RecoveryInfo info;
    online::DurableServingState state = online::replayRecoveredLog(
        asLog(with_epoch), std::nullopt, {}, &info);
    ASSERT_TRUE(info.ok) << info.error;
    EXPECT_EQ(state.store.contentFingerprint(),
              live.store.contentFingerprint());

    online::RecoveryInfo bare;
    online::replayRecoveredLog(asLog(live.frames), std::nullopt, {},
                               &bare);
    EXPECT_FALSE(bare.ok);
    EXPECT_NE(bare.error.find("epoch"), std::string::npos)
        << bare.error;
}

TEST(DurableReplay, SnapshotPayloadRoundTripExact)
{
    LiveRun live = buildLiveRun(5);
    online::RecoveryInfo info;
    online::DurableServingState state = online::replayRecoveredLog(
        asLog(live.frames), online::DetectorConfig{}, {}, &info);
    ASSERT_TRUE(info.ok) << info.error;

    std::string payload = online::encodeSnapshotPayload(state);
    online::DurableServingState back;
    std::string err;
    ASSERT_TRUE(online::decodeSnapshotPayload(payload, &back, &err))
        << err;
    EXPECT_EQ(online::servingStateFingerprint(
                  back.store, back.detector, back.incidents,
                  back.watermarkUs, back.tracesStored,
                  back.lastRecordId),
              online::servingStateFingerprint(
                  state.store, state.detector, state.incidents,
                  state.watermarkUs, state.tracesStored,
                  state.lastRecordId));

    // The payload's own guarantees (the file-level CRC in snapshot.cc
    // guards raw rot): a length mismatch fails structurally, and a
    // corrupted store section trips the embedded content fingerprint.
    online::DurableServingState out;
    err.clear();
    EXPECT_FALSE(online::decodeSnapshotPayload(
        std::string_view(payload).substr(0, payload.size() - 1), &out,
        &err));
    EXPECT_FALSE(err.empty());
    err.clear();
    EXPECT_FALSE(
        online::decodeSnapshotPayload(payload + "x", &out, &err));
    EXPECT_FALSE(err.empty());

    size_t at = payload.find("svc-3"); // an interned store string
    ASSERT_NE(at, std::string::npos);
    std::string mutated = payload;
    mutated[at] = static_cast<char>(mutated[at] ^ 0x10);
    err.clear();
    EXPECT_FALSE(online::decodeSnapshotPayload(mutated, &out, &err));
    EXPECT_NE(err.find("fingerprint"), std::string::npos) << err;
}

/** Overwrite the leading u32 format version of a durable payload. */
std::string
stampVersion(std::string payload, uint32_t version)
{
    util::BinaryWriter w;
    w.u32(version);
    payload.replace(0, 4, w.buffer());
    return payload;
}

TEST(DurableReplay, OlderFormatVersionIsRefusedNamingBothVersions)
{
    // The PipelineResult codec inside incident records changed in
    // format version 2, so version-1 epochs and snapshots must be
    // refused with an error that says why, not "corrupt record".
    const std::string expected_epoch =
        "unsupported epoch format version 1 (this build reads version 2)";
    std::string old_epoch = stampVersion(
        online::encodeEpochPayload(online::DetectorConfig{}), 1);
    online::DetectorConfig cfg;
    std::string err;
    EXPECT_FALSE(online::decodeEpochPayload(old_epoch, &cfg, &err));
    EXPECT_EQ(err, expected_epoch);

    LiveRun live = buildLiveRun(3);
    std::vector<durable::WalFrame> frames = live.frames;
    frames.insert(frames.begin(),
                  {durable::RecordKind::Epoch, old_epoch, 0});
    online::RecoveryInfo info;
    online::replayRecoveredLog(asLog(frames), std::nullopt, {}, &info);
    EXPECT_FALSE(info.ok);
    EXPECT_EQ(info.error, expected_epoch);

    online::DurableServingState state = online::replayRecoveredLog(
        asLog(live.frames), online::DetectorConfig{}, {}, &info);
    ASSERT_TRUE(info.ok) << info.error;
    std::string old_snapshot =
        stampVersion(online::encodeSnapshotPayload(state), 1);
    online::DurableServingState out;
    err.clear();
    EXPECT_FALSE(online::decodeSnapshotPayload(old_snapshot, &out, &err));
    EXPECT_EQ(err, "unsupported snapshot format version 1 (this build "
                   "reads version 2)");

    durable::RecoveredLog log;
    log.hasSnapshot = true;
    log.snapshotPayload = old_snapshot;
    online::replayRecoveredLog(log, std::nullopt, {}, &info);
    EXPECT_FALSE(info.ok);
    EXPECT_EQ(info.error, "snapshot decode failed: " + err);
}

/**
 * The span-column defects a crafted or buggy data directory can hold
 * behind a valid CRC, patched into the encoded columns of
 * makeTrace(0) that start at byte `base` of `payload`.
 */
std::vector<std::pair<std::string, std::string>>
corruptColumns(const std::string &payload, size_t base, size_t vocab)
{
    const sleuth::testing::ColumnarOffsets at =
        sleuth::testing::columnarOffsets(makeTrace(0));
    const auto id = static_cast<uint32_t>(vocab);
    return {
        {"root index 10^6",
         patched(payload, base + at.root, int64_t{1'000'000})},
        {"span id at offset 2^30",
         patched(payload, base + at.spanIds, uint32_t{1} << 30)},
        {"service id past the interner",
         patched(payload, base + at.services, id)},
        {"kind past Local",
         patched(payload, base + at.kinds, uint8_t{0xff})},
        {"status past Error",
         patched(payload, base + at.statuses, uint8_t{3})},
    };
}

/** Write one committed poll of `frames` (after the epoch) to cfg.dir,
    then, if `snapshot` is set, rotate it into a snapshot. */
void
writeDataDir(const durable::DurableConfig &cfg,
             const std::vector<durable::WalFrame> &frames,
             const std::string *snapshot = nullptr)
{
    durable::DurableLog log(cfg);
    durable::RecoveredLog recovered = log.recover();
    std::string epoch =
        online::encodeEpochPayload(online::DetectorConfig{});
    std::string err;
    ASSERT_TRUE(log.openForAppend(recovered, epoch, &err)) << err;
    for (const durable::WalFrame &f : frames)
        ASSERT_TRUE(log.append(f.kind, f.payload));
    ASSERT_TRUE(log.commit());
    if (snapshot != nullptr) {
        ASSERT_TRUE(log.rotateWithSnapshot(*snapshot, epoch, &err))
            << err;
    }
}

TEST(DurableReplay, CorruptSpanBatchColumnsFailRecovery)
{
    // Each defect used to reach TraceStore::restoreRecord unchecked
    // and crash `sleuth wal --verify` or `sleuth infer --store`, or
    // abort on an interner lookup. Recovery must stop and name the
    // record instead.
    LiveRun live = buildLiveRun(1);
    size_t batch = 0;
    while (live.frames[batch].kind != durable::RecordKind::SpanBatch)
        ++batch;
    // The record's id, SLO and flow index precede its columns.
    const size_t columns_at = 3 * 8;
    for (const auto &[what, payload] :
         corruptColumns(live.frames[batch].payload, columns_at,
                        live.store.interner()->size())) {
        std::vector<durable::WalFrame> frames = live.frames;
        frames[batch].payload = payload;
        sleuth::testing::TempDir dir;
        ASSERT_FALSE(dir.path.empty());
        durable::DurableConfig cfg;
        cfg.dir = dir.path;
        writeDataDir(cfg, frames);
        online::RecoveryInfo info;
        online::recoverState(cfg, {}, &info);
        EXPECT_FALSE(info.ok) << what;
        EXPECT_EQ(info.error, "corrupt span batch record") << what;
    }
}

TEST(DurableReplay, CorruptSnapshotColumnsFailRecovery)
{
    // The snapshot's store fingerprint is checked only after its
    // records are restored, so the columns must be checked on decode.
    LiveRun live = buildLiveRun(1);
    online::RecoveryInfo info;
    online::DurableServingState state = online::replayRecoveredLog(
        asLog(live.frames), online::DetectorConfig{}, {}, &info);
    ASSERT_TRUE(info.ok) << info.error;
    std::string snapshot = online::encodeSnapshotPayload(state);
    // The one record's columns start at its length-prefixed trace id.
    size_t columns_at = snapshot.find("trace-0");
    ASSERT_NE(columns_at, std::string::npos);
    columns_at -= 4;
    for (const auto &[what, payload] :
         corruptColumns(snapshot, columns_at,
                        state.store.interner()->size())) {
        sleuth::testing::TempDir dir;
        ASSERT_FALSE(dir.path.empty());
        durable::DurableConfig cfg;
        cfg.dir = dir.path;
        writeDataDir(cfg, {}, &payload);
        online::recoverState(cfg, {}, &info);
        EXPECT_FALSE(info.ok) << what;
        EXPECT_EQ(info.error,
                  "snapshot decode failed: corrupt snapshot store section")
            << what;
    }
}

TEST(IncidentCodec, KindAndStatusPastTheirEnumsAreRefused)
{
    online::Incident incident;
    incident.anomalousTraces.push_back(makeTrace(0));
    util::BinaryWriter w;
    online::encodeIncident(w, incident);
    const std::string good = w.buffer();
    {
        util::BinaryReader r(good);
        online::Incident out;
        ASSERT_TRUE(online::decodeIncident(r, &out));
    }
    // The first span's kind byte follows its id, empty parent id,
    // service and name strings.
    const trace::Span &root = incident.anomalousTraces[0].spans[0];
    size_t kind_at = good.find(root.name);
    ASSERT_NE(kind_at, std::string::npos);
    kind_at += root.name.size();
    ASSERT_EQ(static_cast<uint8_t>(good[kind_at]),
              static_cast<uint8_t>(root.kind));
    const size_t status_at = kind_at + 1 + 2 * 8;
    ASSERT_EQ(static_cast<uint8_t>(good[status_at]),
              static_cast<uint8_t>(root.status));
    for (size_t at : {kind_at, status_at}) {
        const std::string bad = patched(good, at, uint8_t{9});
        util::BinaryReader r(bad);
        online::Incident out;
        EXPECT_FALSE(online::decodeIncident(r, &out)) << at;
    }
}

TEST(IncidentCodec, MinimumEncodedSizeMatchesDecodeBound)
{
    // kMinEncodedIncidentBytes bounds snapshot incident counts; it
    // must be exactly what an incident with every list empty encodes
    // to, or valid snapshots would be refused.
    util::BinaryWriter w;
    online::encodeIncident(w, online::Incident{});
    EXPECT_EQ(w.size(), online::kMinEncodedIncidentBytes);
}

TEST(IncidentCodec, HugeTraceCountIsRefusedWithoutAllocating)
{
    // Regression: a 65-byte incident payload whose anomalousTraces
    // count reads 0xFFFFFFFF used to resize() to four billion traces
    // before noticing the payload was short, aborting the process
    // with std::bad_alloc. The count is now checked against the bytes
    // that remain.
    online::Incident incident;
    incident.id = 7;
    incident.endpoints = {"api/"};
    util::BinaryWriter w;
    online::encodeIncident(w, incident);
    // id, state, opened/resolved, one 4-byte endpoint, window bounds
    // and snapshot id precede the anomalous-trace count at offset 61.
    std::string payload = w.buffer().substr(0, 65);
    ASSERT_EQ(payload.substr(61), std::string(4, '\0'));
    payload.replace(61, 4, std::string(4, '\xff'));
    ASSERT_EQ(payload.size(), 65u);

    util::BinaryReader r(payload);
    online::Incident out;
    EXPECT_FALSE(online::decodeIncident(r, &out));
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(out.anomalousTraces.capacity(), 0u);
}

TEST(BinaryReader, CountIsBoundedByRemainingBytes)
{
    util::BinaryWriter w;
    w.u32(3);
    for (int i = 0; i < 3; ++i)
        w.u64(static_cast<uint64_t>(i));
    util::BinaryReader fits(w.buffer());
    EXPECT_EQ(fits.count(8), 3u);
    EXPECT_TRUE(fits.ok());
    util::BinaryReader too_many(w.buffer());
    EXPECT_EQ(too_many.count(9), 0u);
    EXPECT_FALSE(too_many.ok());
    // The error is sticky: later reads return zero values.
    EXPECT_EQ(too_many.u64(), 0u);
}
