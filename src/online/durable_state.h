#pragma once

/**
 * @file
 * Durable serving state: what the online layer persists, how each WAL
 * record kind is encoded, and the replay engine that rebuilds exact
 * serving state from a data directory (DESIGN.md §3.15).
 *
 * The unit of durability is the poll. During a poll the service stages
 * one commit group: an InternerDelta (vocabulary strings interned
 * since the last commit, in id order), one SpanBatch (every record
 * admitted this poll, captured at insert time so a record evicted
 * later in the same poll still replays), one Eviction summary (the
 * ids retention evicted this poll, in eviction order), one
 * IncidentUpdate per changed incident (the full incident, verbatim),
 * and finally a PollMarker sealing the group with the watermark, the
 * record high-water mark, and cheap state-shape sanity counters. The
 * group fsync (fsync-policy=group) lands on the marker.
 *
 * Replay is poll-atomic and model-free. Frames are buffered until a
 * PollMarker arrives, then applied as one transaction: deltas are
 * re-interned (ids must come out identical — that is what keeps the
 * raw u32 column encodings valid), span batches are restored under
 * their original ids with NO retention enforcement, logged evictions
 * are re-applied (replay honors maxSpans/maxRecords identically to
 * the live run because it replays the live run's decisions, not the
 * policy), incidents are restored verbatim (the RCA is never re-run,
 * so no model needs to be loaded), and the detector re-observes each
 * restored trace — every Observation field is derivable from the
 * stored record. A torn tail therefore costs at most the last
 * uncommitted poll; recovery always lands exactly on a committed poll
 * boundary. The volatile ingest front (rings, assemblers) is not
 * persisted: upstream delivery is at-least-once and spans in flight at
 * the crash are redelivered or counted as losses by the source.
 */

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "durable/durable_log.h"
#include "online/detector.h"
#include "online/incident.h"
#include "storage/trace_store.h"
#include "util/binary.h"

namespace sleuth::online {

/** Replay knobs (test hooks; defaults are the real protocol). */
struct RecoverOptions
{
    /**
     * Skip applying Eviction records (campaign expect-fail mutation
     * `skip-eviction-replay`): replayed retention then diverges from
     * the live run and the crash-recovery invariant must catch it.
     */
    bool skipEvictionReplay = false;
};

/** What a recovery did (for operators, tests, and the campaign). */
struct RecoveryInfo
{
    /** A snapshot or at least one WAL frame was found. */
    bool haveData = false;
    /** State was seeded from a snapshot file. */
    bool usedSnapshot = false;
    /** Index of the snapshot used (when usedSnapshot). */
    uint64_t snapshotIndex = 0;
    /** WAL frames applied (committed polls only). */
    uint64_t framesReplayed = 0;
    /** Committed polls applied. */
    uint64_t pollsReplayed = 0;
    /** Trailing frames discarded for lack of a sealing PollMarker. */
    uint64_t discardedTailFrames = 0;
    /** Segments whose tail was torn/corrupt and truncated. */
    uint64_t tornSegments = 0;
    /** Corrupt snapshots passed over. */
    uint64_t snapshotsSkipped = 0;
    /** False when replay stopped on an inconsistency (error says). */
    bool ok = true;
    std::string error;
};

/** The exact state the durable layer checkpoints and rebuilds. */
struct DurableServingState
{
    storage::TraceStore store;
    /** Detection config the log was written under (epoch/snapshot). */
    DetectorConfig detectorConfig;
    StormDetector detector{DetectorConfig{}};
    std::vector<Incident> incidents;
    int64_t watermarkUs = std::numeric_limits<int64_t>::min();
    size_t tracesStored = 0;
    size_t lastRecordId = 0;
};

/** PollMarker payload: the commit seal plus state-shape sanity. */
struct PollMarkerPayload
{
    int64_t watermarkUs = 0;
    uint64_t lastRecordId = 0;
    uint64_t tracesStored = 0;
    /** Sanity counters checked after applying the poll. */
    uint64_t storeRecords = 0;
    uint64_t storeSpans = 0;
    uint64_t internerSize = 0;
    /**
     * Watermarks the detector advanced at since the last commit, in
     * order. The storm hysteresis makes the flags a function of the
     * whole advance sequence, not just the final watermark — a single
     * commit group can span several advances (drainAll), so replay
     * must re-run each one after restoring the group's records.
     */
    std::vector<int64_t> advanceWatermarks;
};

/** Epoch payload: format version + the detection configuration a
    config-free reader (CLI compact) needs to replay the log. Decoding
    returns false + *err on a version mismatch (naming both versions)
    or a corrupt record. */
std::string encodeEpochPayload(const DetectorConfig &config);
bool decodeEpochPayload(std::string_view payload, DetectorConfig *config,
                        std::string *err);

/** InternerDelta payload: first id + the new strings in id order. */
std::string
encodeInternerDeltaPayload(uint32_t firstId,
                           const std::vector<std::string> &names);

/** Eviction payload: evicted record ids in eviction order. */
std::string encodeEvictionPayload(const std::vector<size_t> &ids);

/** IncidentUpdate payload: incident index + the full incident. */
std::string encodeIncidentUpdatePayload(size_t index,
                                        const Incident &incident);

/** PollMarker payload. */
std::string encodePollMarkerPayload(const PollMarkerPayload &marker);

/** Append one record to a SpanBatch payload under construction (the
    service captures each record at insert time; see file comment). */
void appendSpanBatchRecord(util::BinaryWriter &w,
                           const storage::Record &record);

/** Serialize the full serving state as a snapshot payload (includes
    the store content fingerprint, verified on decode). */
std::string encodeSnapshotPayload(const DurableServingState &state);

/** Component-wise variant for the live service (no state copy). */
std::string
encodeSnapshotPayload(const storage::TraceStore &store,
                      const DetectorConfig &detectorConfig,
                      const StormDetector &detector,
                      const std::vector<Incident> &incidents,
                      int64_t watermarkUs, size_t tracesStored,
                      size_t lastRecordId);

/**
 * Exact fingerprint of the full serving state — store, detector rings,
 * incidents, watermark, counters — via the durable byte image, minus
 * the one wall-clock field (Incident::rcaMillis, excluded so recovered
 * state can compare across processes). The crash-recovery campaign
 * invariant requires a recovered service to fingerprint equal to the
 * uninterrupted run.
 */
uint64_t
servingStateFingerprint(const storage::TraceStore &store,
                        const StormDetector &detector,
                        const std::vector<Incident> &incidents,
                        int64_t watermarkUs, size_t tracesStored,
                        size_t lastRecordId);

/** Inverse of encodeSnapshotPayload(); false + *err on corruption or
    fingerprint mismatch. */
bool decodeSnapshotPayload(std::string_view payload,
                           DurableServingState *state,
                           std::string *err);

/**
 * Rebuild serving state from a scanned log: seed from the snapshot
 * when present, then apply committed polls in order (poll-atomic; the
 * unsealed tail is discarded). `detectorConfig` overrides the logged
 * configuration when provided (the service passes its own; the CLI
 * passes nullopt to run config-free from the epoch records).
 */
DurableServingState
replayRecoveredLog(const durable::RecoveredLog &log,
                   const std::optional<DetectorConfig> &detectorConfig,
                   const RecoverOptions &opts, RecoveryInfo *info);

/** One-call recovery for tools: scan `cfg.dir` and replay. */
DurableServingState recoverState(const durable::DurableConfig &cfg,
                                 const RecoverOptions &opts,
                                 RecoveryInfo *info);

} // namespace sleuth::online
