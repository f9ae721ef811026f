#pragma once

/**
 * @file
 * Embedded trace storage engine (paper §4).
 *
 * The production system stores terabytes of traces in a distributed
 * engine and offloads feature engineering to SQL-like parallel queries
 * with user-defined operators. This embedded equivalent provides the
 * same interface shape at library scale: indexed predicate queries
 * over stored traces plus a typed operator pipeline (filter / map /
 * group / aggregate) that the feature-engineering code runs close to
 * the data.
 *
 * Records are held columnar (trace::ColumnarTrace, DESIGN.md §3.12):
 * the store owns one StringInterner shared by every record, span
 * vocabulary fields are u32 ids, and the legacy row-oriented
 * trace::Trace is materialized on demand via Record::trace().
 */

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "trace/columnar.h"
#include "trace/trace.h"
#include "util/binary.h"

namespace sleuth::storage {

/** One stored trace with its workload metadata. */
struct Record
{
    trace::ColumnarTrace columns;
    /** Latency SLO the trace is held against (0 = unknown). */
    int64_t sloUs = 0;
    /** Operation flow that produced the trace (-1 = unknown). */
    int flowIndex = -1;
    /** Store-assigned id (monotonic admission order; set by insert). */
    size_t id = 0;
    /**
     * util::fnv1a of the trace id, computed once by insert(). The
     * online incident snapshot's deterministic bottom-k-by-hash
     * normal sample sorts on it — cached here so the sample sort
     * never re-hashes a record per comparison.
     */
    uint64_t traceIdHash = 0;

    /** Trace id without materializing. */
    const std::string &traceId() const { return columns.traceId(); }

    /** Span count without materializing. */
    size_t spanCount() const { return columns.spanCount(); }

    /** Materialize the legacy row-oriented trace (exact round trip). */
    trace::Trace trace() const { return columns.toTrace(); }

    /** Root span start timestamp (used by the time index). */
    int64_t startUs() const { return columns.rootStartUs(); }

    /** True when the trace breaches its SLO or errors at the root. */
    bool anomalous() const
    {
        if (sloUs > 0 && columns.rootDurationUs() > sloUs)
            return true;
        return columns.rootError();
    }
};

/** Declarative filter for TraceStore::query(). */
struct Query
{
    /** Half-open time window on root start (us); unset = unbounded. */
    std::optional<int64_t> minStartUs;
    std::optional<int64_t> maxStartUs;
    /** Only traces touching this service. */
    std::optional<std::string> service;
    /** Only traces produced by this operation flow. */
    std::optional<int> flowIndex;
    /** Only SLO-violating / erroring traces. */
    bool onlyAnomalous = false;
    /** Cap on the number of results (0 = unlimited). */
    size_t limit = 0;
};

/**
 * Retention policy bounding the store's memory. 0 disables a bound.
 * Enforced on insert: the oldest records (by root start time, then by
 * id) are evicted until the store fits the budget again; the record
 * being inserted is never evicted, so a single oversized trace is
 * admitted rather than thrashing.
 */
struct RetentionConfig
{
    /** Total span budget across all stored records. */
    size_t maxSpans = 0;
    /** Record-count budget. */
    size_t maxRecords = 0;
};

/** A typed, chainable in-memory operator pipeline. */
template <typename T>
class Dataset
{
  public:
    Dataset() = default;
    explicit Dataset(std::vector<T> items) : items_(std::move(items)) {}

    /** Keep items satisfying the predicate. */
    Dataset<T>
    filter(const std::function<bool(const T &)> &pred) const
    {
        std::vector<T> out;
        for (const T &x : items_)
            if (pred(x))
                out.push_back(x);
        return Dataset<T>(std::move(out));
    }

    /** Transform every item. */
    template <typename U>
    Dataset<U>
    map(const std::function<U(const T &)> &fn) const
    {
        std::vector<U> out;
        out.reserve(items_.size());
        for (const T &x : items_)
            out.push_back(fn(x));
        return Dataset<U>(std::move(out));
    }

    /** Group items under a key. */
    template <typename K>
    std::map<K, std::vector<T>>
    groupBy(const std::function<K(const T &)> &key) const
    {
        std::map<K, std::vector<T>> out;
        for (const T &x : items_)
            out[key(x)].push_back(x);
        return out;
    }

    /** Left fold. */
    template <typename A>
    A
    aggregate(A init, const std::function<A(A, const T &)> &fn) const
    {
        A acc = std::move(init);
        for (const T &x : items_)
            acc = fn(std::move(acc), x);
        return acc;
    }

    /** Materialized items. */
    const std::vector<T> &items() const { return items_; }

    /** Item count. */
    size_t size() const { return items_.size(); }

  private:
    std::vector<T> items_;
};

/** Cumulative eviction counters of a TraceStore. */
struct EvictionStats
{
    size_t records = 0;
    size_t spans = 0;
};

/** The embedded trace store. */
class TraceStore
{
  public:
    TraceStore();

    /** Construct with a retention policy active from the start. */
    explicit TraceStore(RetentionConfig retention);

    /** Install or replace the retention policy (applies immediately). */
    void setRetention(RetentionConfig retention);

    /**
     * Encode a trace into the store's columnar layout and insert it;
     * returns the record id (ids are never reused).
     */
    size_t insert(trace::Trace t, int64_t sloUs = 0,
                  int flowIndex = -1);

    /**
     * Re-admit a record under its original id during durable-log
     * replay (DESIGN.md §3.15). The columns must already be bound to
     * this store's interner. Retention is NOT enforced: replay honors
     * the retention the live run actually performed by applying the
     * logged Eviction records through evictById() instead, which is
     * what makes recovered state exact rather than re-derived.
     */
    void restoreRecord(trace::ColumnarTrace columns, int64_t sloUs,
                       int flowIndex, size_t id);

    /**
     * Evict one live record by id (durable-log eviction replay).
     * Updates every index and the cumulative eviction counters exactly
     * as live retention enforcement does.
     */
    void evictById(size_t id);

    /**
     * When enabled, every eviction's record id is also appended to an
     * internal journal drained by takeRecentEvictions() — the hook the
     * serving layer uses to emit one summarized WAL record per poll.
     */
    void trackEvictions(bool enabled) { track_evictions_ = enabled; }

    /** Drain the eviction journal (ids in eviction order). */
    std::vector<size_t> takeRecentEvictions();

    /** Number of live (non-evicted) records. */
    size_t size() const { return records_.size(); }

    /** True when the id names a live record. */
    bool contains(size_t id) const { return records_.count(id) > 0; }

    /** Record access by id; the id must be live. */
    const Record &at(size_t id) const;

    /**
     * Declarative query over the time index; results ordered by
     * (start time, id). A service filter tests each record in the
     * window (ColumnarTrace::touchesService).
     */
    std::vector<const Record *> query(const Query &q) const;

    /** Full-scan operator pipeline over record pointers. */
    Dataset<const Record *> scan() const;

    /** Total spans stored (capacity accounting). */
    size_t totalSpans() const { return total_spans_; }

    /** Cumulative eviction counters. */
    const EvictionStats &evictions() const { return evictions_; }

    /** The vocabulary interner shared by every stored record. */
    const std::shared_ptr<trace::StringInterner> &interner() const
    {
        return interner_;
    }

    /**
     * Estimated resident bytes: columnar records + interner + the
     * time index. Benchmarks divide by totalSpans() to report
     * memory_bytes_per_span.
     */
    size_t memoryBytes() const;

    /**
     * Serialize the full store state (DESIGN.md §3.15): id allocator,
     * eviction counters, the complete interner vocabulary in id order,
     * and every record's columns in id order. decodeState() on an
     * empty store is an exact inverse; the retention policy is not
     * part of the state (the owner re-applies its configuration).
     */
    void encodeState(util::BinaryWriter &w) const;

    /** Inverse of encodeState() into an empty store; false on short
        or inconsistent input. */
    bool decodeState(util::BinaryReader &r);

    /**
     * Exact content fingerprint: util::fnv1a over the encodeState()
     * byte image. Covers record ids, columns, vocabulary, the id
     * allocator, and eviction counters — two stores fingerprint equal
     * iff a recovery reproduced the live store bitwise.
     */
    uint64_t contentFingerprint() const;

  private:
    /** Evict oldest records until the retention budget fits. */
    void enforceRetention(size_t protected_id);

    /**
     * The one index: (startUs, record), kept sorted. The records are
     * nodes of records_, which never move, so a hit reads its record
     * without a records_ lookup. Equal start times keep insertion
     * order, which is id order (inserts allocate ascending ids and
     * recovery restores records in id order).
     */
    using TimeIndex = std::multimap<int64_t, const Record *>;

    /** Evict the record at this time-index position. */
    void evictOne(TimeIndex::iterator pos);

    /** Index + admit a fully-formed record (shared insert/restore). */
    void admitRecord(Record record);

    /** id -> record; a map so eviction can erase without moving ids. */
    std::map<size_t, Record> records_;
    TimeIndex by_start_;
    std::shared_ptr<trace::StringInterner> interner_;
    size_t total_spans_ = 0;
    size_t next_id_ = 0;
    RetentionConfig retention_;
    EvictionStats evictions_;
    /** Eviction journal for the durable layer (see trackEvictions). */
    bool track_evictions_ = false;
    std::vector<size_t> recent_evictions_;
};

} // namespace sleuth::storage
