// Unit tests for the embedded trace store and operator pipeline.

#include <gtest/gtest.h>

#include "storage/trace_store.h"
#include "test_helpers.h"

using namespace sleuth;
using namespace sleuth::storage;
using sleuth::testing::makeSpan;

namespace {

trace::Trace
makeTrace(const std::string &id, int64_t start, int64_t dur,
          const std::string &svc, bool error = false)
{
    trace::Trace t;
    t.traceId = id;
    t.spans.push_back(makeSpan(
        "root", "", svc, "op", start, start + dur,
        trace::SpanKind::Server,
        error ? trace::StatusCode::Error : trace::StatusCode::Ok));
    return t;
}

Record
record(const std::string &id, int64_t start, int64_t dur,
      const std::string &svc, int64_t slo = 0, bool error = false)
{
    Record r;
    r.columns = trace::ColumnarTrace(
        makeTrace(id, start, dur, svc, error),
        std::make_shared<trace::StringInterner>());
    r.sloUs = slo;
    return r;
}

} // namespace

TEST(Record, StartAndAnomalyFlags)
{
    Record normal = record("a", 100, 50, "svc", 1000);
    EXPECT_EQ(normal.startUs(), 100);
    EXPECT_FALSE(normal.anomalous());

    Record slow = record("b", 0, 5000, "svc", 1000);
    EXPECT_TRUE(slow.anomalous());

    Record err = record("c", 0, 10, "svc", 1000, true);
    EXPECT_TRUE(err.anomalous());

    Record no_slo = record("d", 0, 5000, "svc", 0);
    EXPECT_FALSE(no_slo.anomalous());
}

TEST(Record, MaterializedTraceRoundTripsExactly)
{
    trace::Trace original = makeTrace("rt", 5, 95, "svc-x", true);
    original.spans.push_back(makeSpan("child", "root", "svc-y", "op2",
                                      10, 40, trace::SpanKind::Client,
                                      trace::StatusCode::Ok));
    Record r;
    r.columns = trace::ColumnarTrace(
        original, std::make_shared<trace::StringInterner>());
    trace::Trace back = r.trace();
    ASSERT_EQ(back.spans.size(), original.spans.size());
    EXPECT_EQ(back.traceId, original.traceId);
    for (size_t i = 0; i < back.spans.size(); ++i) {
        EXPECT_EQ(back.spans[i].spanId, original.spans[i].spanId);
        EXPECT_EQ(back.spans[i].parentSpanId,
                  original.spans[i].parentSpanId);
        EXPECT_EQ(back.spans[i].service, original.spans[i].service);
        EXPECT_EQ(back.spans[i].name, original.spans[i].name);
        EXPECT_EQ(back.spans[i].kind, original.spans[i].kind);
        EXPECT_EQ(back.spans[i].status, original.spans[i].status);
        EXPECT_EQ(back.spans[i].startUs, original.spans[i].startUs);
        EXPECT_EQ(back.spans[i].endUs, original.spans[i].endUs);
    }
}

TEST(TraceStore, InsertAndAccess)
{
    TraceStore store;
    size_t id = store.insert(makeTrace("a", 0, 10, "svc"));
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.at(id).traceId(), "a");
    EXPECT_EQ(store.totalSpans(), 1u);
}

TEST(TraceStore, TimeWindowQuery)
{
    TraceStore store;
    for (int64_t t = 0; t < 10; ++t)
        store.insert(makeTrace("t" + std::to_string(t), t * 100, 10,
                               "svc"));
    Query q;
    q.minStartUs = 300;
    q.maxStartUs = 600;
    auto hits = store.query(q);
    ASSERT_EQ(hits.size(), 3u);
    EXPECT_EQ(hits[0]->traceId(), "t3");
    EXPECT_EQ(hits[2]->traceId(), "t5");
}

TEST(TraceStore, TimeWindowIsHalfOpenAtExactBoundaries)
{
    // Pins the [minStartUs, maxStartUs) contract with records sitting
    // exactly on both boundaries, with and without a service filter.
    TraceStore store;
    store.insert(makeTrace("before", 100, 10, "svc"));
    store.insert(makeTrace("at-min", 200, 10, "svc"));
    store.insert(makeTrace("inside", 300, 10, "svc"));
    store.insert(makeTrace("at-max", 400, 10, "svc"));
    store.insert(makeTrace("after", 500, 10, "svc"));

    Query q;
    q.minStartUs = 200;
    q.maxStartUs = 400;
    auto hits = store.query(q);
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_EQ(hits[0]->traceId(), "at-min");  // min boundary included
    EXPECT_EQ(hits[1]->traceId(), "inside");  // max boundary excluded

    q.service = "svc";  // same window, filtered by service
    hits = store.query(q);
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_EQ(hits[0]->traceId(), "at-min");
    EXPECT_EQ(hits[1]->traceId(), "inside");

    // An empty half-open window selects nothing, even with a record
    // exactly at the shared boundary.
    Query empty;
    empty.minStartUs = 300;
    empty.maxStartUs = 300;
    EXPECT_TRUE(store.query(empty).empty());

    // A one-tick window selects exactly the boundary record.
    Query tick;
    tick.minStartUs = 300;
    tick.maxStartUs = 301;
    auto one = store.query(tick);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0]->traceId(), "inside");

    // An inverted window selects nothing either.
    Query inverted;
    inverted.minStartUs = 400;
    inverted.maxStartUs = 200;
    EXPECT_TRUE(store.query(inverted).empty());
    inverted.service = "svc";
    EXPECT_TRUE(store.query(inverted).empty());

    // Only one bound set: each side stays half-open independently.
    Query minOnly;
    minOnly.minStartUs = 400;
    ASSERT_EQ(store.query(minOnly).size(), 2u);
    Query maxOnly;
    maxOnly.maxStartUs = 200;
    ASSERT_EQ(store.query(maxOnly).size(), 1u);
    EXPECT_EQ(store.query(maxOnly)[0]->traceId(), "before");
}

TEST(TraceStore, ServiceQueryFiltersTimeIndex)
{
    TraceStore store;
    store.insert(makeTrace("a", 0, 10, "alpha"));
    store.insert(makeTrace("b", 10, 10, "beta"));
    store.insert(makeTrace("c", 20, 10, "alpha"));
    Query q;
    q.service = "alpha";
    auto hits = store.query(q);
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_EQ(hits[0]->traceId(), "a");
    EXPECT_EQ(hits[1]->traceId(), "c");

    q.service = "missing";
    EXPECT_TRUE(store.query(q).empty());
}

TEST(TraceStore, EqualStartTimesComeBackInIdOrder)
{
    // Records sharing a start time come back in id order, with and
    // without a service filter, and again from a store recovered from
    // the first one's state.
    TraceStore store;
    store.insert(makeTrace("late", 90, 10, "alpha"));
    store.insert(makeTrace("tie0", 50, 10, "alpha"));
    store.insert(makeTrace("tie1", 50, 30, "beta"));
    store.insert(makeTrace("tie2", 50, 20, "alpha"));
    store.insert(makeTrace("early", 10, 10, "alpha"));
    store.insert(makeTrace("tie3", 50, 10, "alpha"));

    auto ids = [](const std::vector<const Record *> &hits) {
        std::vector<std::string> out;
        for (const Record *r : hits)
            out.push_back(r->traceId());
        return out;
    };
    util::BinaryWriter w;
    store.encodeState(w);
    TraceStore recovered;
    util::BinaryReader r(w.buffer());
    ASSERT_TRUE(recovered.decodeState(r));
    for (const TraceStore *s : {&store, &recovered}) {
        EXPECT_EQ(ids(s->query(Query{})),
                  (std::vector<std::string>{"early", "tie0", "tie1",
                                            "tie2", "tie3", "late"}));
        Query alpha;
        alpha.service = "alpha";
        EXPECT_EQ(ids(s->query(alpha)),
                  (std::vector<std::string>{"early", "tie0", "tie2",
                                            "tie3", "late"}));
        alpha.minStartUs = 50;
        alpha.maxStartUs = 51;
        EXPECT_EQ(ids(s->query(alpha)),
                  (std::vector<std::string>{"tie0", "tie2", "tie3"}));
    }
}

TEST(TraceStore, AnomalousFilterAndLimit)
{
    TraceStore store;
    store.insert(makeTrace("ok1", 0, 100, "svc"), 1000);
    store.insert(makeTrace("bad1", 10, 5000, "svc"), 1000);
    store.insert(makeTrace("ok2", 20, 100, "svc"), 1000);
    store.insert(makeTrace("bad2", 30, 9000, "svc"), 1000);
    Query q;
    q.onlyAnomalous = true;
    auto hits = store.query(q);
    ASSERT_EQ(hits.size(), 2u);
    q.limit = 1;
    EXPECT_EQ(store.query(q).size(), 1u);
}

TEST(Dataset, FilterMapGroupAggregate)
{
    TraceStore store;
    store.insert(makeTrace("a", 0, 100, "alpha"));
    store.insert(makeTrace("b", 10, 200, "beta"));
    store.insert(makeTrace("c", 20, 300, "alpha"));

    auto slow = store.scan().filter(
        [](const Record *const &r) {
            return r->columns.rootDurationUs() >= 200;
        });
    EXPECT_EQ(slow.size(), 2u);

    auto durations = slow.map<int64_t>(
        [](const Record *const &r) {
            return r->columns.rootDurationUs();
        });
    int64_t total = durations.aggregate<int64_t>(
        0, [](int64_t acc, const int64_t &d) { return acc + d; });
    EXPECT_EQ(total, 500);

    auto by_service = store.scan().groupBy<std::string>(
        [](const Record *const &r) {
            return r->columns.interner().name(
                r->columns.columns().serviceId(0));
        });
    EXPECT_EQ(by_service.size(), 2u);
    EXPECT_EQ(by_service["alpha"].size(), 2u);
}

TEST(TraceStore, FlowIndexFilter)
{
    TraceStore store;
    store.insert(makeTrace("a", 0, 10, "svc"), 0, /*flowIndex=*/0);
    store.insert(makeTrace("b", 10, 10, "svc"), 0, /*flowIndex=*/1);
    store.insert(makeTrace("c", 20, 10, "svc"), 0, /*flowIndex=*/1);

    Query q;
    q.flowIndex = 1;
    auto hits = store.query(q);
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_EQ(hits[0]->traceId(), "b");
    EXPECT_EQ(hits[1]->traceId(), "c");

    q.flowIndex = 9;
    EXPECT_TRUE(store.query(q).empty());
}

// Regression: combined time-window + service + limit must return the
// FIRST matching records in start-time order (the limit applies after
// all predicates, not to the raw index scan).
TEST(TraceStore, CombinedWindowServiceLimitOrdering)
{
    TraceStore store;
    store.insert(makeTrace("early-other", 0, 10, "other"));
    store.insert(makeTrace("m1", 10, 10, "match"));
    store.insert(makeTrace("m2", 20, 10, "match"));
    store.insert(makeTrace("late-match", 500, 10, "match"));
    store.insert(makeTrace("m3", 30, 10, "match"));

    Query q;
    q.minStartUs = 5;
    q.maxStartUs = 100;
    q.service = "match";
    q.limit = 2;
    auto hits = store.query(q);
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_EQ(hits[0]->traceId(), "m1");
    EXPECT_EQ(hits[1]->traceId(), "m2");

    // Same query unlimited: ordering is by start time throughout.
    q.limit = 0;
    hits = store.query(q);
    ASSERT_EQ(hits.size(), 3u);
    EXPECT_EQ(hits[2]->traceId(), "m3");
}

TEST(TraceStore, RetentionEvictsOldestBySpanBudget)
{
    TraceStore store(RetentionConfig{/*maxSpans=*/3, /*maxRecords=*/0});
    store.insert(makeTrace("a", 0, 10, "svc"));
    store.insert(makeTrace("b", 10, 10, "svc"));
    store.insert(makeTrace("c", 20, 10, "svc"));
    EXPECT_EQ(store.size(), 3u);
    // A fourth single-span record exceeds the budget: "a" goes.
    store.insert(makeTrace("d", 30, 10, "svc"));
    EXPECT_EQ(store.size(), 3u);
    EXPECT_EQ(store.totalSpans(), 3u);
    EXPECT_FALSE(store.contains(0));
    EXPECT_TRUE(store.contains(3));
    EXPECT_EQ(store.evictions().records, 1u);
    EXPECT_EQ(store.evictions().spans, 1u);
    // Eviction cleans the indexes: queries no longer see "a".
    Query q;
    auto hits = store.query(q);
    ASSERT_EQ(hits.size(), 3u);
    EXPECT_EQ(hits[0]->traceId(), "b");
    Query by_service;
    by_service.service = "svc";
    EXPECT_EQ(store.query(by_service).size(), 3u);
}

TEST(TraceStore, RetentionByRecordCountAndNewestProtected)
{
    TraceStore store;
    store.insert(makeTrace("a", 0, 10, "svc"));
    store.insert(makeTrace("b", 10, 10, "svc"));
    store.insert(makeTrace("c", 20, 10, "svc"));
    // Installing a policy applies it immediately.
    store.setRetention(RetentionConfig{0, /*maxRecords=*/2});
    EXPECT_EQ(store.size(), 2u);
    EXPECT_FALSE(store.contains(0));

    // Even a budget of one record admits the record being inserted.
    store.setRetention(RetentionConfig{0, 1});
    size_t id = store.insert(makeTrace("huge", 100, 10, "svc"));
    EXPECT_EQ(store.size(), 1u);
    EXPECT_TRUE(store.contains(id));
    EXPECT_EQ(store.at(id).traceId(), "huge");
}

TEST(TraceStore, IdsStableAcrossEviction)
{
    TraceStore store(RetentionConfig{0, 2});
    size_t a = store.insert(makeTrace("a", 0, 10, "svc"));
    size_t b = store.insert(makeTrace("b", 10, 10, "svc"));
    size_t c = store.insert(makeTrace("c", 20, 10, "svc"));
    EXPECT_FALSE(store.contains(a));
    // Surviving ids keep addressing the same records; ids never reuse.
    EXPECT_EQ(store.at(b).traceId(), "b");
    EXPECT_EQ(store.at(c).traceId(), "c");
    size_t d = store.insert(makeTrace("d", 30, 10, "svc"));
    EXPECT_EQ(d, 3u);
}
