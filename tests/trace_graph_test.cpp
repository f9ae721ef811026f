// Unit tests for RPC dependency graph reconstruction and validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "test_helpers.h"
#include "trace/trace.h"

using namespace sleuth;
using sleuth::testing::figure2Trace;
using sleuth::testing::makeSpan;

TEST(TraceGraph, BuildsSimpleTree)
{
    trace::Trace t = figure2Trace();
    trace::TraceGraph g = trace::TraceGraph::build(t);
    EXPECT_EQ(g.size(), 3u);
    EXPECT_EQ(g.root(), 0);
    EXPECT_EQ(g.parent(0), -1);
    EXPECT_EQ(g.parent(1), 0);
    EXPECT_EQ(g.parent(2), 0);
    ASSERT_EQ(g.children(0).size(), 2u);
    EXPECT_TRUE(g.children(1).empty());
    EXPECT_EQ(g.depth(0), 1);
    EXPECT_EQ(g.depth(1), 2);
    EXPECT_EQ(g.maxDepth(), 2);
    EXPECT_EQ(g.maxOutDegree(), 2);
}

TEST(TraceGraph, BottomUpOrderPutsChildrenFirst)
{
    trace::Trace t;
    t.traceId = "chain";
    t.spans.push_back(makeSpan("r", "", "s0", "op", 0, 100));
    t.spans.push_back(makeSpan("m", "r", "s1", "op", 10, 90));
    t.spans.push_back(makeSpan("l", "m", "s2", "op", 20, 80));
    trace::TraceGraph g = trace::TraceGraph::build(t);
    const auto &order = g.bottomUpOrder();
    ASSERT_EQ(order.size(), 3u);
    std::vector<int> pos(3);
    for (int i = 0; i < 3; ++i)
        pos[static_cast<size_t>(order[static_cast<size_t>(i)])] = i;
    // Every child must appear before its parent.
    for (size_t i = 0; i < t.spans.size(); ++i) {
        int p = g.parent(static_cast<int>(i));
        if (p >= 0) {
            EXPECT_LT(pos[i], pos[static_cast<size_t>(p)]);
        }
    }
}

TEST(TraceGraph, RejectsEmptyTrace)
{
    trace::Trace t;
    trace::TraceGraph g;
    std::string err;
    EXPECT_FALSE(trace::TraceGraph::tryBuild(t, &g, &err));
    EXPECT_NE(err.find("no spans"), std::string::npos);
}

TEST(TraceGraph, RejectsMultipleRoots)
{
    trace::Trace t;
    t.spans.push_back(makeSpan("a", "", "s", "op", 0, 10));
    t.spans.push_back(makeSpan("b", "", "s", "op", 0, 10));
    trace::TraceGraph g;
    std::string err;
    EXPECT_FALSE(trace::TraceGraph::tryBuild(t, &g, &err));
    EXPECT_NE(err.find("multiple root"), std::string::npos);
}

TEST(TraceGraph, RejectsMissingRoot)
{
    trace::Trace t;
    t.spans.push_back(makeSpan("a", "b", "s", "op", 0, 10));
    t.spans.push_back(makeSpan("b", "a", "s", "op", 0, 10));
    trace::TraceGraph g;
    std::string err;
    EXPECT_FALSE(trace::TraceGraph::tryBuild(t, &g, &err));
    EXPECT_NE(err.find("no root"), std::string::npos);
}

TEST(TraceGraph, RejectsDanglingParent)
{
    trace::Trace t;
    t.spans.push_back(makeSpan("a", "", "s", "op", 0, 10));
    t.spans.push_back(makeSpan("b", "ghost", "s", "op", 0, 10));
    trace::TraceGraph g;
    std::string err;
    EXPECT_FALSE(trace::TraceGraph::tryBuild(t, &g, &err));
    EXPECT_NE(err.find("unresolved"), std::string::npos);
}

TEST(TraceGraph, RejectsDuplicateSpanIds)
{
    trace::Trace t;
    t.spans.push_back(makeSpan("a", "", "s", "op", 0, 10));
    t.spans.push_back(makeSpan("a", "a", "s", "op", 0, 10));
    trace::TraceGraph g;
    std::string err;
    EXPECT_FALSE(trace::TraceGraph::tryBuild(t, &g, &err));
    EXPECT_NE(err.find("duplicate"), std::string::npos);
}

TEST(TraceGraph, RejectsSelfParent)
{
    trace::Trace t;
    t.spans.push_back(makeSpan("r", "", "s", "op", 0, 10));
    t.spans.push_back(makeSpan("a", "a", "s", "op", 0, 10));
    trace::TraceGraph g;
    std::string err;
    EXPECT_FALSE(trace::TraceGraph::tryBuild(t, &g, &err));
    EXPECT_NE(err.find("own parent"), std::string::npos);
}

TEST(TraceGraph, RejectsCycleDisconnectedFromRoot)
{
    trace::Trace t;
    t.spans.push_back(makeSpan("r", "", "s", "op", 0, 10));
    t.spans.push_back(makeSpan("a", "b", "s", "op", 0, 10));
    t.spans.push_back(makeSpan("b", "a", "s", "op", 0, 10));
    trace::TraceGraph g;
    std::string err;
    EXPECT_FALSE(trace::TraceGraph::tryBuild(t, &g, &err));
    EXPECT_NE(err.find("unreachable"), std::string::npos);
}

TEST(TraceGraph, SingleSpanTrace)
{
    trace::Trace t;
    t.spans.push_back(makeSpan("only", "", "s", "op", 5, 25));
    trace::TraceGraph g = trace::TraceGraph::build(t);
    EXPECT_EQ(g.size(), 1u);
    EXPECT_EQ(g.root(), 0);
    EXPECT_EQ(g.maxDepth(), 1);
    EXPECT_EQ(g.maxOutDegree(), 0);
    EXPECT_EQ(t.rootDurationUs(), 20);
}

TEST(TraceGraph, WideFanOutListsChildrenInSpanOrder)
{
    // The root sits mid-trace and its 40 children precede and follow
    // it; s40..s48 hang one each under s0, s4, ..., s32, and s49..s58
    // all under s36.
    trace::Trace t;
    std::vector<int> root_kids;
    for (int i = 0; i < 60; ++i) {
        std::string id = "s" + std::to_string(i);
        if (i == 25) {
            t.spans.push_back(makeSpan(id, "", "s", "op", 0, 100));
        } else if (i < 40 || i == 59) {
            t.spans.push_back(makeSpan(id, "s25", "s", "op", 1, 99));
            root_kids.push_back(i);
        } else {
            int parent = std::min(4 * (i - 40), 36);
            t.spans.push_back(makeSpan(id, "s" + std::to_string(parent),
                                       "s", "op", 2, 98));
        }
    }
    trace::TraceGraph g = trace::TraceGraph::build(t);
    EXPECT_EQ(g.root(), 25);
    std::span<const int> kids = g.children(25);
    EXPECT_EQ(std::vector<int>(kids.begin(), kids.end()), root_kids);
    std::span<const int> under36 = g.children(36);
    EXPECT_EQ(std::vector<int>(under36.begin(), under36.end()),
              (std::vector<int>{49, 50, 51, 52, 53, 54, 55, 56, 57, 58}));
    EXPECT_EQ(g.children(4).size(), 1u);
    EXPECT_EQ(g.children(4)[0], 41);
    EXPECT_TRUE(g.children(59).empty());
    EXPECT_EQ(g.maxOutDegree(), static_cast<int>(root_kids.size()));
    EXPECT_EQ(g.maxDepth(), 3);
    EXPECT_EQ(g.depth(58), 3);
    EXPECT_EQ(g.parent(58), 36);
}

TEST(TraceGraph, RejectionMessagesAreExact)
{
    auto why = [](std::vector<trace::Span> spans) {
        trace::Trace t;
        t.spans = std::move(spans);
        trace::TraceGraph g;
        std::string err;
        EXPECT_FALSE(trace::TraceGraph::tryBuild(t, &g, &err));
        return err;
    };
    EXPECT_EQ(why({}), "trace has no spans");
    EXPECT_EQ(why({makeSpan("r", "", "s", "op", 0, 10),
                   makeSpan("", "r", "s", "op", 0, 10)}),
              "span with empty spanId");
    // Ids are checked before parents: the duplicate wins over the
    // second root that follows it.
    EXPECT_EQ(why({makeSpan("a", "", "s", "op", 0, 10),
                   makeSpan("a", "", "s", "op", 0, 10)}),
              "duplicate spanId 'a'");
    EXPECT_EQ(why({makeSpan("a", "", "s", "op", 0, 10),
                   makeSpan("b", "", "s", "op", 0, 10)}),
              "multiple root spans");
    EXPECT_EQ(why({makeSpan("a", "", "s", "op", 0, 10),
                   makeSpan("b", "ghost", "s", "op", 0, 10)}),
              "unresolved parentSpanId 'ghost'");
    EXPECT_EQ(why({makeSpan("r", "", "s", "op", 0, 10),
                   makeSpan("a", "a", "s", "op", 0, 10)}),
              "span 'a' is its own parent");
    EXPECT_EQ(why({makeSpan("a", "b", "s", "op", 0, 10),
                   makeSpan("b", "a", "s", "op", 0, 10)}),
              "no root span");
    EXPECT_EQ(why({makeSpan("r", "", "s", "op", 0, 10),
                   makeSpan("a", "b", "s", "op", 0, 10),
                   makeSpan("b", "a", "s", "op", 0, 10)}),
              "spans unreachable from the root (cycle or orphan)");
}

TEST(TraceStruct, HasErrorAndRootDuration)
{
    trace::Trace t = figure2Trace();
    EXPECT_FALSE(t.hasError());
    EXPECT_EQ(t.rootDurationUs(), 100);
    t.spans[2].status = trace::StatusCode::Error;
    EXPECT_TRUE(t.hasError());
}

TEST(TraceSummarize, ComputesCorpusShape)
{
    std::vector<trace::Trace> corpus = {figure2Trace(), figure2Trace()};
    trace::CorpusStats st = trace::summarize(corpus);
    EXPECT_EQ(st.services, 3u);
    EXPECT_EQ(st.operations, 3u);
    EXPECT_EQ(st.maxSpans, 3u);
    EXPECT_EQ(st.maxDepth, 2);
    EXPECT_EQ(st.maxOutDegree, 2);
}

TEST(SpanEnums, RoundTripStrings)
{
    using namespace sleuth::trace;
    for (SpanKind k : {SpanKind::Client, SpanKind::Server,
                       SpanKind::Producer, SpanKind::Consumer,
                       SpanKind::Local}) {
        SpanKind parsed = SpanKind::Local;
        EXPECT_TRUE(trySpanKindFromString(toString(k), &parsed));
        EXPECT_EQ(parsed, k);
    }
    for (StatusCode c :
         {StatusCode::Unset, StatusCode::Ok, StatusCode::Error}) {
        StatusCode parsed = StatusCode::Unset;
        EXPECT_TRUE(tryStatusCodeFromString(toString(c), &parsed));
        EXPECT_EQ(parsed, c);
    }
    // Unknown strings are refused; "SERVER" is Zipkin's spelling.
    SpanKind kind = SpanKind::Client;
    EXPECT_FALSE(trySpanKindFromString("SERVER", &kind));
    EXPECT_EQ(kind, SpanKind::Client);
    StatusCode status = StatusCode::Ok;
    EXPECT_FALSE(tryStatusCodeFromString("failed", &status));
    EXPECT_EQ(status, StatusCode::Ok);
}
