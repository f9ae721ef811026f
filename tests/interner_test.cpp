// StringInterner: id stability, density, and concurrent access.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "trace/interner.h"

using sleuth::trace::StringInterner;

TEST(StringInterner, IdsAreDenseAndFirstInternOrdered)
{
    StringInterner in;
    EXPECT_EQ(in.intern("alpha"), 0u);
    EXPECT_EQ(in.intern("beta"), 1u);
    EXPECT_EQ(in.intern("gamma"), 2u);
    // Re-interning returns the original id, never a new one.
    EXPECT_EQ(in.intern("beta"), 1u);
    EXPECT_EQ(in.intern("alpha"), 0u);
    EXPECT_EQ(in.size(), 3u);
    EXPECT_EQ(in.name(0), "alpha");
    EXPECT_EQ(in.name(1), "beta");
    EXPECT_EQ(in.name(2), "gamma");
}

TEST(StringInterner, FindDoesNotIntern)
{
    StringInterner in;
    in.intern("present");
    EXPECT_FALSE(in.find("absent").has_value());
    EXPECT_EQ(in.size(), 1u);
    auto id = in.find("present");
    ASSERT_TRUE(id.has_value());
    EXPECT_EQ(*id, 0u);
}

TEST(StringInterner, EmptyStringIsAValidEntry)
{
    StringInterner in;
    uint32_t id = in.intern("");
    EXPECT_EQ(in.name(id), "");
    EXPECT_EQ(in.intern(""), id);
}

TEST(StringInterner, NameReferencesStayStableAcrossGrowth)
{
    // Interned name() references must survive arbitrary later growth
    // (the columnar store hands out string_views of them).
    StringInterner in;
    const std::string &first = in.name(in.intern("first-service"));
    const char *data = first.data();
    for (int i = 0; i < 10000; ++i)
        in.intern("svc-" + std::to_string(i));
    EXPECT_EQ(first, "first-service");
    EXPECT_EQ(first.data(), data);
}

TEST(StringInterner, MemoryBytesGrowsWithContent)
{
    StringInterner in;
    size_t empty = in.memoryBytes();
    for (int i = 0; i < 100; ++i)
        in.intern("service-name-" + std::to_string(i));
    EXPECT_GT(in.memoryBytes(), empty);
}

TEST(StringInterner, InternAllGivesTheIdsOfSequentialInterns)
{
    // Batches with new strings mid-batch, repeats within one batch,
    // the empty string, an all-known batch and an empty one.
    const std::vector<std::vector<std::string>> batches = {
        {"alpha", "beta"},
        {"alpha", "gamma", "beta", "gamma", "", "delta", ""},
        {"", "delta", "alpha", "delta"},
        {},
        {"beta", "epsilon", "alpha", "zeta", "epsilon"},
    };
    StringInterner batched;
    StringInterner sequential;
    for (const std::vector<std::string> &b : batches) {
        std::vector<std::string_view> views(b.begin(), b.end());
        std::vector<uint32_t> ids(b.size());
        batched.internAll(views, ids);
        for (size_t i = 0; i < b.size(); ++i)
            EXPECT_EQ(ids[i], sequential.intern(b[i])) << b[i];
        EXPECT_EQ(batched.size(), sequential.size());
    }
    EXPECT_EQ(batched.namesFrom(0), sequential.namesFrom(0));

    // An all-known batch adds nothing.
    const size_t vocab = batched.size();
    std::vector<std::string_view> known = {"zeta", "", "alpha"};
    std::vector<uint32_t> ids(known.size());
    batched.internAll(known, ids);
    EXPECT_EQ(batched.size(), vocab);
    EXPECT_EQ(ids, (std::vector<uint32_t>{6, 3, 0}));
}

TEST(StringInterner, ResolveAllGivesTheNameReferences)
{
    StringInterner in;
    std::vector<uint32_t> ids = {in.intern("svc"), in.intern(""),
                                 in.intern("op"), in.intern("svc")};
    std::vector<const std::string *> names(ids.size());
    in.resolveAll(ids, names);
    for (size_t i = 0; i < ids.size(); ++i)
        EXPECT_EQ(names[i], &in.name(ids[i]));
    EXPECT_EQ(*names[2], "op");
}

TEST(StringInterner, ConcurrentInternAndLookupAgree)
{
    // Hammer the same vocabulary from several threads, two of them
    // through the batch calls: every thread must observe one
    // consistent id per string (exercised under TSan by
    // tools/run_sanitized_tests.sh).
    StringInterner in;
    const size_t kThreads = 4;
    const size_t kVocab = 64;
    std::vector<std::string> words;
    for (size_t v = 0; v < kVocab; ++v)
        words.push_back("word-" + std::to_string(v));
    std::vector<std::vector<uint32_t>> ids(
        kThreads, std::vector<uint32_t>(kVocab, 0));
    auto singles = [&](size_t t) {
        for (size_t v = 0; v < kVocab; ++v) {
            uint32_t id = in.intern(words[v]);
            ids[t][v] = id;
            auto found = in.find(words[v]);
            ASSERT_TRUE(found.has_value());
            ASSERT_EQ(*found, id);
            ASSERT_EQ(in.name(id), words[v]);
        }
    };
    auto batches = [&](size_t t, size_t round) {
        // Each word twice, starting at a rotating offset, so new and
        // known strings and repeats mix within one call.
        std::vector<size_t> order;
        std::vector<std::string_view> batch;
        for (size_t k = 0; k < kVocab; ++k) {
            size_t v = (k + 7 * round + 13 * t) % kVocab;
            order.push_back(v);
            batch.push_back(words[v]);
            batch.push_back(words[v]);
        }
        std::vector<uint32_t> got(batch.size());
        in.internAll(batch, got);
        std::vector<const std::string *> names(got.size());
        in.resolveAll(got, names);
        for (size_t k = 0; k < kVocab; ++k) {
            ASSERT_EQ(got[2 * k], got[2 * k + 1]);
            ASSERT_EQ(*names[2 * k], words[order[k]]);
            ids[t][order[k]] = got[2 * k];
        }
    };
    std::vector<std::thread> workers;
    for (size_t t = 0; t < kThreads; ++t)
        workers.emplace_back([&, t] {
            for (size_t round = 0; round < 50; ++round) {
                if (t % 2 == 0)
                    batches(t, round);
                else
                    singles(t);
            }
        });
    for (std::thread &w : workers)
        w.join();
    EXPECT_EQ(in.size(), kVocab);
    for (size_t t = 1; t < kThreads; ++t)
        EXPECT_EQ(ids[t], ids[0]);
}
