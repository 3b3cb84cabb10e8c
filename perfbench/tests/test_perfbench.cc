/**
 * @file
 * Tests of the benchmark's own arithmetic and inputs: the tail
 * percentile helper, self time of nested spans, and the serve key
 * generator.
 */

#include <gtest/gtest.h>

#include <set>

#include "inputs.hh"
#include "harness/runner.hh"
#include "serve/protocol.hh"
#include "stats.hh"
#include "trace.hh"

namespace perfbench
{

namespace
{

std::vector<double>
oneTo(size_t n)
{
    std::vector<double> values;
    for (size_t i = n; i >= 1; --i) // unsorted on purpose
        values.push_back(static_cast<double>(i));
    return values;
}

Span
span(double start, double end, int parent)
{
    Span s;
    s.name = "s";
    s.start = start;
    s.end = end;
    s.parent = parent;
    return s;
}

} // namespace

TEST(Tail, HighestPercentileWithTenSamplesBeyond)
{
    const auto tail = highestTail(oneTo(1000));
    ASSERT_TRUE(tail.has_value());
    EXPECT_DOUBLE_EQ(tail->percentile, 99.0);
    EXPECT_DOUBLE_EQ(tail->value, 990.0);
    EXPECT_EQ(tail->samples, 1000u);
    EXPECT_EQ(tail->beyond, 10u);

    const auto deep = highestTail(oneTo(100000));
    ASSERT_TRUE(deep.has_value());
    EXPECT_DOUBLE_EQ(deep->percentile, 99.99);
    EXPECT_EQ(deep->beyond, 10u);
    EXPECT_EQ(deep->samples, 100000u);

    // 999 samples: p99 leaves only 9 beyond, so p90 is the answer.
    const auto short_ = highestTail(oneTo(999));
    ASSERT_TRUE(short_.has_value());
    EXPECT_DOUBLE_EQ(short_->percentile, 90.0);
    EXPECT_GE(short_->beyond, 10u);
}

TEST(Tail, TooFewSamplesForAnyPercentile)
{
    EXPECT_FALSE(highestTail({}).has_value());
    EXPECT_FALSE(highestTail(oneTo(19)).has_value());
    const auto median = highestTail(oneTo(20));
    ASSERT_TRUE(median.has_value());
    EXPECT_DOUBLE_EQ(median->percentile, 50.0);
    EXPECT_DOUBLE_EQ(median->value, 10.0);
}

TEST(Stats, NearestRank)
{
    const std::vector<double> sorted = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    EXPECT_DOUBLE_EQ(percentileSorted(sorted, 50.0), 5.0);
    EXPECT_DOUBLE_EQ(percentileSorted(sorted, 99.0), 10.0);
    EXPECT_DOUBLE_EQ(percentileSorted(sorted, 10.0), 1.0);
}

TEST(SelfTime, SubtractsChildrenOnceAndOnlyDirectOnes)
{
    std::vector<Span> spans = {
        span(0.0, 10.0, -1), // 0: root
        span(1.0, 4.0, 0),   // 1: child, [1,4]
        span(3.0, 6.0, 0),   // 2: overlapping child, union [1,6]
        span(2.0, 3.0, 1),   // 3: grandchild inside 1
        span(9.0, 12.0, 0),  // 4: child running past the root's end
    };
    const std::vector<double> self = selfTimes(spans);
    EXPECT_DOUBLE_EQ(self[0], 10.0 - 5.0 - 1.0);
    EXPECT_DOUBLE_EQ(self[1], 3.0 - 1.0);
    EXPECT_DOUBLE_EQ(self[2], 3.0);
    EXPECT_DOUBLE_EQ(self[3], 1.0);
    EXPECT_DOUBLE_EQ(self[4], 3.0);
}

TEST(SelfTime, TracerRecordsNestingAndRuns)
{
    Tracer tracer(true);
    tracer.span("outer", [&] {
        tracer.span("inner", [] {});
        tracer.span("inner", [] {}, 7);
    });
    const auto &spans = tracer.spans();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].parent, -1);
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_EQ(spans[2].parent, 0);
    EXPECT_EQ(spans[2].run, 7);
    const double self = tracer.totalSelf("outer");
    EXPECT_NEAR(self,
                spans[0].duration() - tracer.total("inner"), 1e-12);
    EXPECT_GE(self, 0.0);

    Tracer off(false);
    EXPECT_EQ(off.span("x", [] { return 5; }), 5);
    EXPECT_TRUE(off.spans().empty());
}

TEST(Keys, DeterministicPerSeed)
{
    const KeyStream a = makeKeyStream(42, 4, 2000);
    const KeyStream b = makeKeyStream(42, 4, 2000);
    const KeyStream c = makeKeyStream(43, 4, 2000);
    ASSERT_EQ(a.clients, b.clients);
    ASSERT_EQ(a.cold.size(), b.cold.size());
    for (size_t i = 0; i < a.cold.size(); ++i)
        EXPECT_EQ(a.cold[i].identity(), b.cold[i].identity());
    for (size_t i = 0; i < a.hot.size(); ++i)
        EXPECT_EQ(a.hot[i].identity(), b.hot[i].identity());
    EXPECT_NE(a.clients, c.clients);
}

TEST(Keys, ColdKeysNeverRepeatAndNeverHitTheHotSet)
{
    const KeyStream stream = makeKeyStream(7, 4, 20000);
    EXPECT_EQ(stream.hot.size(), serveHotKeys);

    std::set<std::string> hot;
    for (const ServeKey &key : stream.hot)
        hot.insert(key.identity());
    EXPECT_EQ(hot.size(), stream.hot.size());

    // Every cold slot of every client is used exactly once.
    std::set<int32_t> coldSlots;
    size_t requests = 0;
    for (const auto &seq : stream.clients) {
        requests += seq.size();
        for (const int32_t slot : seq) {
            if (slot < 0) {
                EXPECT_TRUE(coldSlots.insert(slot).second);
            }
        }
    }
    EXPECT_EQ(coldSlots.size(), stream.cold.size());
    // About one request in serveColdOneIn is cold.
    EXPECT_NEAR(static_cast<double>(stream.cold.size()) / requests,
                1.0 / serveColdOneIn, 0.01);

    std::set<std::string> cold;
    for (const ServeKey &key : stream.cold) {
        EXPECT_TRUE(cold.insert(key.identity()).second) << key.identity();
        EXPECT_EQ(hot.count(key.identity()), 0u);
    }
}

TEST(Keys, EveryRequestResolvesToADistinctExperiment)
{
    const KeyStream stream = makeKeyStream(11, 4, 4000);
    std::set<std::string> experiments;
    auto resolve = [&](const ServeKey &key) {
        const auto q = lhr::resolveQuery(key.request(1));
        ASSERT_TRUE(q.ok()) << key.identity() << ": "
                            << q.status().toString();
        // The wire round trip must keep the key exact.
        const auto parsed = lhr::parseServeRequest(
            lhr::formatServeRequest(key.request(1)));
        ASSERT_TRUE(parsed.ok());
        const auto again = lhr::resolveQuery(parsed.value());
        ASSERT_TRUE(again.ok());
        EXPECT_EQ(lhr::ExperimentRunner::keyOf(q.value().config,
                                               *q.value().benchmark),
                  lhr::ExperimentRunner::keyOf(again.value().config,
                                               *again.value().benchmark));
        experiments.insert(lhr::ExperimentRunner::keyOf(
            q.value().config, *q.value().benchmark));
    };
    for (const ServeKey &key : stream.hot)
        resolve(key);
    for (const ServeKey &key : stream.cold)
        resolve(key);
    EXPECT_EQ(experiments.size(), stream.hot.size() + stream.cold.size());
}

TEST(Inputs, DerivedSeedsDifferByPurposeAndIndex)
{
    EXPECT_EQ(deriveSeed(1, "a", 0), deriveSeed(1, "a", 0));
    EXPECT_NE(deriveSeed(1, "a", 0), deriveSeed(1, "b", 0));
    EXPECT_NE(deriveSeed(1, "a", 0), deriveSeed(1, "a", 1));
    EXPECT_NE(deriveSeed(1, "a", 0), deriveSeed(2, "a", 0));
    const lhr::FaultPlan plan = makeFaultPlan(5);
    EXPECT_TRUE(plan.injectsSamples());
    EXPECT_EQ(plan.seed, makeFaultPlan(5).seed);
}

} // namespace perfbench
