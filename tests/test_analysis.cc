/**
 * @file
 * Tests for the analysis layer: feature comparisons, clock sweeps,
 * historical overview, Pareto study, and the Lab facade.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/report.hh"
#include "core/lab.hh"

namespace lhr
{

namespace
{

Lab &
lab()
{
    static Lab instance(0xFEEDull);
    return instance;
}

} // namespace

TEST(Analysis, CompareConfigsIdentityIsOne)
{
    const auto cfg = stockConfig(processorById("C2D (65)"));
    const auto effect = compareConfigs(
        lab().runner(), lab().reference(), cfg, cfg, "self");
    EXPECT_NEAR(effect.average.perf, 1.0, 1e-9);
    EXPECT_NEAR(effect.average.power, 1.0, 1e-9);
    EXPECT_NEAR(effect.average.energy, 1.0, 1e-9);
    for (const auto &g : effect.byGroup) {
        EXPECT_NEAR(g.perf, 1.0, 1e-9);
        EXPECT_NEAR(g.energy, 1.0, 1e-9);
    }
}

TEST(Analysis, StudiesCoverExpectedSubjects)
{
    auto &runner = lab().runner();
    const auto &ref = lab().reference();
    EXPECT_EQ(cmpStudy(runner, ref).size(), 2u);
    EXPECT_EQ(smtStudy(runner, ref).size(), 4u);
    EXPECT_EQ(clockStudy(runner, ref).size(), 3u);
    EXPECT_EQ(dieShrinkStudy(runner, ref, false).size(), 2u);
    EXPECT_EQ(dieShrinkStudy(runner, ref, true).size(), 2u);
    EXPECT_EQ(uarchStudy(runner, ref).size(), 4u);
    EXPECT_EQ(turboStudy(runner, ref).size(), 4u);
}

TEST(Analysis, ClockSweepMonotonePerformance)
{
    const auto sweep =
        clockSweep(lab().runner(), lab().reference(), "i7 (45)", 5);
    ASSERT_EQ(sweep.size(), 5u);
    EXPECT_NEAR(sweep.front().perfRelBase, 1.0, 1e-9);
    EXPECT_NEAR(sweep.front().energyRelBase, 1.0, 1e-9);
    for (size_t i = 1; i < sweep.size(); ++i) {
        EXPECT_GT(sweep[i].clockGhz, sweep[i - 1].clockGhz);
        EXPECT_GT(sweep[i].perfRelBase, sweep[i - 1].perfRelBase);
    }
}

TEST(Analysis, ClockSweepSubLinear)
{
    const auto sweep =
        clockSweep(lab().runner(), lab().reference(), "i7 (45)", 3);
    const double clockRatio =
        sweep.back().clockGhz / sweep.front().clockGhz;
    EXPECT_LT(sweep.back().perfRelBase, clockRatio);
    EXPECT_DEATH(clockSweep(lab().runner(), lab().reference(),
                            "i7 (45)", 1),
                 "two steps");
}

TEST(Analysis, JavaScalabilityDescending)
{
    const auto scaling = javaScalability(lab().runner());
    EXPECT_EQ(scaling.size(), 13u); // 8 MT non-scalable + 5 scalable
    for (size_t i = 1; i < scaling.size(); ++i)
        EXPECT_GE(scaling[i - 1].second, scaling[i].second);
    // Java Scalable members should lead the ranking.
    EXPECT_EQ(benchmarkByName(scaling.front().first).group,
              Group::JavaScalable);
}

TEST(Analysis, HistoricalRanks)
{
    EXPECT_EQ(rankOf({3.0, 1.0, 2.0}, false),
              (std::vector<int>{1, 3, 2}));
    EXPECT_EQ(rankOf({3.0, 1.0, 2.0}, true),
              (std::vector<int>{3, 1, 2}));
}

TEST(Analysis, HistoricalOverviewCoversAllProcessors)
{
    const auto points =
        historicalOverview(lab().runner(), lab().reference());
    EXPECT_EQ(points.size(), 8u);
    for (const auto &pt : points) {
        EXPECT_GT(pt.aggregate.weighted.perf, 0.0);
        EXPECT_GT(pt.perfPerMtran(), 0.0);
        EXPECT_GT(pt.powerPerMtran(), 0.0);
    }
}

TEST(Analysis, ParetoPointsCoverAll45nmConfigs)
{
    const auto points = paretoPoints45nm(
        lab().runner(), lab().reference(), std::nullopt);
    EXPECT_EQ(points.size(), 29u);
    const auto frontier = paretoFrontier45nm(
        lab().runner(), lab().reference(), std::nullopt);
    EXPECT_FALSE(frontier.empty());
    EXPECT_LT(frontier.size(), points.size());
    // Frontier members must come from the point set.
    for (const auto &member : frontier) {
        bool found = false;
        for (const auto &pt : points)
            if (pt.label == member.label)
                found = true;
        EXPECT_TRUE(found) << member.label;
    }
}

TEST(Analysis, ScalableFrontierExtendsFurtherRight)
{
    // Paper Figure 12: software parallelism pushes the scalable
    // groups' frontiers to much higher performance.
    auto &runner = lab().runner();
    const auto &ref = lab().reference();
    const auto nn =
        paretoFrontier45nm(runner, ref, Group::NativeNonScalable);
    const auto ns =
        paretoFrontier45nm(runner, ref, Group::NativeScalable);
    EXPECT_GT(ns.back().performance, 1.5 * nn.back().performance);
}

TEST(Analysis, PentiumProjectionMatchesPaperClaim)
{
    // Figure 11 discussion: a 32nm Pentium 4 would have ~4x less
    // power and ~2x more performance.
    const auto points =
        historicalOverview(lab().runner(), lab().reference());
    for (const auto &pt : points) {
        if (pt.spec->family != Family::NetBurst)
            continue;
        const auto projected = projectToNode(pt, Node::Nm32, 2.0);
        const double powerCut =
            pt.aggregate.weighted.powerW / projected.powerW;
        const double perfGain =
            projected.perf / pt.aggregate.weighted.perf;
        EXPECT_NEAR(perfGain, 2.0, 1e-9);
        EXPECT_GT(powerCut, 3.0);
        EXPECT_LT(powerCut, 6.0);
    }
    EXPECT_DEATH(projectToNode(points.front(), Node::Nm32, 0.0),
                 "clock ratio");
}

TEST(Analysis, ReportRendersAllGroups)
{
    const auto effects = cmpStudy(lab().runner(), lab().reference());
    std::ostringstream os;
    TextSink sink(os);
    emitGroupedEffects(sink, "title", effects);
    const std::string out = os.str();
    EXPECT_NE(out.find("title"), std::string::npos);
    EXPECT_NE(out.find("performance"), std::string::npos);
    EXPECT_NE(out.find("Native Non-scalable"), std::string::npos);
    EXPECT_NE(out.find("i7 (45)"), std::string::npos);
}

TEST(Lab, FacadeMeasuresAndAggregates)
{
    Lab fresh(0xABCDEF);
    const auto cfg = stockConfig(processorById("Atom (45)"));
    const auto &bench = benchmarkByName("jess");
    const auto &m = fresh.measure(cfg, bench);
    EXPECT_GT(m.timeSec, 0.0);
    const auto r = fresh.result(cfg, bench);
    EXPECT_GT(r.perf, 0.0);
    EXPECT_GT(r.energy, 0.0);
    EXPECT_EQ(r.bench, &bench);
}

TEST(Lab, ReferenceIsBuiltLazilyAndCached)
{
    Lab fresh(0x777);
    const ReferenceSet &a = fresh.reference();
    const ReferenceSet &b = fresh.reference();
    EXPECT_EQ(&a, &b);
}

} // namespace lhr
