/**
 * @file
 * Tests for the processor database (Table 3) and the BIOS-style
 * configurator (section 2.8).
 */

#include <gtest/gtest.h>

#include <set>

#include "machine/processor.hh"

namespace lhr
{

TEST(Machine, EightProcessors)
{
    EXPECT_EQ(allProcessors().size(), 8u);
}

TEST(Machine, Table3SpotChecks)
{
    const ProcessorSpec &i7 = processorById("i7 (45)");
    EXPECT_EQ(i7.model, "Core i7 920");
    EXPECT_EQ(i7.sSpec, "SLBCH");
    EXPECT_EQ(i7.codename, "Bloomfield");
    EXPECT_EQ(i7.cores, 4);
    EXPECT_EQ(i7.smtWays, 2);
    EXPECT_DOUBLE_EQ(i7.llcMb, 8.0);
    EXPECT_DOUBLE_EQ(i7.transistorsM, 731.0);
    EXPECT_DOUBLE_EQ(i7.tdpW, 130.0);
    EXPECT_TRUE(i7.hasTurbo);

    const ProcessorSpec &p4 = processorById("Pentium4 (130)");
    EXPECT_EQ(p4.family, Family::NetBurst);
    EXPECT_EQ(p4.cores, 1);
    EXPECT_EQ(p4.smtWays, 2);
    EXPECT_FALSE(p4.hasTurbo);
    EXPECT_EQ(p4.tech().featureNm, 130);

    const ProcessorSpec &atom = processorById("Atom (45)");
    EXPECT_DOUBLE_EQ(atom.tdpW, 4.0);
    EXPECT_DOUBLE_EQ(atom.releasePriceUsd, 29.0);

    EXPECT_DEATH(processorById("Itanium"), "unknown processor");
}

TEST(Machine, TdpOrderingMatchesTable3)
{
    EXPECT_GT(processorById("i7 (45)").tdpW,
              processorById("C2Q (65)").tdpW - 1e9); // i7 130 > 105
    EXPECT_LT(processorById("Atom (45)").tdpW,
              processorById("AtomD (45)").tdpW);
}

TEST(Machine, StockConfig)
{
    const auto cfg = stockConfig(processorById("i5 (32)"));
    EXPECT_EQ(cfg.enabledCores, 2);
    EXPECT_EQ(cfg.smtPerCore, 2);
    EXPECT_EQ(cfg.contexts(), 4);
    EXPECT_TRUE(cfg.turboEnabled);
    EXPECT_NEAR(cfg.clockGhz, 3.46, 1e-9);
}

TEST(Machine, ConfigLabels)
{
    const auto i7 = stockConfig(processorById("i7 (45)"));
    EXPECT_EQ(i7.label(), "i7 (45) 4C2T@2.7GHz");
    EXPECT_EQ(withTurbo(i7, false).label(), "i7 (45) 4C2T@2.7GHz NoTB");
    const auto p4 = stockConfig(processorById("Pentium4 (130)"));
    EXPECT_EQ(p4.label(), "Pentium4 (130) 1C2T@2.4GHz");
}

TEST(Machine, LongIdsKeepTheirLabelSuffix)
{
    // A custom machine id may be any length; the cores/clock suffix
    // must survive it, or two clocks share one ResultStore row.
    ProcessorSpec spec = processorById("i7 (45)");
    spec.id = std::string(100, 'x');
    const auto stock = stockConfig(spec);
    EXPECT_EQ(stock.label(), spec.id + " 4C2T@2.7GHz");
    EXPECT_EQ(withTurbo(stock, false).label(), spec.id + " 4C2T@2.7GHz NoTB");
    EXPECT_NE(withClock(stock, 1.6).label(), stock.label());
}

TEST(Machine, ConfiguratorValidation)
{
    const auto i7 = stockConfig(processorById("i7 (45)"));
    EXPECT_DEATH(withCores(i7, 5), "out of range");
    EXPECT_DEATH(withCores(i7, 0), "out of range");
    EXPECT_DEATH(withClock(i7, 0.5), "out of range");
    EXPECT_DEATH(withClock(i7, 4.0), "out of range");

    const auto c2d = stockConfig(processorById("C2D (65)"));
    EXPECT_DEATH(withSmt(c2d, true), "no SMT");
    EXPECT_DEATH(withTurbo(c2d, true), "no Turbo");
}

TEST(Machine, ConfigurationCounts)
{
    EXPECT_EQ(standardConfigurations().size(), 45u);
    EXPECT_EQ(configurations45nm().size(), 29u);
}

TEST(Machine, EraNamesRoundTrip)
{
    ASSERT_EQ(allEras().size(), 8u);
    for (const Era era : allEras())
        EXPECT_EQ(parseEra(eraName(era)), era);
    EXPECT_EQ(eraName(Era::Paper45), "45nm");
    EXPECT_EQ(eraName(Era::Haswell), "haswell");
    EXPECT_DEATH(parseEra("7nm"), "unknown era");
}

TEST(Machine, PostPaperServerParts)
{
    const auto &servers = postPaperProcessors();
    ASSERT_EQ(servers.size(), 4u);
    EXPECT_EQ(servers[0].era, Era::SandyBridge);
    EXPECT_EQ(servers[3].era, Era::Skylake);
    for (size_t i = 0; i < servers.size(); ++i) {
        const ProcessorSpec &s = servers[i];
        EXPECT_TRUE(s.hasTurbo) << s.id;
        EXPECT_EQ(s.smtWays, 2) << s.id;
        EXPECT_GE(s.turboSteps1C, s.turboStepsAllC) << s.id;
        // Core counts grow monotonically across the generations.
        if (i > 0) {
            EXPECT_GT(s.cores, servers[i - 1].cores) << s.id;
        }
    }
    // AVX license derating starts at Haswell; Sandy Bridge has none.
    EXPECT_DOUBLE_EQ(servers[0].avxClockPenalty, 0.0);
    for (size_t i = 1; i < servers.size(); ++i)
        EXPECT_GT(servers[i].avxClockPenalty, 0.0) << servers[i].id;
}

TEST(Machine, ProcessorIdsAreUniqueAcrossBothTables)
{
    std::set<std::string> ids;
    for (const auto &spec : allProcessors())
        EXPECT_TRUE(ids.insert(spec.id).second) << spec.id;
    for (const auto &spec : postPaperProcessors())
        EXPECT_TRUE(ids.insert(spec.id).second) << spec.id;
    EXPECT_EQ(ids.size(), 12u);
}

TEST(Machine, UnknownProcessorIdListsTheValidOnes)
{
    // The panic names every valid id from both tables, so a typo'd
    // sweep config is a one-look fix.
    EXPECT_DEATH(processorById("Itanium"),
                 "valid ids.*i7 \\(45\\).*XeonSP \\(14\\)");
    EXPECT_EQ(findProcessor("Itanium"), nullptr);
    EXPECT_EQ(findProcessor("XeonSP (14)"),
              &processorById("XeonSP (14)"));
}

TEST(Machine, EraGridsCoverEveryEra)
{
    const auto byEra = configurationsByEra();
    ASSERT_EQ(byEra.size(), 8u);
    size_t paperTotal = 0;
    for (const auto &era : byEra) {
        ASSERT_FALSE(era.configs.empty()) << eraName(era.era);
        for (const auto &cfg : era.configs)
            EXPECT_EQ(cfg.spec->era, era.era) << cfg.label();
        if (era.era >= Era::SandyBridge)
            EXPECT_EQ(era.configs.size(), 10u) << eraName(era.era);
        else
            paperTotal += era.configs.size();
    }
    // The paper eras partition the 45-configuration standard grid.
    EXPECT_EQ(paperTotal, standardConfigurations().size());
    EXPECT_EQ(configurationsOfEra(Era::Paper45).size(), 29u);
}

TEST(Machine, All45nmConfigurationsAreAt45nm)
{
    for (const auto &cfg : configurations45nm())
        EXPECT_EQ(cfg.spec->tech().featureNm, 45) << cfg.label();
}

TEST(Machine, ConfigurationLabelsAreUnique)
{
    std::set<std::string> labels;
    for (const auto &cfg : standardConfigurations())
        EXPECT_TRUE(labels.insert(cfg.label()).second) << cfg.label();
}

TEST(Machine, Table5ConfigurationsExist)
{
    // The configurations named in paper Table 5 must all be part of
    // the 45nm experimental set.
    const std::vector<std::string> expected = {
        "Atom (45) 1C2T@1.7GHz",
        "C2D (45) 2C1T@1.6GHz",
        "C2D (45) 2C1T@3.1GHz",
        "i7 (45) 1C1T@2.7GHz NoTB",
        "i7 (45) 1C1T@2.7GHz",
        "i7 (45) 1C2T@1.6GHz NoTB",
        "i7 (45) 1C2T@2.4GHz NoTB",
        "i7 (45) 2C1T@1.6GHz NoTB",
        "i7 (45) 2C2T@1.6GHz NoTB",
        "i7 (45) 4C1T@2.7GHz NoTB",
        "i7 (45) 4C1T@2.7GHz",
        "i7 (45) 4C2T@1.6GHz NoTB",
        "i7 (45) 4C2T@2.1GHz NoTB",
        "i7 (45) 4C2T@2.7GHz NoTB",
        "i7 (45) 4C2T@2.7GHz",
    };
    std::set<std::string> labels;
    for (const auto &cfg : configurations45nm())
        labels.insert(cfg.label());
    for (const auto &want : expected)
        EXPECT_TRUE(labels.count(want)) << want;
}

TEST(Machine, VoltageCurveMonotonic)
{
    for (const auto &spec : allProcessors()) {
        const auto cfg = stockConfig(spec);
        double prev = 0.0;
        for (double f = spec.fMinGhz; f <= spec.stockClockGhz + 1e-9;
             f += 0.05) {
            const double v = cfg.voltageAt(f);
            EXPECT_GE(v, prev - 1e-12) << spec.id << " @ " << f;
            EXPECT_GE(v, 0.5);
            EXPECT_LE(v, 1.7);
            prev = v;
        }
    }
}

TEST(Machine, VoltageCurveEndpoints)
{
    for (const auto &spec : allProcessors()) {
        const auto cfg = stockConfig(spec);
        EXPECT_NEAR(cfg.voltageAt(spec.fMinGhz), spec.vEffMin, 1e-12);
        EXPECT_NEAR(cfg.voltageAt(spec.stockClockGhz), spec.vEffMax,
                    1e-9);
    }
}

TEST(Machine, TurboVoltageKick)
{
    const ProcessorSpec &i7 = processorById("i7 (45)");
    const auto cfg = stockConfig(i7);
    const double oneStep =
        cfg.voltageAt(i7.stockClockGhz + i7.turboStepGhz);
    const double twoSteps = cfg.voltageAt(
        i7.stockClockGhz + 2.0 * i7.turboStepGhz);
    EXPECT_NEAR(oneStep, i7.vEffMax + i7.turboVKickV, 1e-9);
    EXPECT_NEAR(twoSteps, i7.vEffMax + 2.0 * i7.turboVKickV, 1e-9);
}

TEST(Machine, HierarchiesMatchFamilies)
{
    // Nehalem: three levels; others: two.
    EXPECT_EQ(makeHierarchy(processorById("i7 (45)")).levels().size(),
              3u);
    EXPECT_EQ(makeHierarchy(processorById("i5 (32)")).levels().size(),
              3u);
    EXPECT_EQ(
        makeHierarchy(processorById("Pentium4 (130)")).levels().size(),
        2u);
    EXPECT_EQ(makeHierarchy(processorById("Atom (45)")).levels().size(),
              2u);
}

TEST(Machine, LlcCapacitiesMatchTable3)
{
    const auto i7 = makeHierarchy(processorById("i7 (45)"));
    EXPECT_DOUBLE_EQ(i7.levels().back().capacityKb, 8192.0);
    const auto p4 = makeHierarchy(processorById("Pentium4 (130)"));
    EXPECT_DOUBLE_EQ(p4.levels().back().capacityKb, 512.0);
    // Kentsfield: one 4MB instance per pair of cores.
    const auto c2q = makeHierarchy(processorById("C2Q (65)"));
    EXPECT_DOUBLE_EQ(c2q.levels().back().capacityKb, 4096.0);
    EXPECT_EQ(c2q.levels().back().sharedByCores, 2);
}

/** Property sweep across all processors. */
class ProcessorSweep
    : public ::testing::TestWithParam<const ProcessorSpec *>
{
};

TEST_P(ProcessorSweep, SpecIsPhysical)
{
    const ProcessorSpec &s = *GetParam();
    EXPECT_GT(s.cores, 0);
    EXPECT_GE(s.smtWays, 1);
    EXPECT_LE(s.smtWays, 2);
    EXPECT_GT(s.llcMb, 0.0);
    EXPECT_GT(s.stockClockGhz, s.fMinGhz - 1e-9);
    EXPECT_GT(s.transistorsM, 0.0);
    EXPECT_GT(s.dieMm2, 0.0);
    EXPECT_GT(s.tdpW, 0.0);
    EXPECT_GT(s.vEffMax, s.vEffMin - 1e-12);
    EXPECT_GT(s.perfCal, 0.0);
    EXPECT_GT(s.powerCal, 0.0);
    EXPECT_GT(s.leakCal, 0.0);
    // VID range from Table 3 must bracket the calibrated
    // effective voltages when published.
    if (s.vidMaxV > 0.0) {
        EXPECT_GE(s.vEffMin, s.vidMinV - 1e-9) << s.id;
        EXPECT_LE(s.vEffMax, s.vidMaxV + 1e-9) << s.id;
    }
}

TEST_P(ProcessorSweep, MemoryResolves)
{
    EXPECT_GT(GetParam()->memory().bandwidthGBs, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllProcessors, ProcessorSweep,
    ::testing::ValuesIn([] {
        std::vector<const ProcessorSpec *> all;
        for (const auto &spec : allProcessors())
            all.push_back(&spec);
        return all;
    }()),
    [](const ::testing::TestParamInfo<const ProcessorSpec *> &info) {
        std::string name = info.param->id;
        for (char &ch : name)
            if (!isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return name;
    });

} // namespace lhr
