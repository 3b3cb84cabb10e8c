/**
 * @file
 * Tests for user-defined processor parsing.
 */

#include <gtest/gtest.h>

#include "cpu/perf_model.hh"
#include "harness/runner.hh"
#include "machine/custom.hh"

namespace lhr
{

namespace
{

const char *const pentiumM = R"(
# The machine the paper wished it could measure (section 2.5).
id          = PentiumM (130)
model       = Pentium M 735 (Banias class)
family      = Core
node_nm     = 130
cores       = 1
smt         = 1
llc_mb      = 1
clock_ghz   = 1.7
fmin_ghz    = 0.6
transistors_m = 77
die_mm2     = 83
tdp_w       = 24.5
dram        = DDR-400
veff_min    = 0.96
veff_max    = 1.48
uncore_base_w = 2.0
)";

} // namespace

TEST(CustomMachine, ParsesTheHeaderExample)
{
    const auto custom = CustomProcessor::parseString(pentiumM);
    const ProcessorSpec &spec = custom->spec();
    EXPECT_EQ(spec.id, "PentiumM (130)");
    EXPECT_EQ(spec.family, Family::Core);
    EXPECT_EQ(spec.tech().featureNm, 130);
    EXPECT_EQ(spec.cores, 1);
    EXPECT_DOUBLE_EQ(spec.llcMb, 1.0);
    EXPECT_DOUBLE_EQ(spec.stockClockGhz, 1.7);
    EXPECT_DOUBLE_EQ(spec.tdpW, 24.5);
    EXPECT_FALSE(spec.hasTurbo);
    EXPECT_DOUBLE_EQ(spec.perfCal, 1.0); // default
}

TEST(CustomMachine, WorksWithEveryModel)
{
    const auto custom = CustomProcessor::parseString(pentiumM);
    const auto cfg = stockConfig(custom->spec());
    EXPECT_EQ(cfg.contexts(), 1);

    // Performance model.
    const PerfModel perf(custom->spec());
    const auto &bench = benchmarkByName("gcc");
    const auto run = perf.evaluate(bench, cfg, cfg.clockGhz,
                                   bench.instructionsB() * 1e9, 1);
    EXPECT_GT(run.timeSec, 0.0);

    // Full harness.
    ExperimentRunner runner(0xCAFE2);
    const auto &m = runner.measure(cfg, bench);
    EXPECT_GT(m.powerW, 1.0);
    EXPECT_LT(m.powerW, custom->spec().tdpW);
}

TEST(CustomMachine, LowPowerLaptopPartSitsBetweenAtomAndDesktop)
{
    // The interesting historical question: the Pentium M's
    // efficiency presaged Core. Its power should land far below the
    // Pentium 4's and far above the Atom's.
    const auto custom = CustomProcessor::parseString(pentiumM);
    ExperimentRunner runner(0xCAFE3);
    const auto &bench = benchmarkByName("gcc");
    const double pm =
        runner.measure(stockConfig(custom->spec()), bench).powerW;
    const double p4 = runner.measure(
        stockConfig(processorById("Pentium4 (130)")), bench).powerW;
    const double atom = runner.measure(
        stockConfig(processorById("Atom (45)")), bench).powerW;
    EXPECT_LT(pm, 0.6 * p4);
    EXPECT_GT(pm, 2.0 * atom);
}

TEST(CustomMachine, DefaultsAreDerived)
{
    const auto custom = CustomProcessor::parseString(R"(
id = mini
family = Bonnell
node_nm = 45
cores = 1
smt = 2
llc_mb = 0.5
clock_ghz = 1.2
transistors_m = 40
die_mm2 = 25
tdp_w = 3
dram = DDR2-800
)");
    const ProcessorSpec &spec = custom->spec();
    EXPECT_DOUBLE_EQ(spec.fMinGhz, 1.2); // defaults to stock
    EXPECT_GT(spec.vEffMax, spec.vEffMin);
    EXPECT_GT(spec.uncoreBaseW, 0.0);
    EXPECT_EQ(spec.model, "mini");
}

TEST(CustomMachine, RejectsBadDefinitions)
{
    EXPECT_DEATH(CustomProcessor::parseString("id = x\nfamily = Z80\n"),
                 "unknown family");
    EXPECT_DEATH(CustomProcessor::parseString("id only, no equals\n"),
                 "key = value");
    EXPECT_DEATH(CustomProcessor::parseString("id = x\n"),
                 "missing required");
    EXPECT_DEATH(CustomProcessor::parseString(R"(
id = x
family = Core
node_nm = 90
cores = 1
smt = 1
llc_mb = 1
clock_ghz = 1
transistors_m = 10
die_mm2 = 10
tdp_w = 10
dram = DDR-400
)"),
                 "no model for 90");
    EXPECT_DEATH(CustomProcessor::parseString(R"(
id = x
family = Core
node_nm = 65
cores = banana
smt = 1
llc_mb = 1
clock_ghz = 1
transistors_m = 10
die_mm2 = 10
tdp_w = 10
dram = DDR-400
)"),
                 "bad number");

    // A valid turbo part with one key overridden: a later line for a
    // key replaces an earlier one.
    auto with = [](const std::string &key, const std::string &value) {
        return std::string("id = x\nfamily = Core\nnode_nm = 65\n"
                           "cores = 1\nsmt = 1\nllc_mb = 1\n"
                           "clock_ghz = 1\ntransistors_m = 10\n"
                           "die_mm2 = 10\ntdp_w = 10\ndram = DDR-400\n"
                           "turbo = 1\n") +
            key + " = " + value + "\n";
    };
    ASSERT_EQ(CustomProcessor::parseString(with("cores", "2"))->spec().cores,
              2);
    ASSERT_EQ(CustomProcessor::parseString(with("turbo_steps_1c", "3"))
                  ->spec()
                  .turboSteps1C,
              3);

    // NaN fails every range check and inf passes the positivity ones.
    EXPECT_DEATH(CustomProcessor::parseString(with("tdp_w", "nan")),
                 "non-finite");
    EXPECT_DEATH(CustomProcessor::parseString(with("tdp_w", "inf")),
                 "non-finite");
    EXPECT_DEATH(CustomProcessor::parseString(with("clock_ghz", "-inf")),
                 "non-finite");
    EXPECT_DEATH(CustomProcessor::parseString(with("fmin_ghz", "nan")),
                 "non-finite");

    // Integer keys take only integral values that fit an int.
    EXPECT_DEATH(CustomProcessor::parseString(with("cores", "2.7")),
                 "cores is not an int");
    EXPECT_DEATH(CustomProcessor::parseString(with("cores", "1e300")),
                 "cores is not an int");
    EXPECT_DEATH(CustomProcessor::parseString(with("cores", "nan")),
                 "non-finite");
    EXPECT_DEATH(CustomProcessor::parseString(with("smt", "1.5")),
                 "smt is not an int");
    EXPECT_DEATH(CustomProcessor::parseString(with("node_nm", "4294967361")),
                 "node_nm is not an int");
    EXPECT_DEATH(
        CustomProcessor::parseString(with("turbo_steps_1c", "2.5")),
        "turbo_steps_1c is not an int");
    EXPECT_DEATH(
        CustomProcessor::parseString(with("turbo_steps_allc", "-1e20")),
        "turbo_steps_allc is not an int");
}

} // namespace lhr
