/**
 * @file
 * Tests for the chip power model, thermal coupling, and activity
 * factors.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cstdint>
#include <vector>

#include "harness/runner.hh"
#include "power/chip_power.hh"
#include "util/rng.hh"

namespace lhr
{

namespace
{

const ProcessorSpec &i7() { return processorById("i7 (45)"); }

std::vector<double>
activeCores(const MachineConfig &cfg, double act)
{
    return std::vector<double>(cfg.enabledCores, act);
}

} // namespace

TEST(Activity, BoundsAndMonotonicity)
{
    EXPECT_GE(switchingActivity(0.0, 0.0), 0.2);
    EXPECT_LE(switchingActivity(1.0, 1.0), 1.0);
    EXPECT_LT(switchingActivity(0.2, 0.0),
              switchingActivity(0.8, 0.0));
    EXPECT_LT(switchingActivity(0.5, 0.0),
              switchingActivity(0.5, 0.7));
    EXPECT_DEATH(switchingActivity(-0.1, 0.0), "utilization");
    EXPECT_DEATH(switchingActivity(1.1, 0.0), "utilization");
}

TEST(Thermal, JunctionScalesWithPower)
{
    const ThermalModel thermal(i7());
    EXPECT_NEAR(thermal.junctionAt(0.0), ThermalModel::ambientC, 1e-12);
    EXPECT_GT(thermal.junctionAt(100.0), thermal.junctionAt(50.0));
    // At TDP, junction should approach the throttle temperature.
    EXPECT_NEAR(thermal.junctionAt(i7().tdpW),
                ThermalModel::throttleJunctionC, 1e-9);
}

TEST(Thermal, LeakageTempFactor)
{
    EXPECT_NEAR(ThermalModel::leakageTempFactor(60.0), 1.0, 1e-12);
    EXPECT_GT(ThermalModel::leakageTempFactor(90.0), 1.0);
    EXPECT_LT(ThermalModel::leakageTempFactor(40.0), 1.0);
    EXPECT_GE(ThermalModel::leakageTempFactor(-100.0), 0.5);
}

TEST(Power, BreakdownComponentsPositive)
{
    const ChipPowerModel model(i7());
    const auto cfg = stockConfig(i7());
    const auto pb = model.compute(cfg, 2.667, activeCores(cfg, 0.6),
                                  0.3, 5.0);
    EXPECT_GT(pb.coreDynW, 0.0);
    EXPECT_GT(pb.leakW, 0.0);
    EXPECT_GT(pb.llcW, 0.0);
    EXPECT_GT(pb.uncoreW, 0.0);
    EXPECT_NEAR(pb.total(),
                pb.coreDynW + pb.leakW + pb.llcW + pb.uncoreW, 1e-9);
    EXPECT_GT(pb.junctionC, ThermalModel::ambientC);
}

TEST(Power, MoreActivityMorePower)
{
    const ChipPowerModel model(i7());
    const auto cfg = stockConfig(i7());
    const double low =
        model.compute(cfg, 2.667, activeCores(cfg, 0.3), 0.1, 1.0)
            .total();
    const double high =
        model.compute(cfg, 2.667, activeCores(cfg, 0.9), 0.8, 10.0)
            .total();
    EXPECT_GT(high, low);
}

TEST(Power, HigherClockMorePower)
{
    const ChipPowerModel model(i7());
    const auto cfg = stockConfig(i7());
    const double slow =
        model.compute(cfg, 1.6, activeCores(cfg, 0.6), 0.3, 5.0)
            .total();
    const double fast =
        model.compute(cfg, 2.667, activeCores(cfg, 0.6), 0.3, 5.0)
            .total();
    // Voltage scales with frequency, so power grows super-linearly.
    EXPECT_GT(fast / slow, 2.667 / 1.6);
}

TEST(Power, IdleCoresCheaperThanActive)
{
    const ChipPowerModel model(i7());
    auto cfg = withTurbo(withCores(stockConfig(i7()), 2), false);
    const double bothActive =
        model.compute(cfg, 2.667, {0.6, 0.6}, 0.3, 5.0).total();
    const double oneIdle =
        model.compute(cfg, 2.667, {0.6, 0.0}, 0.3, 5.0).total();
    EXPECT_LT(oneIdle, bothActive);
    // ...but an enabled idle core is not free (clock gating is
    // imperfect).
    const auto single = withCores(cfg, 1);
    const double singleCore =
        model.compute(single, 2.667, {0.6}, 0.3, 5.0).total();
    EXPECT_LT(singleCore, oneIdle);
}

TEST(Power, DisabledCoresAreGated)
{
    const ChipPowerModel model(i7());
    const auto four = withTurbo(stockConfig(i7()), false);
    const auto one = withCores(four, 1);
    const double fourCores =
        model.compute(four, 2.667, {0.6, 0.0, 0.0, 0.0}, 0.3, 5.0)
            .total();
    const double oneCore =
        model.compute(one, 2.667, {0.6}, 0.3, 5.0).total();
    EXPECT_LT(oneCore, fourCores);
}

TEST(Power, ValidationPanics)
{
    const ChipPowerModel model(i7());
    const auto cfg = stockConfig(i7());
    EXPECT_DEATH(model.compute(cfg, 2.667, {0.5}, 0.3, 5.0),
                 "size mismatch");
    EXPECT_DEATH(
        model.compute(cfg, 2.667, activeCores(cfg, 0.5), 1.5, 5.0),
        "llc activity");
    EXPECT_DEATH(
        model.compute(cfg, 2.667, {0.5, 0.5, 0.5, 1.5}, 0.3, 5.0),
        "core activity");
    const auto wrong = stockConfig(processorById("Atom (45)"));
    EXPECT_DEATH(model.compute(wrong, 1.667, {0.5}, 0.3, 1.0),
                 "different processor");
}

TEST(Power, DieShrinkReducesCorePower)
{
    // Same microarchitecture family at a smaller node and lower
    // voltage must switch cheaper per core (paper Finding 4).
    const ChipPowerModel old65(processorById("C2D (65)"));
    const ChipPowerModel new45(processorById("C2D (45)"));
    const auto cfg65 = stockConfig(processorById("C2D (65)"));
    auto cfg45 = stockConfig(processorById("C2D (45)"));
    cfg45.clockGhz = 2.4; // matched clocks
    const double p65 =
        old65.compute(cfg65, 2.4, {0.6, 0.6}, 0.3, 3.0).coreDynW;
    const double p45 =
        new45.compute(cfg45, 2.4, {0.6, 0.6}, 0.3, 3.0).coreDynW;
    EXPECT_LT(p45, 0.75 * p65);
}

/** Property sweep: power stays within physical bounds everywhere. */
class PowerSweep : public ::testing::TestWithParam<const ProcessorSpec *>
{
};

TEST_P(PowerSweep, NeverExceedsTdpAtStock)
{
    // The paper's Figure 2: true chip power is strictly below TDP
    // for every benchmark in the stock configuration.
    const ProcessorSpec &spec = *GetParam();
    ExperimentRunner runner(31337);
    const auto cfg = stockConfig(spec);
    for (const auto &bench : allBenchmarks()) {
        const auto profile = runner.profile(cfg, bench);
        ASSERT_LT(profile.power.total(), spec.tdpW)
            << spec.id << " running " << bench.name;
    }
}

TEST_P(PowerSweep, MinimumFloorIsPositive)
{
    const ProcessorSpec &spec = *GetParam();
    const ChipPowerModel model(spec);
    auto cfg = stockConfig(spec);
    cfg.turboEnabled = false;
    cfg.clockGhz = spec.fMinGhz;
    const double idle = model.compute(
        cfg, spec.fMinGhz,
        std::vector<double>(cfg.enabledCores, 0.0), 0.0, 0.0).total();
    EXPECT_GT(idle, 0.3) << spec.id;
    EXPECT_LT(idle, spec.tdpW) << spec.id;
}

TEST(Power, PreparedOperatingPointMatchesComputeBitForBit)
{
    // A waveform evaluates one prepared operating point under many
    // activity vectors; every phase must carry compute()'s bits, for
    // every processor (server parts included), at the lowest, stock
    // and a Turbo clock, with idle (power-gated on Nehalem and later)
    // and saturated cores.
    std::vector<const ProcessorSpec *> specs;
    for (const auto &spec : allProcessors())
        specs.push_back(&spec);
    for (const auto &spec : postPaperProcessors())
        specs.push_back(&spec);
    ASSERT_GT(specs.size(), allProcessors().size());

    const auto sameBreakdown = [](const PowerBreakdown &a,
                                  const PowerBreakdown &b) {
        return std::bit_cast<uint64_t>(a.coreDynW) ==
                std::bit_cast<uint64_t>(b.coreDynW) &&
            std::bit_cast<uint64_t>(a.leakW) ==
                std::bit_cast<uint64_t>(b.leakW) &&
            std::bit_cast<uint64_t>(a.llcW) ==
                std::bit_cast<uint64_t>(b.llcW) &&
            std::bit_cast<uint64_t>(a.uncoreW) ==
                std::bit_cast<uint64_t>(b.uncoreW) &&
            std::bit_cast<uint64_t>(a.junctionC) ==
                std::bit_cast<uint64_t>(b.junctionC);
    };
    Rng pick(0x0915);
    for (const ProcessorSpec *spec : specs) {
        const ChipPowerModel model(*spec);
        const MachineConfig cfg = stockConfig(*spec);
        std::vector<double> clocks = {spec->fMinGhz, spec->stockClockGhz};
        if (spec->hasTurbo)
            clocks.push_back(spec->stockClockGhz + 2 * spec->turboStepGhz);
        for (const double clock : clocks) {
            const OperatingPoint op = model.prepare(cfg, clock);
            for (int phase = 0; phase < 64; ++phase) {
                std::vector<double> act(cfg.enabledCores);
                for (double &a : act) {
                    const uint64_t kind = pick.below(4);
                    a = kind == 0 ? 0.0
                        : kind == 1 ? 1.0
                                    : pick.uniform();
                }
                const double llc = phase == 0 ? 0.0 : pick.uniform();
                const double dram = 20.0 * pick.uniform() - 2.0;
                EXPECT_TRUE(sameBreakdown(
                    op.at(act, llc, dram),
                    model.compute(cfg, clock, act, llc, dram)))
                    << spec->id << " at " << clock << " GHz, phase "
                    << phase;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllProcessors, PowerSweep,
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
