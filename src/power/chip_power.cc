#include "power/chip_power.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/fp.hh"

namespace lhr
{

double
switchingActivity(double utilization, double fp_share)
{
    if (utilization < 0.0 || utilization > 1.0)
        panic("switchingActivity: utilization out of range");
    return std::min(1.0, 0.25 + 0.50 * utilization + 0.12 * fp_share);
}

ThermalModel::ThermalModel(const ProcessorSpec &spec)
{
    // Packages are engineered so that sustained TDP lands near the
    // maximum junction temperature.
    thetaJaCperW = (throttleJunctionC - ambientC) / spec.tdpW;
}

double
ThermalModel::junctionAt(double power_w) const
{
    return ambientC + thetaJaCperW * power_w;
}

double
ThermalModel::leakageTempFactor(double junction_c)
{
    // ~1.2% leakage growth per degree around the 60C reference.
    return std::max(0.5, 1.0 + 0.012 * (junction_c - 60.0));
}

ChipPowerModel::ChipPowerModel(const ProcessorSpec &spec)
    : processor(spec), thermalModel(spec)
{
}

PowerBreakdown
ChipPowerModel::compute(const MachineConfig &cfg, double clock_ghz,
                        const std::vector<double> &core_activity,
                        double llc_activity, double dram_gbs) const
{
    if (cfg.spec != &processor)
        panic("ChipPowerModel: config is for a different processor");
    const int activityCount = static_cast<int>(core_activity.size());
    if (activityCount != cfg.enabledCores)
        panic("ChipPowerModel: activity vector size mismatch");
    if (llc_activity < 0.0 || llc_activity > 1.0)
        panic("ChipPowerModel: llc activity out of range");

    const ProcessorSpec &s = processor;
    const MicroArch &ua = s.uarch();
    const TechNode &tech = s.tech();
    const double v = cfg.voltageAt(clock_ghz);
    const double v2f = v * v * clock_ghz;

    PowerBreakdown pb{0.0, 0.0, 0.0, 0.0, 0.0};

    // -- Core dynamic power -------------------------------------------
    const double coreCap = ua.coreCapNf130 * tech.capScale * s.powerCal;
    // An enabled-but-idle core still clocks at the gating quality of
    // its generation.
    const double idleFloor = ua.idleCoreFraction * 0.45;
    for (int core = 0; core < activityCount; ++core) {
        const double act = core_activity[core];
        if (act < 0.0 || act > 1.0)
            panic("ChipPowerModel: core activity out of range");
        pb.coreDynW += std::max(act, idleFloor) * coreCap * v2f;
    }

    // -- LLC power ------------------------------------------------------
    // From Nehalem on, the L3 sits in a separate uncore clock domain
    // with a per-generation ceiling.
    const double uncoreCap = familyUncoreClockCapGhz(s.family);
    const double llcClock = uncoreCap > 0.0
        ? std::min(clock_ghz, uncoreCap) : clock_ghz;
    const double llcCap =
        ua.llcCapNfPerMb130 * s.llcMb * tech.capScale * s.powerCal;
    pb.llcW = llcCap * v * v * llcClock * (0.15 + 0.50 * llc_activity);

    // -- Uncore power ---------------------------------------------------
    pb.uncoreW = s.uncoreBaseW +
        s.uncoreDynW * (clock_ghz / s.stockClockGhz) +
        0.03 * std::max(0.0, dram_gbs);

    // -- Leakage, thermally coupled --------------------------------------
    // BIOS-disabled cores are fully power gated; on pre-Nehalem parts
    // the gating is leaky. Nehalem additionally power gates *idle*
    // cores at runtime (C6), so they stop leaking too.
    const bool gatesIdle = familyPowerGatesIdleCores(s.family);
    int gatedCores = s.cores - cfg.enabledCores;
    if (gatesIdle) {
        for (int core = 0; core < activityCount; ++core)
            if (exactZero(core_activity[core]))
                ++gatedCores;
    }
    const double gatedLeak = gatesIdle ? 0.10 : 0.60;
    const double effTransistorsM = s.transistorsM -
        (1.0 - gatedLeak) * gatedCores * ua.coreTransistorsM;
    const double leakBase = leakPerMtranW130 * tech.leakScale *
        effTransistorsM * leakageVoltageFactor(tech, v) * s.leakCal;

    // Fixed point between leakage and junction temperature.
    pb.leakW = leakBase;
    for (int iter = 0; iter < 3; ++iter) {
        pb.junctionC = thermalModel.junctionAt(pb.total());
        pb.leakW = leakBase * ThermalModel::leakageTempFactor(pb.junctionC);
    }
    pb.junctionC = thermalModel.junctionAt(pb.total());

    return pb;
}

} // namespace lhr
