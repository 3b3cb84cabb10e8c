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

OperatingPoint
ChipPowerModel::prepare(const MachineConfig &cfg, double clock_ghz) const
{
    if (cfg.spec != &processor)
        panic("ChipPowerModel: config is for a different processor");

    const ProcessorSpec &s = processor;
    const MicroArch &ua = s.uarch();
    const TechNode &tech = s.tech();
    OperatingPoint op;
    op.spec = &s;
    op.thermal = &thermalModel;
    op.enabledCores = cfg.enabledCores;
    op.clockGhz = clock_ghz;
    op.v = cfg.voltageAt(clock_ghz);
    op.v2f = op.v * op.v * clock_ghz;
    op.coreCap = ua.coreCapNf130 * tech.capScale * s.powerCal;
    // An enabled-but-idle core still clocks at the gating quality of
    // its generation.
    op.idleFloor = ua.idleCoreFraction * 0.45;
    // From Nehalem on, the L3 sits in a separate uncore clock domain
    // with a per-generation ceiling.
    const double uncoreCap = familyUncoreClockCapGhz(s.family);
    op.llcClock = uncoreCap > 0.0 ? std::min(clock_ghz, uncoreCap)
                                  : clock_ghz;
    op.llcCap = ua.llcCapNfPerMb130 * s.llcMb * tech.capScale * s.powerCal;
    op.gatesIdle = familyPowerGatesIdleCores(s.family);
    op.leakPerMtran = leakPerMtranW130 * tech.leakScale;
    op.coreTransistorsM = ua.coreTransistorsM;
    op.leakVoltage = leakageVoltageFactor(tech, op.v);
    return op;
}

PowerBreakdown
OperatingPoint::at(const std::vector<double> &core_activity,
                   double llc_activity, double dram_gbs) const
{
    const int activityCount = static_cast<int>(core_activity.size());
    if (activityCount != enabledCores)
        panic("ChipPowerModel: activity vector size mismatch");
    if (llc_activity < 0.0 || llc_activity > 1.0)
        panic("ChipPowerModel: llc activity out of range");

    const ProcessorSpec &s = *spec;
    PowerBreakdown pb{0.0, 0.0, 0.0, 0.0, 0.0};

    // -- Core dynamic power -------------------------------------------
    for (int core = 0; core < activityCount; ++core) {
        const double act = core_activity[core];
        if (act < 0.0 || act > 1.0)
            panic("ChipPowerModel: core activity out of range");
        pb.coreDynW += std::max(act, idleFloor) * coreCap * v2f;
    }

    // -- LLC power ------------------------------------------------------
    pb.llcW = llcCap * v * v * llcClock * (0.15 + 0.50 * llc_activity);

    // -- Uncore power ---------------------------------------------------
    pb.uncoreW = s.uncoreBaseW +
        s.uncoreDynW * (clockGhz / s.stockClockGhz) +
        0.03 * std::max(0.0, dram_gbs);

    // -- Leakage, thermally coupled --------------------------------------
    // BIOS-disabled cores are fully power gated; on pre-Nehalem parts
    // the gating is leaky. Nehalem additionally power gates *idle*
    // cores at runtime (C6), so they stop leaking too.
    int gatedCores = s.cores - enabledCores;
    if (gatesIdle) {
        for (int core = 0; core < activityCount; ++core)
            if (exactZero(core_activity[core]))
                ++gatedCores;
    }
    const double gatedLeak = gatesIdle ? 0.10 : 0.60;
    const double effTransistorsM = s.transistorsM -
        (1.0 - gatedLeak) * gatedCores * coreTransistorsM;
    const double leakBase =
        leakPerMtran * effTransistorsM * leakVoltage * s.leakCal;

    // Fixed point between leakage and junction temperature.
    pb.leakW = leakBase;
    for (int iter = 0; iter < 3; ++iter) {
        pb.junctionC = thermal->junctionAt(pb.total());
        pb.leakW = leakBase * ThermalModel::leakageTempFactor(pb.junctionC);
    }
    pb.junctionC = thermal->junctionAt(pb.total());

    return pb;
}

PowerBreakdown
ChipPowerModel::compute(const MachineConfig &cfg, double clock_ghz,
                        const std::vector<double> &core_activity,
                        double llc_activity, double dram_gbs) const
{
    return prepare(cfg, clock_ghz).at(core_activity, llc_activity,
                                      dram_gbs);
}

} // namespace lhr
