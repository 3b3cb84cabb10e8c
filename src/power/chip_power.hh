/**
 * @file
 * Structure-level chip power model.
 *
 * Chip power is composed of per-core dynamic power
 * (activity · C_eff · V² · f), per-package leakage (technology- and
 * voltage-dependent, thermally coupled), LLC power, and uncore power
 * (memory controller, FSB/QPI/DMI, and — on Clarkdale/Pineview — the
 * GPU sharing the package). Disabled cores are clock- and (on
 * Nehalem) power-gated; enabled-but-idle cores draw the
 * microarchitecture's idle fraction.
 *
 * These terms are what produce the paper's power findings: TDP
 * overstating measured power (Figure 2), the wide benchmark power
 * range on i7/i5 (Section 2.5), the super-linear power cost of clock
 * on 45nm parts versus the flat i5 curve (Finding 3), the die-shrink
 * power halving (Findings 4-5), and the Turbo Boost premium
 * (Finding 8).
 */

#ifndef LHR_POWER_CHIP_POWER_HH
#define LHR_POWER_CHIP_POWER_HH

#include <vector>

#include "machine/processor.hh"

namespace lhr
{

/** Decomposed chip power in watts. */
struct PowerBreakdown
{
    double coreDynW;   ///< switching power of all cores
    double leakW;      ///< package leakage
    double llcW;       ///< last-level cache
    double uncoreW;    ///< memory controller, interconnect, GPU, IO
    double junctionC;  ///< steady-state junction temperature

    double total() const { return coreDynW + leakW + llcW + uncoreW; }
};

/**
 * Switching-activity factor from achieved utilization: even a
 * stalled core clocks its front end; a saturated FP core toggles
 * most of its datapath.
 */
double switchingActivity(double utilization, double fp_share);

/** Steady-state thermal model of one package. */
class ThermalModel
{
  public:
    explicit ThermalModel(const ProcessorSpec &spec);

    /** Junction temperature at the given package power. */
    double junctionAt(double power_w) const;

    /** Leakage multiplier at a junction temperature. */
    static double leakageTempFactor(double junction_c);

    static constexpr double ambientC = 40.0;
    static constexpr double throttleJunctionC = 97.0;

  private:
    double thetaJaCperW; ///< junction-to-ambient thermal resistance
};

/**
 * The power model for one processor. compute() is pure; thermal
 * coupling between power and leakage is resolved by fixed-point
 * iteration internally.
 */
class ChipPowerModel
{
  public:
    explicit ChipPowerModel(const ProcessorSpec &spec);

    /**
     * Chip power for one operating point.
     *
     * @param cfg the machine configuration (enabled cores, etc.)
     * @param clock_ghz operating clock (may be Turbo-boosted)
     * @param core_activity switching activity of each enabled core
     *        (0 = idle); size must equal cfg.enabledCores
     * @param llc_activity 0..1 LLC access density
     * @param dram_gbs DRAM traffic for the uncore term
     */
    PowerBreakdown compute(const MachineConfig &cfg, double clock_ghz,
                           const std::vector<double> &core_activity,
                           double llc_activity, double dram_gbs) const;

    const ThermalModel &thermal() const { return thermalModel; }

    /** Calibrated leakage per million transistors at 130nm/Vnom. */
    static constexpr double leakPerMtranW130 = 0.007;

  private:
    const ProcessorSpec &processor;
    ThermalModel thermalModel;
};

} // namespace lhr

#endif // LHR_POWER_CHIP_POWER_HH
