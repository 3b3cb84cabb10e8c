/**
 * @file
 * The eight experimental processors (paper Table 3) and the
 * BIOS-style configurator that produces the 45 experimental
 * configurations (paper section 2.8).
 *
 * Each ProcessorSpec carries the published Table 3 data (sSpec,
 * release, cores/SMT, LLC, clock, transistors, die area, VID range,
 * TDP, memory) plus per-part calibration: the effective DVFS voltage
 * span actually exercised between the lowest and highest clock
 * settings, uncore power terms, and scalar calibration factors
 * (real silicon requires per-part binning; ours requires per-part
 * fitting against the paper's Table 4).
 */

#ifndef LHR_MACHINE_PROCESSOR_HH
#define LHR_MACHINE_PROCESSOR_HH

#include <string>
#include <string_view>
#include <vector>

#include "cache/hierarchy.hh"
#include "mem/dram.hh"
#include "tech/node.hh"
#include "uarch/descriptor.hh"

namespace lhr
{

/**
 * Machine era: the paper's four process generations plus the
 * post-2011 server generations the era extension adds (ROADMAP
 * item 3). Paper eras group parts by node; server eras are one part
 * per microarchitecture generation.
 */
enum class Era
{
    Paper130,
    Paper65,
    Paper45,
    Paper32,
    SandyBridge,
    Haswell,
    Broadwell,
    Skylake
};

/** Printable era name, e.g. "45nm" or "haswell". */
std::string eraName(Era era);

/** Parse an era name as printed by eraName(); panic()s when unknown. */
Era parseEra(const std::string &name);

/** All eras in chronological order. */
const std::vector<Era> &allEras();

/** Static description of one experimental processor. */
struct ProcessorSpec
{
    std::string id;          ///< short paper id, e.g. "i7 (45)"
    std::string model;       ///< e.g. "Core i7 920"
    std::string sSpec;       ///< Intel sSpec number
    std::string codename;    ///< e.g. "Bloomfield"
    Family family;
    Node node;
    Era era;                 ///< machine era (see Era)
    std::string releaseDate;
    double releasePriceUsd;  ///< 0 when unpublished

    int cores;
    int smtWays;             ///< hardware threads per core (1 or 2)
    double llcMb;
    double stockClockGhz;
    double transistorsM;     ///< package transistor count, millions
    double dieMm2;
    double vidMinV;          ///< published VID range (0 = unpublished)
    double vidMaxV;
    double tdpW;
    double fsbMhz;           ///< 0 for QPI/DMI parts
    std::string dram;        ///< key into dramModel()
    bool hasTurbo;

    // -- Per-part calibration ----------------------------------------
    double fMinGhz;          ///< lowest BIOS clock setting
    double vEffMin;          ///< core voltage at fMinGhz
    double vEffMax;          ///< core voltage at stock clock
    double vGamma;           ///< V(f) curvature (1 = linear)
    double uncoreBaseW;      ///< constant uncore/IO/package power
    double uncoreDynW;       ///< uncore power term at stock clock
    double perfCal;          ///< scalar performance calibration
    double powerCal;         ///< scalar core-power calibration
    double leakCal;          ///< scalar leakage calibration
    /**
     * Extra core voltage per Turbo step above the stock clock: the
     * governor overdrives VID to hold the boosted frequency, which
     * is why Turbo is power-expensive on the i7 (paper Finding 8).
     */
    double turboVKickV;

    /** Microarchitecture descriptor. */
    const MicroArch &uarch() const;

    /** Technology node model. */
    const TechNode &tech() const;

    /** Attached memory model. */
    const DramModel &memory() const;

    // -- Turbo and AVX behavior (defaults match the paper parts) -----
    /** Turbo Boost step size: 133 MHz on Nehalem, 100 MHz later. */
    double turboStepGhz = 0.133;
    /** Turbo steps above stock with one active core. */
    int turboSteps1C = 2;
    /** Turbo steps above stock with all cores active. */
    int turboStepsAllC = 1;
    /**
     * Fractional clock reduction under a full AVX license (Haswell
     * onwards): the effective penalty scales with the workload's
     * floating-point share. 0 disables the model entirely.
     */
    double avxClockPenalty = 0.0;
};

/** All eight processors in Table 3 order. */
const std::vector<ProcessorSpec> &allProcessors();

/**
 * The post-2011 server parts (Sandy Bridge through Skylake-SP) in
 * release order. Kept out of allProcessors() so the paper-era grids
 * and golden outputs are untouched.
 */
const std::vector<ProcessorSpec> &postPaperProcessors();

/**
 * Look up a processor by its short id (e.g. "i5 (32)") across the
 * paper and post-paper tables.
 */
const ProcessorSpec &processorById(const std::string &id);

/** Look up a processor by id; nullptr when unknown. */
const ProcessorSpec *findProcessor(const std::string &id);

/** Build the cache hierarchy for a processor. */
CacheHierarchy makeHierarchy(const ProcessorSpec &spec);

/**
 * One experimental configuration: a processor with BIOS-controlled
 * core count, SMT, clock and Turbo Boost (paper section 2.8).
 */
struct MachineConfig
{
    const ProcessorSpec *spec;
    int enabledCores;
    int smtPerCore;       ///< 1 = SMT disabled, 2 = enabled
    double clockGhz;
    bool turboEnabled;

    /** Total hardware contexts visible to software. */
    int contexts() const { return enabledCores * smtPerCore; }

    /** "i7 (45) 4C2T@2.7GHz" (+" NoTB" when Turbo is disabled
     *  on a Turbo-capable part). */
    std::string label() const;

    /** Core voltage at a given clock from the part's V(f) curve. */
    double voltageAt(double f_ghz) const;
};

/**
 * Exact identity of a configuration: "id|cores|smt|clock|turbo|",
 * the clock printed with %.6f. It is the configuration prefix of
 * ExperimentRunner::keyOf, so configurations share a key exactly
 * when they share memo entries and random streams; grids
 * deduplicate on it. `suffix` is appended in the same allocation
 * (keyOf passes the benchmark name). label() is NOT a substitute
 * (it rounds the clock to 0.1GHz).
 */
std::string configKey(const MachineConfig &cfg,
                      std::string_view suffix = {});

/** The stock (as-sold) configuration of a processor. */
MachineConfig stockConfig(const ProcessorSpec &spec);

/** Copy of a config with a different enabled-core count. */
MachineConfig withCores(const MachineConfig &base, int cores);

/** Copy of a config with SMT enabled/disabled. */
MachineConfig withSmt(const MachineConfig &base, bool enabled);

/** Copy of a config down-clocked (or restored) to clock_ghz. */
MachineConfig withClock(const MachineConfig &base, double clock_ghz);

/** Copy of a config with Turbo Boost enabled/disabled. */
MachineConfig withTurbo(const MachineConfig &base, bool enabled);

/**
 * The full experimental configuration set: the 8 stock processors
 * plus the controlled variants, 45 configurations in all
 * (29 of them at 45nm, matching the paper's Pareto study).
 */
std::vector<MachineConfig> standardConfigurations();

/** The 45nm subset of standardConfigurations() (29 configs). */
std::vector<MachineConfig> configurations45nm();

/**
 * The configuration grid of one era: paper eras are the matching
 * subset of standardConfigurations(); each server era is a ten-point
 * BIOS ladder (core count, SMT, clock, Turbo) over its one part.
 */
std::vector<MachineConfig> configurationsOfEra(Era era);

/** One era's configuration grid, for configurationsByEra(). */
struct EraConfigurations
{
    Era era;
    std::vector<MachineConfig> configs;
};

/** Every era's grid in chronological order. */
std::vector<EraConfigurations> configurationsByEra();

} // namespace lhr

#endif // LHR_MACHINE_PROCESSOR_HH
