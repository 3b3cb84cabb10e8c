#include "machine/processor.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/logging.hh"

namespace lhr
{

namespace
{

// Table 3 of the paper, plus per-part calibration (fMin..powerCal).
const std::vector<ProcessorSpec> processors = {
    {
        "Pentium4 (130)", "Pentium 4", "SL6WF", "Northwood",
        Family::NetBurst, Node::Nm130, Era::Paper130, "May '03", 0.0,
        /* cores */ 1, /* smtWays */ 2, /* llcMb */ 0.5,
        /* clock */ 2.4, /* transM */ 55, /* die */ 131,
        /* vid */ 0.0, 0.0, /* tdp */ 66, /* fsb */ 800,
        "DDR-400", /* turbo */ false,
        /* fMin */ 2.4, /* vEff */ 1.50, 1.50, /* gamma */ 1.0,
        /* uncoreBase */ 5.0, /* uncoreDyn */ 3.0,
        /* perfCal */ 1.0, /* powerCal */ 0.97, /* leakCal */ 1.0,
        /* turboVKickV */ 0.0,
    },
    {
        "C2D (65)", "Core 2 Duo E6600", "SL9S8", "Conroe",
        Family::Core, Node::Nm65, Era::Paper65, "Jul '06", 316.0,
        2, 1, 4.0,
        2.4, 291, 143,
        0.85, 1.50, 65, 1066,
        "DDR2-800", false,
        1.6, 1.10, 1.30, 1.0,
        4.0, 2.0,
        1.0, 1.0, 1.0, 0.0,
    },
    {
        "C2Q (65)", "Core 2 Quad Q6600", "SL9UM", "Kentsfield",
        Family::Core, Node::Nm65, Era::Paper65, "Jan '07", 851.0,
        4, 1, 8.0,
        2.4, 582, 286,
        0.85, 1.50, 105, 1066,
        "DDR2-800", false,
        1.6, 1.10, 1.30, 1.0,
        6.0, 3.0,
        1.0, 1.12, 1.0, 0.0,
    },
    {
        "i7 (45)", "Core i7 920", "SLBCH", "Bloomfield",
        Family::Nehalem, Node::Nm45, Era::Paper45, "Nov '08", 284.0,
        4, 2, 8.0,
        2.667, 731, 263,
        0.80, 1.38, 130, 0,
        "DDR3-1066", true,
        1.6, 0.95, 1.25, 1.40,
        4.5, 1.5,
        1.0, 0.75, 0.45, 0.09,
    },
    {
        "Atom (45)", "Atom 230", "SLB6Z", "Diamondville",
        Family::Bonnell, Node::Nm45, Era::Paper45, "Jun '08", 29.0,
        1, 2, 0.5,
        1.667, 47, 26,
        0.90, 1.16, 4, 533,
        "DDR2-800-FSB533", false,
        1.2, 0.95, 1.10, 1.0,
        0.75, 0.30,
        1.0, 1.0, 1.0, 0.0,
    },
    {
        "C2D (45)", "Core 2 Duo E7600", "SLGTD", "Wolfdale",
        Family::Core, Node::Nm45, Era::Paper45, "May '09", 133.0,
        2, 1, 3.0,
        3.06, 228, 82,
        0.85, 1.36, 65, 1066,
        "DDR2-800", false,
        1.6, 0.97, 1.30, 1.50,
        3.0, 1.5,
        1.0, 1.0, 1.0, 0.0,
    },
    {
        "AtomD (45)", "Atom D510", "SLBLA", "Pineview",
        Family::Bonnell, Node::Nm45, Era::Paper45, "Dec '09", 63.0,
        2, 2, 1.0,
        1.667, 176, 87,
        0.80, 1.17, 13, 665,
        "DDR2-800-FSB665", false,
        1.2, 0.90, 1.05, 1.0,
        1.40, 0.40,
        1.0, 1.0, 1.0, 0.0,
    },
    {
        "i5 (32)", "Core i5 670", "SLBLT", "Clarkdale",
        Family::Nehalem, Node::Nm32, Era::Paper32, "Jan '10", 284.0,
        2, 2, 4.0,
        3.46, 382, 81,
        0.65, 1.40, 73, 0,
        "DDR3-1333", true,
        1.2, 1.05, 1.18, 0.80,
        3.5, 1.5,
        1.0, 0.88, 0.60, 0.015,
    },
};

// Post-2011 server parts (Hofmann et al. generations, PAPERS.md).
// Kept in a separate table so allProcessors() — and with it every
// paper-era grid and golden output — is unchanged. Trailing fields:
// turboStepGhz, turboSteps1C, turboStepsAllC, avxClockPenalty.
const std::vector<ProcessorSpec> postPaper = {
    {
        "XeonE5 (32)", "Xeon E5-2670", "SR0KX", "Sandy Bridge-EP",
        Family::SandyBridge, Node::Nm32, Era::SandyBridge,
        "Mar '12", 1552.0,
        /* cores */ 8, /* smtWays */ 2, /* llcMb */ 20.0,
        /* clock */ 2.6, /* transM */ 2270, /* die */ 416,
        /* vid */ 0.60, 1.35, /* tdp */ 115, /* fsb */ 0,
        "DDR3-1600", /* turbo */ true,
        /* fMin */ 1.2, /* vEff */ 0.80, 1.05, /* gamma */ 1.2,
        /* uncoreBase */ 14.0, /* uncoreDyn */ 7.0,
        /* perfCal */ 1.0, /* powerCal */ 0.90, /* leakCal */ 0.25,
        /* turboVKickV */ 0.020,
        /* turboStepGhz */ 0.1, /* steps1C */ 7, /* stepsAllC */ 4,
        /* avxClockPenalty */ 0.0,
    },
    {
        "XeonE5v3 (22)", "Xeon E5-2690 v3", "SR1XN", "Haswell-EP",
        Family::Haswell, Node::Nm22, Era::Haswell,
        "Sep '14", 2090.0,
        12, 2, 30.0,
        2.6, 3840, 492,
        0.65, 1.30, 135, 0,
        "DDR4-2133", true,
        1.2, 0.75, 1.00, 1.2,
        18.0, 9.0,
        1.0, 0.90, 0.25, 0.020,
        0.1, 9, 5, 0.10,
    },
    {
        "XeonE5v4 (14)", "Xeon E5-2697 v4", "SR2JV", "Broadwell-EP",
        Family::Broadwell, Node::Nm14, Era::Broadwell,
        "Mar '16", 2702.0,
        18, 2, 45.0,
        2.3, 7200, 456,
        0.60, 1.25, 145, 0,
        "DDR4-2400", true,
        1.2, 0.70, 0.95, 1.2,
        20.0, 10.0,
        1.0, 0.90, 0.25, 0.018,
        0.1, 13, 5, 0.12,
    },
    {
        "XeonSP (14)", "Xeon Gold 6148", "SR3B6", "Skylake-SP",
        Family::SkylakeSP, Node::Nm14, Era::Skylake,
        "Jul '17", 3072.0,
        20, 2, 27.5,
        2.4, 8000, 694,
        0.60, 1.25, 150, 0,
        "DDR4-2666", true,
        1.2, 0.70, 0.95, 1.2,
        24.0, 12.0,
        1.0, 0.90, 0.25, 0.018,
        0.1, 13, 7, 0.18,
    },
};

/**
 * Startup guard: ids must be unique across both spec tables, or
 * id-keyed stores and sweep shards would silently collide. Runs once
 * on first table access.
 */
bool
checkUniqueIds()
{
    std::vector<const std::vector<ProcessorSpec> *> tables = {
        &processors, &postPaper};
    std::vector<std::string> seen;
    for (const auto *table : tables) {
        for (const auto &spec : *table) {
            for (const auto &id : seen)
                if (id == spec.id)
                    panic(msgOf("duplicate processor id '", spec.id,
                                "' in spec tables"));
            seen.push_back(spec.id);
        }
    }
    return true;
}

const bool idsChecked = checkUniqueIds();

} // namespace

const MicroArch &
ProcessorSpec::uarch() const
{
    return microArch(family);
}

const TechNode &
ProcessorSpec::tech() const
{
    return techNode(node);
}

const DramModel &
ProcessorSpec::memory() const
{
    return dramModel(dram);
}

const std::vector<ProcessorSpec> &
allProcessors()
{
    return processors;
}

const std::vector<ProcessorSpec> &
postPaperProcessors()
{
    return postPaper;
}

const ProcessorSpec *
findProcessor(const std::string &id)
{
    for (const auto &spec : processors)
        if (spec.id == id)
            return &spec;
    for (const auto &spec : postPaper)
        if (spec.id == id)
            return &spec;
    return nullptr;
}

const ProcessorSpec &
processorById(const std::string &id)
{
    if (const ProcessorSpec *spec = findProcessor(id))
        return *spec;
    std::string valid;
    for (const auto &spec : processors)
        valid += (valid.empty() ? "'" : ", '") + spec.id + "'";
    for (const auto &spec : postPaper)
        valid += ", '" + spec.id + "'";
    panic(msgOf("processorById: unknown processor '", id,
                "' (valid ids: ", valid, ")"));
}

std::string
eraName(Era era)
{
    switch (era) {
      case Era::Paper130:    return "130nm";
      case Era::Paper65:     return "65nm";
      case Era::Paper45:     return "45nm";
      case Era::Paper32:     return "32nm";
      case Era::SandyBridge: return "sandy-bridge";
      case Era::Haswell:     return "haswell";
      case Era::Broadwell:   return "broadwell";
      case Era::Skylake:     return "skylake";
    }
    panic("eraName: unknown era");
}

Era
parseEra(const std::string &name)
{
    for (Era era : allEras())
        if (eraName(era) == name)
            return era;
    std::string valid;
    for (Era era : allEras())
        valid += (valid.empty() ? "'" : ", '") + eraName(era) + "'";
    panic(msgOf("parseEra: unknown era '", name,
                "' (valid: ", valid, ")"));
}

const std::vector<Era> &
allEras()
{
    static const std::vector<Era> eras = {
        Era::Paper130, Era::Paper65, Era::Paper45, Era::Paper32,
        Era::SandyBridge, Era::Haswell, Era::Broadwell, Era::Skylake};
    return eras;
}

CacheHierarchy
makeHierarchy(const ProcessorSpec &spec)
{
    // L1 latency is folded into base CPI, so its latencyNs is 0; it
    // still filters the access stream.
    using Scope = CacheScope;
    switch (spec.family) {
      case Family::NetBurst:
        return CacheHierarchy({
            {"L1", 16, 0.0, Scope::PerCore, 1},
            {"L2", 512, 7.5, Scope::PerCore, 1},
        }, spec.memory().latencyNs);
      case Family::Core:
        // Kentsfield pairs two Conroe dies: each 4MB L2 instance is
        // shared by two cores.
        return CacheHierarchy({
            {"L1", 32, 0.0, Scope::PerCore, 1},
            {"L2", spec.cores == 4 ? 4096.0 : spec.llcMb * 1024.0,
             spec.llcMb >= 4.0 ? 5.8 : 4.6, Scope::Shared, 2},
        }, spec.memory().latencyNs);
      case Family::Bonnell:
        return CacheHierarchy({
            {"L1", 24, 0.0, Scope::PerCore, 1},
            {"L2", 512, 4.8, Scope::PerCore, 1},
        }, spec.memory().latencyNs);
      case Family::Nehalem:
        return CacheHierarchy({
            {"L1", 32, 0.0, Scope::PerCore, 1},
            {"L2", 256, spec.node == Node::Nm32 ? 3.2 : 3.7,
             Scope::PerCore, 1},
            {"L3", spec.llcMb * 1024.0,
             spec.node == Node::Nm32 ? 11.0 : 14.0,
             Scope::Shared, spec.cores},
        }, spec.memory().latencyNs);
      case Family::SandyBridge:
      case Family::Haswell:
      case Family::Broadwell:
        // Ring-connected inclusive L3, 256kB private L2s.
        return CacheHierarchy({
            {"L1", 32, 0.0, Scope::PerCore, 1},
            {"L2", 256, spec.family == Family::SandyBridge ? 3.5 : 3.2,
             Scope::PerCore, 1},
            {"L3", spec.llcMb * 1024.0,
             spec.family == Family::SandyBridge ? 13.0 : 12.0,
             Scope::Shared, spec.cores},
        }, spec.memory().latencyNs);
      case Family::SkylakeSP:
        // Mesh uncore: L2 grows to 1MB, L3 shrinks to a
        // non-inclusive victim cache.
        return CacheHierarchy({
            {"L1", 32, 0.0, Scope::PerCore, 1},
            {"L2", 1024, 4.2, Scope::PerCore, 1},
            {"L3", spec.llcMb * 1024.0, 16.0,
             Scope::Shared, spec.cores},
        }, spec.memory().latencyNs);
    }
    panic("makeHierarchy: unknown family");
}

namespace
{

/**
 * head + printf(fields, args...) + tail in one allocation. The
 * formatted middle is sized by a first snprintf pass, so no length
 * of processor id or clock value can truncate it.
 */
template <typename... Args>
std::string
formatBetween(std::string_view head, std::string_view tail,
              const char *fields, Args... args)
{
    const int len = std::snprintf(nullptr, 0, fields, args...);
    if (len < 0)
        panic("formatBetween: cannot format configuration fields");
    const size_t mid = static_cast<size_t>(len);
    std::string out(head.size() + mid + tail.size(), '\0');
    head.copy(out.data(), head.size());
    // Writes mid characters plus a '\0' that tail (or the string's
    // own terminator) then covers.
    std::snprintf(out.data() + head.size(), mid + 1, fields, args...);
    tail.copy(out.data() + head.size() + mid, tail.size());
    return out;
}

} // namespace

std::string
MachineConfig::label() const
{
    return formatBetween(spec->id,
                         spec->hasTurbo && !turboEnabled ? " NoTB" : "",
                         " %dC%dT@%.1fGHz", enabledCores, smtPerCore,
                         clockGhz);
}

std::string
configKey(const MachineConfig &cfg, std::string_view suffix)
{
    return formatBetween(cfg.spec->id, suffix, "|%d|%d|%.6f|%d|",
                         cfg.enabledCores, cfg.smtPerCore, cfg.clockGhz,
                         cfg.turboEnabled ? 1 : 0);
}

double
MachineConfig::voltageAt(double f_ghz) const
{
    const ProcessorSpec &s = *spec;
    if (f_ghz <= s.fMinGhz)
        return s.vEffMin;
    const double span = s.stockClockGhz - s.fMinGhz;
    if (span <= 0.0)
        return s.vEffMax;
    if (f_ghz > s.stockClockGhz + 1e-9) {
        // Turbo overdrive: the governor raises VID per boost step.
        const double steps =
            (f_ghz - s.stockClockGhz) / s.turboStepGhz;
        return s.vEffMax + s.turboVKickV * steps;
    }
    const double x = (f_ghz - s.fMinGhz) / span;
    return s.vEffMin + (s.vEffMax - s.vEffMin) * std::pow(x, s.vGamma);
}

MachineConfig
stockConfig(const ProcessorSpec &spec)
{
    return {&spec, spec.cores, spec.smtWays, spec.stockClockGhz,
            spec.hasTurbo};
}

MachineConfig
withCores(const MachineConfig &base, int cores)
{
    if (cores < 1 || cores > base.spec->cores)
        panic(msgOf("withCores: ", cores, " cores out of range for ",
                    base.spec->id));
    MachineConfig cfg = base;
    cfg.enabledCores = cores;
    return cfg;
}

MachineConfig
withSmt(const MachineConfig &base, bool enabled)
{
    if (enabled && base.spec->smtWays < 2)
        panic(msgOf("withSmt: ", base.spec->id, " has no SMT"));
    MachineConfig cfg = base;
    cfg.smtPerCore = enabled ? 2 : 1;
    return cfg;
}

MachineConfig
withClock(const MachineConfig &base, double clock_ghz)
{
    if (clock_ghz < base.spec->fMinGhz - 1e-9 ||
        clock_ghz > base.spec->stockClockGhz + 1e-9) {
        panic(msgOf("withClock: ", clock_ghz, " GHz out of range for ",
                    base.spec->id));
    }
    MachineConfig cfg = base;
    cfg.clockGhz = clock_ghz;
    return cfg;
}

MachineConfig
withTurbo(const MachineConfig &base, bool enabled)
{
    if (enabled && !base.spec->hasTurbo)
        panic(msgOf("withTurbo: ", base.spec->id, " has no Turbo Boost"));
    MachineConfig cfg = base;
    cfg.turboEnabled = enabled;
    return cfg;
}

std::vector<MachineConfig>
configurations45nm()
{
    std::vector<MachineConfig> configs;

    // Atom 230: stock (1C2T) and SMT disabled.
    const auto atom = stockConfig(processorById("Atom (45)"));
    configs.push_back(atom);
    configs.push_back(withSmt(atom, false));

    // Atom D510: all four core/SMT combinations.
    const auto atomD = stockConfig(processorById("AtomD (45)"));
    configs.push_back(atomD);
    configs.push_back(withSmt(atomD, false));
    configs.push_back(withCores(atomD, 1));
    configs.push_back(withSmt(withCores(atomD, 1), false));

    // Core 2 Duo E7600: clock ladder plus single core.
    const auto c2d = stockConfig(processorById("C2D (45)"));
    configs.push_back(c2d);
    configs.push_back(withClock(c2d, 2.4));
    configs.push_back(withClock(c2d, 1.6));
    configs.push_back(withCores(c2d, 1));

    // Core i7 920: 19 configurations.
    const auto i7 = stockConfig(processorById("i7 (45)"));
    const auto i7NoTb = withTurbo(i7, false);
    for (int cores : {1, 2, 4}) {
        for (int smt : {1, 2}) {
            auto cfg = withCores(i7NoTb, cores);
            cfg.smtPerCore = smt;
            configs.push_back(cfg);                 // @2.7 NoTB
            configs.push_back(withClock(cfg, 1.6)); // @1.6
        }
    }
    configs.push_back(withClock(i7NoTb, 2.1));                    // 4C2T@2.1
    configs.push_back(withClock(withCores(i7NoTb, 1), 2.1));      // 1C2T@2.1
    configs.push_back(withClock(i7NoTb, 2.4));                    // 4C2T@2.4
    configs.push_back(withClock(withCores(i7NoTb, 1), 2.4));      // 1C2T@2.4
    configs.push_back(i7);                                        // stock TB
    configs.push_back(withSmt(i7, false));                        // 4C1T TB
    configs.push_back(withSmt(withCores(i7, 1), false));          // 1C1T TB

    return configs;
}

std::vector<MachineConfig>
standardConfigurations()
{
    std::vector<MachineConfig> configs;

    // Pentium 4: stock (1C2T) and SMT disabled.
    const auto p4 = stockConfig(processorById("Pentium4 (130)"));
    configs.push_back(p4);
    configs.push_back(withSmt(p4, false));

    // Core 2 Duo E6600: stock, single core, down-clocked.
    const auto c2d65 = stockConfig(processorById("C2D (65)"));
    configs.push_back(c2d65);
    configs.push_back(withCores(c2d65, 1));
    configs.push_back(withClock(c2d65, 1.6));

    // Core 2 Quad Q6600: stock, two cores, one core.
    const auto c2q = stockConfig(processorById("C2Q (65)"));
    configs.push_back(c2q);
    configs.push_back(withCores(c2q, 2));
    configs.push_back(withCores(c2q, 1));

    // All 29 45nm configurations.
    for (const auto &cfg : configurations45nm())
        configs.push_back(cfg);

    // Core i5 670: 8 configurations.
    const auto i5 = stockConfig(processorById("i5 (32)"));
    const auto i5NoTb = withTurbo(i5, false);
    configs.push_back(i5);                                   // stock TB
    configs.push_back(i5NoTb);                               // 2C2T NoTB
    configs.push_back(withSmt(i5NoTb, false));               // 2C1T
    configs.push_back(withCores(i5NoTb, 1));                 // 1C2T
    configs.push_back(withSmt(withCores(i5NoTb, 1), false)); // 1C1T NoTB
    configs.push_back(withSmt(withCores(i5, 1), false));     // 1C1T TB
    configs.push_back(withClock(i5NoTb, 1.73));              // 2C2T@1.7
    configs.push_back(withClock(i5NoTb, 1.2));               // 2C2T@1.2

    return configs;
}

namespace
{

/**
 * Ten-point BIOS ladder for one server part: the same knobs the
 * paper turned (core count, SMT, clock, Turbo) applied to a much
 * wider chip.
 */
std::vector<MachineConfig>
serverLadder(const ProcessorSpec &spec)
{
    std::vector<MachineConfig> configs;
    const auto stock = stockConfig(spec);
    const auto noTb = withTurbo(stock, false);
    configs.push_back(stock);                                 // stock TB
    configs.push_back(withSmt(stock, false));                 // TB, no SMT
    configs.push_back(noTb);
    configs.push_back(withSmt(noTb, false));
    configs.push_back(withCores(noTb, spec.cores / 2));
    configs.push_back(withCores(noTb, std::max(1, spec.cores / 4)));
    configs.push_back(withCores(noTb, 1));
    configs.push_back(withClock(noTb, 1.6));
    configs.push_back(withClock(noTb, 2.0));
    configs.push_back(withClock(withCores(noTb, spec.cores / 2), 1.6));
    return configs;
}

const ProcessorSpec &
eraServerPart(Era era)
{
    for (const auto &spec : postPaper)
        if (spec.era == era)
            return spec;
    panic(msgOf("eraServerPart: no server part for era ",
                eraName(era)));
}

} // namespace

std::vector<MachineConfig>
configurationsOfEra(Era era)
{
    switch (era) {
      case Era::Paper130:
      case Era::Paper65:
      case Era::Paper45:
      case Era::Paper32: {
        std::vector<MachineConfig> configs;
        for (const auto &cfg : standardConfigurations())
            if (cfg.spec->era == era)
                configs.push_back(cfg);
        return configs;
      }
      case Era::SandyBridge:
      case Era::Haswell:
      case Era::Broadwell:
      case Era::Skylake:
        return serverLadder(eraServerPart(era));
    }
    panic("configurationsOfEra: unknown era");
}

std::vector<EraConfigurations>
configurationsByEra()
{
    std::vector<EraConfigurations> eras;
    for (Era era : allEras())
        eras.push_back({era, configurationsOfEra(era)});
    return eras;
}

} // namespace lhr
