#include "machine/custom.hh"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>

#include "util/logging.hh"
#include "util/fp.hh"

namespace lhr
{

namespace
{

std::string
trim(const std::string &text)
{
    const auto first = text.find_first_not_of(" \t");
    if (first == std::string::npos)
        return "";
    const auto last = text.find_last_not_of(" \t");
    return text.substr(first, last - first + 1);
}

Family
parseFamily(const std::string &name)
{
    if (name == "NetBurst")
        return Family::NetBurst;
    if (name == "Core")
        return Family::Core;
    if (name == "Bonnell")
        return Family::Bonnell;
    if (name == "Nehalem")
        return Family::Nehalem;
    if (name == "SandyBridge")
        return Family::SandyBridge;
    if (name == "Haswell")
        return Family::Haswell;
    if (name == "Broadwell")
        return Family::Broadwell;
    if (name == "SkylakeSP")
        return Family::SkylakeSP;
    fatal("CustomProcessor: unknown family '" + name + "'");
}

Era
defaultEra(Family family, Node node)
{
    switch (family) {
      case Family::SandyBridge: return Era::SandyBridge;
      case Family::Haswell:     return Era::Haswell;
      case Family::Broadwell:   return Era::Broadwell;
      case Family::SkylakeSP:   return Era::Skylake;
      default: break;
    }
    switch (node) {
      case Node::Nm130: return Era::Paper130;
      case Node::Nm65:  return Era::Paper65;
      case Node::Nm45:  return Era::Paper45;
      default:          return Era::Paper32;
    }
}

double
parseNumber(const std::string &key, const std::string &value)
{
    char *end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0')
        fatal("CustomProcessor: bad number for " + key + ": '" +
              value + "'");
    // NaN would slip through every range check below, inf through
    // the positivity ones.
    if (!std::isfinite(parsed))
        fatal("CustomProcessor: non-finite number for " + key + ": '" +
              value + "'");
    return parsed;
}

/**
 * A count-like key: a finite number that is integral and fits an
 * int, so the conversion is exact rather than truncating (2.7) or
 * undefined (1e300).
 */
int
parseInt(const std::string &key, const std::string &value)
{
    const double parsed = parseNumber(key, value);
    if (!exactlyEqual(parsed, std::trunc(parsed)) ||
        parsed < static_cast<double>(std::numeric_limits<int>::min()) ||
        parsed > static_cast<double>(std::numeric_limits<int>::max()))
        fatal("CustomProcessor: " + key + " is not an int: '" + value +
              "'");
    return static_cast<int>(parsed);
}

} // namespace

std::unique_ptr<CustomProcessor>
CustomProcessor::parse(std::istream &is)
{
    std::map<std::string, std::string> kv;
    std::string line;
    size_t lineNo = 0;
    while (std::getline(is, line)) {
        ++lineNo;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;
        const auto eq = line.find('=');
        if (eq == std::string::npos)
            fatal(msgOf("CustomProcessor: line ", lineNo,
                        " is not 'key = value'"));
        kv[trim(line.substr(0, eq))] = trim(line.substr(eq + 1));
    }

    auto require = [&](const std::string &key) {
        const auto it = kv.find(key);
        if (it == kv.end())
            fatal("CustomProcessor: missing required key '" + key +
                  "'");
        return it->second;
    };
    auto number = [&](const std::string &key) {
        return parseNumber(key, require(key));
    };
    auto integer = [&](const std::string &key) {
        return parseInt(key, require(key));
    };
    auto optional = [&](const std::string &key, double fallback) {
        const auto it = kv.find(key);
        return it == kv.end() ? fallback
                              : parseNumber(key, it->second);
    };
    auto optionalInt = [&](const std::string &key, int fallback) {
        const auto it = kv.find(key);
        return it == kv.end() ? fallback : parseInt(key, it->second);
    };

    auto custom = std::unique_ptr<CustomProcessor>(
        new CustomProcessor());
    ProcessorSpec &spec = custom->processorSpec;

    spec.id = require("id");
    spec.model = kv.count("model") ? kv["model"] : spec.id;
    spec.sSpec = kv.count("sspec") ? kv["sspec"] : "custom";
    spec.codename = kv.count("codename") ? kv["codename"] : "custom";
    spec.family = parseFamily(require("family"));
    const int nm = integer("node_nm");
    spec.node = techNodeByNm(nm).node;
    spec.era = kv.count("era") ? parseEra(kv["era"])
                               : defaultEra(spec.family, spec.node);
    spec.releaseDate = kv.count("released") ? kv["released"] : "--";
    spec.releasePriceUsd = optional("price_usd", 0.0);

    spec.cores = integer("cores");
    spec.smtWays = integer("smt");
    spec.llcMb = number("llc_mb");
    spec.stockClockGhz = number("clock_ghz");
    spec.transistorsM = number("transistors_m");
    spec.dieMm2 = number("die_mm2");
    spec.tdpW = number("tdp_w");
    spec.fsbMhz = optional("fsb_mhz", 0.0);
    spec.dram = require("dram");
    spec.hasTurbo = !exactZero(optional("turbo", 0.0));

    const TechNode &tech = spec.tech();
    spec.fMinGhz = optional("fmin_ghz", spec.stockClockGhz);
    spec.vEffMin = optional("veff_min", tech.vMin + 0.1);
    spec.vEffMax = optional("veff_max", tech.vNominal);
    spec.vidMinV = optional("vid_min", spec.vEffMin);
    spec.vidMaxV = optional("vid_max", spec.vEffMax);
    spec.vGamma = optional("vgamma", 1.0);
    spec.uncoreBaseW = optional("uncore_base_w", 0.05 * spec.tdpW);
    spec.uncoreDynW = optional("uncore_dyn_w", 0.02 * spec.tdpW);
    spec.perfCal = optional("perf_cal", 1.0);
    spec.powerCal = optional("power_cal", 1.0);
    spec.leakCal = optional("leak_cal", 1.0);
    spec.turboVKickV = optional("turbo_vkick", 0.0);
    spec.turboStepGhz = optional("turbo_step_ghz", 0.133);
    spec.turboSteps1C = optionalInt("turbo_steps_1c", 2);
    spec.turboStepsAllC = optionalInt("turbo_steps_allc", 1);
    spec.avxClockPenalty = optional("avx_clock_penalty", 0.0);

    // Validate the physics-facing fields now, loudly.
    if (spec.cores < 1 || spec.smtWays < 1 || spec.smtWays > 2)
        fatal("CustomProcessor: cores/smt out of range");
    if (spec.llcMb <= 0.0 || spec.stockClockGhz <= 0.0 ||
        spec.transistorsM <= 0.0 || spec.tdpW <= 0.0) {
        fatal("CustomProcessor: non-positive physical parameter");
    }
    if (spec.fMinGhz > spec.stockClockGhz)
        fatal("CustomProcessor: fmin_ghz above clock_ghz");
    if (spec.vEffMin > spec.vEffMax)
        fatal("CustomProcessor: veff_min above veff_max");
    if (spec.avxClockPenalty < 0.0 || spec.avxClockPenalty >= 1.0)
        fatal("CustomProcessor: avx_clock_penalty out of [0, 1)");
    if (spec.hasTurbo &&
        (spec.turboStepGhz <= 0.0 || spec.turboSteps1C < 1 ||
         spec.turboStepsAllC < 1)) {
        fatal("CustomProcessor: invalid turbo parameters");
    }
    dramModel(spec.dram); // fatal on unknown memory

    return custom;
}

std::unique_ptr<CustomProcessor>
CustomProcessor::parseString(const std::string &text)
{
    std::istringstream is(text);
    return parse(is);
}

} // namespace lhr
