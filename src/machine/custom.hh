/**
 * @file
 * User-defined processors.
 *
 * The eight machines of the study are built in (machine/processor),
 * but a downstream user extending the methodology to other parts —
 * the paper itself wished for a 90nm Pentium M it could not isolate
 * a rail for — needs to define machines without editing the library.
 * CustomProcessor parses a simple `key = value` definition into a
 * ProcessorSpec that works with every model and the harness.
 *
 * Example definition:
 *
 *     id          = PentiumM (130)
 *     model       = Pentium M 735 (Banias class)
 *     family      = Core            # closest of the four families
 *     node_nm     = 130             # one of 130/65/45/32
 *     cores       = 1
 *     smt         = 1
 *     llc_mb      = 1
 *     clock_ghz   = 1.7
 *     fmin_ghz    = 0.6
 *     transistors_m = 77
 *     die_mm2     = 83
 *     tdp_w       = 24.5
 *     dram        = DDR-400
 *     veff_min    = 0.96
 *     veff_max    = 1.48
 *     uncore_base_w = 2.0
 */

#ifndef LHR_MACHINE_CUSTOM_HH
#define LHR_MACHINE_CUSTOM_HH

#include <istream>
#include <memory>
#include <string>

#include "machine/processor.hh"

namespace lhr
{

/**
 * A ProcessorSpec owned by the caller, built from a definition
 * stream. The returned object must outlive any MachineConfig or
 * model referring to it.
 */
class CustomProcessor
{
  public:
    /**
     * Parse a `key = value` definition ('#' comments, blank lines
     * allowed). Unknown keys and malformed values are fatal() —
     * definitions are user input. Numbers must be finite, and the
     * count keys (node_nm, cores, smt, turbo_steps_1c,
     * turbo_steps_allc) integers in int range. Missing optional
     * keys take defaults derived from the family and node.
     */
    static std::unique_ptr<CustomProcessor> parse(std::istream &is);

    /** Parse from a string (convenience). */
    static std::unique_ptr<CustomProcessor>
    parseString(const std::string &text);

    /** The spec, usable with stockConfig() and every model. */
    const ProcessorSpec &spec() const { return processorSpec; }

  private:
    CustomProcessor() = default;

    ProcessorSpec processorSpec;
};

} // namespace lhr

#endif // LHR_MACHINE_CUSTOM_HH
