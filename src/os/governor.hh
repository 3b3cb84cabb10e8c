/**
 * @file
 * Operating-system CPU control: frequency governors and context
 * offlining.
 *
 * The paper controlled core count, SMT, and clock via the BIOS
 * because operating-system control "was not sufficiently reliable.
 * For example, operating system scaling of hardware contexts often
 * caused power consumption to increase as hardware resources were
 * decreased! Extensive investigation revealed a bug in the Linux
 * kernel [bug #5471]" (section 2.8). This module models both the
 * cpufreq governors of the 2.6.31 kernel the paper ran and the buggy
 * offline path, so the methodological choice can be demonstrated
 * quantitatively (`lhrlab run ablation_os_scaling`).
 */

#ifndef LHR_OS_GOVERNOR_HH
#define LHR_OS_GOVERNOR_HH

#include <string>
#include <vector>

#include "machine/processor.hh"

namespace lhr
{

/** The cpufreq governors of the study-era kernel. */
enum class GovernorPolicy
{
    Performance,  ///< pin the highest frequency
    Powersave,    ///< pin the lowest frequency
    Ondemand,     ///< raise to max on load, decay when idle
    Userspace     ///< whatever userspace asked for
};

/** Printable policy name (sysfs spelling). */
std::string governorPolicyName(GovernorPolicy policy);

/**
 * A cpufreq governor driving one package's clock from utilization
 * samples, stepping through the part's P-state ladder.
 */
class CpuFreqGovernor
{
  public:
    /**
     * @param spec the processor (defines the frequency ladder)
     * @param policy the governor policy
     * @param pstates number of evenly spaced P-states
     */
    CpuFreqGovernor(const ProcessorSpec &spec, GovernorPolicy policy,
                    int pstates = 8);

    /**
     * Feed one utilization sample (0..1) and return the clock the
     * governor selects for the next interval.
     */
    double step(double utilization);

    /** Current selected clock. */
    double clockGhz() const;

    /** Userspace-requested frequency (Userspace policy only). */
    void setUserspaceGhz(double f_ghz);

    /** Ondemand thresholds from the 2.6.31 defaults. */
    static constexpr double upThreshold = 0.80;
    static constexpr double downDifferential = 0.10;

    const std::vector<double> &ladder() const { return pstateLadder; }

  private:
    const ProcessorSpec &processor;
    GovernorPolicy policyKind;
    std::vector<double> pstateLadder; ///< ascending GHz
    size_t currentIndex;
    double userspaceGhz;
};

/**
 * OS hot-unplug of hardware contexts, including the kernel bug the
 * paper hit: an offlined context enters the idle loop but — on the
 * affected kernels — fails to reach a deep C-state, so it keeps
 * clocking (polling in mwait-less idle) and draws MORE power than it
 * did sitting in the scheduler's idle class.
 */
struct OsContextScaling
{
    /**
     * Activity factor of an OS-offlined core.
     *
     * @param ua the core's microarchitecture
     * @param kernel_bug_5471 true on affected kernels (the paper's
     *        2.6.31 configuration)
     */
    static double offlinedCoreActivity(const MicroArch &ua,
                                       bool kernel_bug_5471);

    /**
     * Chip power of a single-threaded workload with `offlined`
     * cores removed by the OS instead of the BIOS. Returns the
     * power relative to the BIOS-disabled equivalent (> 1 means
     * "power increased as resources decreased").
     */
    static double osVsBiosPowerRatio(const ProcessorSpec &spec,
                                     int offlined,
                                     bool kernel_bug_5471);
};

} // namespace lhr

#endif // LHR_OS_GOVERNOR_HH
