/**
 * @file
 * The interval performance model.
 *
 * For each (benchmark, machine configuration) pair the model
 * computes a CPI stack per thread — issue-limited base CPI, branch
 * misprediction CPI, and memory CPI from the cache hierarchy and
 * DRAM — then composes threads onto cores (SMT slot filling) and
 * cores onto the chip (Amdahl's law with a DRAM bandwidth ceiling).
 *
 * The memory CPI term converts DRAM nanoseconds into cycles at the
 * configured clock, which is what makes performance scale
 * sub-linearly with frequency (paper section 3.3) and differently
 * for memory-bound and compute-bound workloads (Finding W3).
 */

#ifndef LHR_CPU_PERF_MODEL_HH
#define LHR_CPU_PERF_MODEL_HH

#include <vector>

#include "cache/hierarchy.hh"
#include "machine/processor.hh"
#include "workload/benchmark.hh"

namespace lhr
{

/** Per-thread CPI decomposition, in cycles per instruction. */
struct CpiStack
{
    double base;     ///< issue/ILP-limited component
    double branch;   ///< misprediction stalls
    double memory;   ///< cache and DRAM stalls

    double total() const { return base + branch + memory; }
    double ipc() const { return 1.0 / total(); }
};

/** Result of evaluating a benchmark on a configuration. */
struct PerfResult
{
    double timeSec;           ///< completion time of the workload
    double aggregateIps;      ///< time-averaged instructions per second
    int coresUsed;            ///< cores running application threads
    int threadsPerCore;       ///< SMT threads per used core
    /**
     * Time-averaged utilization (achieved IPC / issue width) of each
     * enabled core; idle enabled cores appear with 0.
     */
    std::vector<double> coreUtilization;
    double dramGBs;           ///< average DRAM traffic
    double llcActivity;       ///< 0..1, accesses beyond L1 density
    double bandwidthThrottle; ///< 1 = unconstrained by DRAM bandwidth
};

/**
 * The performance model for one processor. Construct once per
 * ProcessorSpec; evaluate() is pure and thread-safe.
 */
class PerfModel
{
  public:
    explicit PerfModel(const ProcessorSpec &spec);

    /**
     * CPI stack of one thread given capacity sharing.
     *
     * @param bench the workload
     * @param clock_ghz core clock
     * @param threads_on_core active SMT threads on the thread's core
     * @param cores_on_llc active cores per shared LLC instance
     */
    CpiStack threadCpi(const Benchmark &bench, double clock_ghz,
                       int threads_on_core, double cores_on_llc) const;

    /**
     * Aggregate IPC of one core running the given number of SMT
     * threads of this benchmark: the second thread fills idle issue
     * slots at the microarchitecture's SMT quality, while both
     * threads share the core's cache capacity.
     */
    double coreIpc(const Benchmark &bench, double clock_ghz,
                   int threads_on_core, double cores_on_llc) const;

    /**
     * Evaluate the full execution of a benchmark's computational
     * work on the configuration, at an explicit clock (the Turbo
     * governor may call this at boosted clocks).
     *
     * @param work_instructions total work, in instructions
     * @param app_threads thread count (0 = one per context)
     */
    PerfResult evaluate(const Benchmark &bench, const MachineConfig &cfg,
                        double clock_ghz, double work_instructions,
                        int app_threads) const;

    const ProcessorSpec &spec() const { return processor; }
    const CacheHierarchy &hierarchy() const { return caches; }

  private:
    const ProcessorSpec &processor;
    CacheHierarchy caches;
};

} // namespace lhr

#endif // LHR_CPU_PERF_MODEL_HH
