/**
 * @file
 * Micro-op-level pipeline simulation ("detailed mode").
 *
 * The analytic interval model (lhr::cpu) computes CPI stacks in
 * closed form. This module computes the same quantity by actually
 * issuing a synthetic micro-op trace through a superscalar pipeline
 * model — issue-width limits, a dependence-distance model of ILP, an
 * out-of-order window (or strict in-order issue for Bonnell), load
 * latencies probed from the structural cache simulator, and branch
 * misprediction flushes from a simulated predictor. The two layers
 * cross-validate in `lhrlab run ablation_pipesim` and
 * tests/test_pipesim.cc, the way detailed and functional modes of a
 * production simulator keep each other honest.
 *
 * A benchmark's micro-op stream and dependence draws depend only on
 * (benchmark, seed), not on the processor, so PipelineSim::runLanes
 * generates them once and drives several simulators ("lanes") from
 * the same blocks; PipelineSim::run is its one-lane case.
 */

#ifndef LHR_PIPESIM_PIPELINE_HH
#define LHR_PIPESIM_PIPELINE_HH

#include <cstdint>
#include <vector>

#include "cachesim/cache_sim.hh"
#include "machine/processor.hh"
#include "trace/generator.hh"

namespace lhr
{

class ThreadPool;

/** Pipeline geometry derived from a processor at a clock. */
struct PipelineConfig
{
    int issueWidth;          ///< micro-ops issued per cycle
    bool inOrder;            ///< Bonnell issues strictly in order
    int windowSize;          ///< ROB/scheduler reach (instructions)
    double branchPenalty;    ///< misprediction flush, cycles
    double issueEfficiency;  ///< front-end delivery efficiency
    double ilpExtraction;    ///< dependence-distance multiplier

    int l1LatencyCycles;     ///< load-to-use on an L1 hit
    /** Latency in cycles of a hit at each level beyond L1. */
    std::vector<int> levelLatencyCycles;
    int dramLatencyCycles;

    /**
     * Build the pipeline geometry of a processor at a clock:
     * issue/window parameters from its microarchitecture, memory
     * latencies from its cache hierarchy and DRAM converted to
     * cycles.
     */
    static PipelineConfig of(const ProcessorSpec &spec,
                             double clock_ghz);
};

/** Outcome of a pipeline simulation run. */
struct PipelineResult
{
    uint64_t instructions;
    double cycles;
    double ipc;

    /**
     * Attribution of per-op issue waits: the share caused by memory
     * (dependences on loads, window full behind a miss) and by
     * branch redirects. Shares of all accumulated waiting, not of
     * cycles — queued ops behind one miss each count their wait.
     */
    double memStallShare;
    double branchStallShare;
};

/**
 * The pipeline simulator: owns the structural caches and predictor
 * it probes, and consumes a TraceGenerator stream.
 */
class PipelineSim
{
  public:
    /**
     * @param config pipeline geometry
     * @param cache_levels (capacityKb, ways) pairs, innermost first
     */
    PipelineSim(const PipelineConfig &config,
                const std::vector<std::pair<double, int>> &cache_levels);

    /**
     * Issue `instructions` micro-ops of a benchmark's trace.
     *
     * @param bench the workload whose trace to run
     * @param seed trace seed
     * @param warmup unmeasured instructions to warm structures
     */
    PipelineResult run(const Benchmark &bench, uint64_t instructions,
                       uint64_t seed, uint64_t warmup = 100000);

    /**
     * Issue one benchmark's trace through several simulators. The
     * trace and the dependence draws are generated once per block
     * and shared; each lane keeps its own caches, predictor,
     * completion ring and counters. Result k is bit-identical to
     * sims[k]->run(bench, instructions, seed, warmup).
     *
     * @param sims distinct simulators, one per lane
     * @param pool when non-null, the lanes consume each block
     *        concurrently on the pool while the calling thread
     *        generates the next one; the pool must have no other
     *        work in flight. Null steps the lanes in lockstep on
     *        the calling thread.
     */
    static std::vector<PipelineResult> runLanes(
        const std::vector<PipelineSim *> &sims, const Benchmark &bench,
        uint64_t instructions, uint64_t seed, uint64_t warmup = 100000,
        ThreadPool *pool = nullptr);

  private:
    class Lane;

    /** Load-to-use latency of one access, probing the caches. */
    int loadLatency(uint64_t addr);

    PipelineConfig cfg;
    HierarchySim caches;
};

} // namespace lhr

#endif // LHR_PIPESIM_PIPELINE_HH
