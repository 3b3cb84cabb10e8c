/**
 * @file
 * Synthetic execution trace generation.
 *
 * The paper characterizes workloads with hardware event counters
 * (e.g. the DTLB counts that explained db's CMP speedup, section
 * 3.1). We have no real binaries to count, so this module generates
 * synthetic micro-op traces whose statistics are derived from each
 * benchmark's descriptor:
 *
 *  - memory addresses follow an LRU-stack-distance model: reuse
 *    distances are Pareto-distributed with the benchmark's locality
 *    exponent, so a cache of capacity C misses at the rate the
 *    analytic MissCurve predicts — the trace substrate and the
 *    interval model cross-validate (see `lhrlab run
 *    ablation_tracesim`);
 *  - cold/streaming misses touch never-seen blocks at the curve's
 *    floor rate;
 *  - branches are drawn from a static-branch population whose biases
 *    reproduce the benchmark's misprediction rate under a realistic
 *    predictor.
 */

#ifndef LHR_TRACE_GENERATOR_HH
#define LHR_TRACE_GENERATOR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/lru_stack.hh"
#include "util/rng.hh"
#include "workload/benchmark.hh"

namespace lhr
{

/** One micro-operation of a synthetic trace. */
struct MicroOp
{
    enum class Kind
    {
        Alu,
        Load,
        Store,
        Branch
    };

    Kind kind;
    uint64_t addr;   ///< byte address (loads/stores), 0 otherwise
    uint64_t pc;     ///< static instruction address
    bool taken;      ///< branch outcome (branches only)
};

/**
 * A block of micro-ops in structure-of-arrays layout, filled in one
 * call by TraceGenerator::fill() so hot consumers (the pipeline
 * simulator, the workload characterizer) iterate flat arrays
 * instead of pulling one struct at a time through the generator.
 */
struct MicroOpBatch
{
    /** Default block size consumers request per fill. */
    static constexpr size_t defaultSize = 4096;

    std::vector<uint8_t> kind;   ///< MicroOp::Kind values
    std::vector<uint64_t> addr;  ///< byte address, 0 for non-memory
    std::vector<uint64_t> pc;    ///< static instruction address
    std::vector<uint8_t> taken;  ///< branch outcome (branches only)

    size_t size() const { return kind.size(); }

    void resize(size_t n)
    {
        kind.resize(n);
        addr.resize(n);
        pc.resize(n);
        taken.resize(n);
    }

    MicroOp::Kind kindAt(size_t i) const
    {
        return static_cast<MicroOp::Kind>(kind[i]);
    }
};

/**
 * Generates memory addresses with a prescribed reuse-distance
 * distribution using the LRU-stack model: each access either reuses
 * the block at a Pareto-distributed stack depth (moving it to the
 * front) or touches a fresh block (a cold/streaming miss).
 */
class AddressGenerator
{
  public:
    /**
     * @param curve the miss curve the stream must reproduce
     * @param accesses_per_instr memory accesses per instruction
     * @param seed deterministic stream seed
     */
    AddressGenerator(const MissCurve &curve, double accesses_per_instr,
                     uint64_t seed);

    /** Next accessed byte address. */
    uint64_t next();

    /** Cache line size assumed by the stack model. */
    static constexpr uint64_t lineBytes = 64;

    /** Bound on the modeled stack (blocks); beyond is cold. */
    static constexpr size_t maxStackBlocks = 1u << 20;

    /** Pareto scale parameter derived from the curve (blocks). */
    double paretoScaleBlocks() const { return k0Blocks; }

    /** Probability an access is a cold/streaming miss. */
    double coldProbability() const { return coldProb; }

  private:
    size_t sampleDepth();

    MissCurve curve;
    double alpha;        ///< Pareto shape (the curve's beta)
    double k0Blocks;     ///< Pareto scale in blocks
    double coldProb;
    double wsBlocks;     ///< working-set truncation depth (blocks)
    double invNegAlpha;  ///< -1/alpha, hoisted out of sampleDepth
    uint64_t nextFreshBlock;
    LruStack stack;      ///< order-statistic move-to-front stack
    Rng rng;
};

/**
 * A static branch with a fixed taken-bias, as a real conditional in
 * a loop or condition would have.
 */
struct StaticBranch
{
    uint64_t pc;
    double takenBias;   ///< probability the branch is taken
};

/**
 * Generates a full micro-op stream for a benchmark: ALU ops,
 * loads/stores through an AddressGenerator, and branches drawn from
 * a static-branch population.
 */
class TraceGenerator
{
  public:
    TraceGenerator(const Benchmark &bench, uint64_t seed);

    /** Next micro-op of the stream. */
    MicroOp next();

    /**
     * Fill `batch` with the next `count` micro-ops of the stream, in
     * structure-of-arrays layout. The generated stream is identical
     * to `count` successive next() calls.
     */
    void fill(MicroOpBatch &batch, size_t count);

    /** Branch frequency used by the stream (per instruction). */
    static constexpr double branchPerInstr = 0.18;

    /** Number of static branches modeled. */
    static constexpr int staticBranches = 256;

    const std::vector<StaticBranch> &branches() const
    {
        return staticBranchPool;
    }

  private:
    /** Shared generation path behind next() and fill(). */
    MicroOp generate();

    double memAccessPerInstr;
    AddressGenerator addresses;
    std::vector<StaticBranch> staticBranchPool;
    Rng rng;
    uint64_t instructionPc;
};

} // namespace lhr

#endif // LHR_TRACE_GENERATOR_HH
