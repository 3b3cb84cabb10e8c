#include "trace/generator.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace lhr
{

AddressGenerator::AddressGenerator(const MissCurve &miss_curve,
                                   double accesses_per_instr,
                                   uint64_t seed)
    : curve(miss_curve), nextFreshBlock(0), stack(maxStackBlocks),
      rng(seed)
{
    if (accesses_per_instr <= 0.0)
        panic("AddressGenerator: non-positive access rate");
    alpha = curve.beta;

    // Cold misses happen at the curve's floor rate, independent of
    // capacity.
    coldProb = std::clamp(
        curve.coldMpki / (1000.0 * accesses_per_instr), 0.0, 0.9);

    // Match the reuse-distance tail to the curve at the 32KB
    // reference point: P(depth > 512 blocks) must equal the non-cold
    // part of the 32KB miss ratio.
    const double missRatio32 = std::clamp(
        (curve.missPerKi(32.0) - curve.coldMpki) /
            (1000.0 * accesses_per_instr) / std::max(1e-9, 1.0 - coldProb),
        1e-6, 1.0);
    // P(d > k) = (k / k0)^-alpha  =>  k0 = 512 * ratio^(1/alpha).
    // k0 far below one block is legitimate: it encodes a stream
    // whose reuse is overwhelmingly at the top of the stack.
    k0Blocks = std::max(1e-9, 512.0 * std::pow(missRatio32, 1.0 / alpha));

    // Constants of the depth distribution, hoisted out of the
    // per-access sampling path.
    wsBlocks = curve.workingSetKb * 1024.0 / lineBytes;
    invNegAlpha = -1.0 / alpha;
}

size_t
AddressGenerator::sampleDepth()
{
    // Inverse-CDF sampling of the Pareto tail, truncated at the
    // working set: the curve says reuse beyond it does not exist
    // (only cold misses do, and those are drawn separately).
    const double u = rng.uniformPositive();
    double depth = k0Blocks * std::pow(u, invNegAlpha);
    depth = std::min(depth, wsBlocks);
    if (depth >= static_cast<double>(maxStackBlocks))
        return maxStackBlocks;
    return static_cast<size_t>(std::max(1.0, depth));
}

uint64_t
AddressGenerator::next()
{
    uint32_t block = 0;
    const bool cold = rng.uniform() < coldProb;
    const size_t depth = cold ? maxStackBlocks : sampleDepth();

    if (!cold && depth <= stack.size()) {
        // Reuse the block at this stack depth; move it to the front.
        block = stack.touch(depth);
    } else {
        // Cold or deeper than anything seen: a fresh block.
        if (nextFreshBlock > UINT32_MAX)
            panic("AddressGenerator: more than 2^32 fresh blocks");
        block = static_cast<uint32_t>(nextFreshBlock++);
        stack.pushFront(block);
    }
    // Block ids count from 0; addresses start at block 2^40.
    return ((1ull << 40) + block) * lineBytes +
        rng.below(lineBytes / 8) * 8;
}

TraceGenerator::TraceGenerator(const Benchmark &bench, uint64_t seed)
    : memAccessPerInstr(bench.memAccessPerInstr),
      addresses(bench.miss, bench.memAccessPerInstr, seed ^ 0xADD2),
      rng(seed), instructionPc(0x400000)
{
    // Build a static-branch population whose mix of easy (strongly
    // biased) and hard (weakly biased) branches reproduces the
    // benchmark's misprediction rate under a 2-bit/gshare scheme:
    // hard branches mispredict at roughly min(b, 1-b).
    const double targetMispPerBranch =
        bench.branchMispKi / (branchPerInstr * 1000.0);
    const double easyRate = 0.02; // 0.99-biased branch under 2-bit
    const double hardRate = 0.36; // 0.70-biased branch under 2-bit
    const double hardFraction = std::clamp(
        (targetMispPerBranch - easyRate) / (hardRate - easyRate), 0.0,
        1.0);

    Rng pool(seed ^ 0xB4A2C4);
    staticBranchPool.reserve(staticBranches);
    for (int i = 0; i < staticBranches; ++i) {
        const bool hard = pool.uniform() < hardFraction;
        const double bias = hard
            ? 0.70 + pool.uniform(-0.05, 0.05)
            : (pool.uniform() < 0.5 ? 0.99 : 0.01);
        staticBranchPool.push_back(
            {0x400000ull + 16ull * i, bias});
    }
}

MicroOp
TraceGenerator::generate()
{
    instructionPc += 4;
    const double roll = rng.uniform();

    if (roll < branchPerInstr) {
        // The pool always holds exactly staticBranches entries; the
        // compile-time bound lets the modulo fold into a mask.
        const auto &branch = staticBranchPool[rng.below(
            static_cast<uint64_t>(staticBranches))];
        return {MicroOp::Kind::Branch, 0, branch.pc,
                rng.uniform() < branch.takenBias};
    }
    if (roll < branchPerInstr + memAccessPerInstr) {
        const bool store = rng.uniform() < 0.3;
        return {store ? MicroOp::Kind::Store : MicroOp::Kind::Load,
                addresses.next(), instructionPc, false};
    }
    return {MicroOp::Kind::Alu, 0, instructionPc, false};
}

MicroOp
TraceGenerator::next()
{
    return generate();
}

void
TraceGenerator::fill(MicroOpBatch &batch, size_t count)
{
    batch.resize(count);
    for (size_t i = 0; i < count; ++i) {
        const MicroOp op = generate();
        batch.kind[i] = static_cast<uint8_t>(op.kind);
        batch.addr[i] = op.addr;
        batch.pc[i] = op.pc;
        batch.taken[i] = op.taken ? 1 : 0;
    }
}

} // namespace lhr
