#include "counters/hwcounters.hh"

#include <algorithm>

#include "bpred/predictor.hh"
#include "cachesim/cache_sim.hh"
#include "trace/generator.hh"
#include "util/logging.hh"

namespace lhr
{

const char *
hwEventName(HwEvent event)
{
    switch (event) {
      case HwEvent::Instructions:       return "instructions";
      case HwEvent::MemAccesses:        return "mem-accesses";
      case HwEvent::L1dMisses:          return "L1d-misses";
      case HwEvent::L2Misses:           return "L2-misses";
      case HwEvent::LlcMisses:          return "LLC-misses";
      case HwEvent::BranchInstructions: return "branches";
      case HwEvent::BranchMispredicts:  return "branch-misses";
      case HwEvent::DtlbAccesses:       return "dTLB-accesses";
      case HwEvent::DtlbMisses:         return "dTLB-misses";
    }
    panic("hwEventName: unknown event");
}

CounterBank::CounterBank()
{
    counts.fill(0);
}

void
CounterBank::add(HwEvent event, uint64_t n)
{
    counts[static_cast<size_t>(event)] += n;
}

uint64_t
CounterBank::read(HwEvent event) const
{
    return counts[static_cast<size_t>(event)];
}

void
CounterBank::reset()
{
    counts.fill(0);
}

double
CounterBank::perKi(HwEvent event) const
{
    const uint64_t instructions = read(HwEvent::Instructions);
    if (instructions == 0)
        panic("CounterBank::perKi: no instructions counted");
    return read(event) * 1000.0 / static_cast<double>(instructions);
}

std::vector<std::pair<double, int>>
structuralLevels(const ProcessorSpec &spec)
{
    const CacheHierarchy hierarchy = makeHierarchy(spec);
    std::vector<std::pair<double, int>> levels;
    for (const auto &level : hierarchy.levels()) {
        const int ways = level.capacityKb <= 64 ? 8 : 16;
        levels.emplace_back(level.capacityKb, ways);
    }
    return levels;
}

Characterization
characterizeWorkload(const Benchmark &bench, const ProcessorSpec &spec,
                     uint64_t instructions, uint64_t seed,
                     double gc_displacement,
                     uint64_t warmup_instructions)
{
    if (instructions == 0)
        panic("characterizeWorkload: zero instructions");
    if (warmup_instructions == UINT64_MAX)
        warmup_instructions = instructions;

    // Build the structural hierarchy from the processor's geometry.
    HierarchySim caches(structuralLevels(spec));
    // Two-level DTLB reach differs by generation; model the
    // effective entry count.
    int tlbEntries = 64;
    switch (spec.family) {
      case Family::NetBurst: tlbEntries = 64; break;
      case Family::Core:     tlbEntries = 256; break;
      case Family::Bonnell:  tlbEntries = 64; break;
      case Family::Nehalem:  tlbEntries = 512; break;
      case Family::SandyBridge: tlbEntries = 512; break;
      case Family::Haswell:     tlbEntries = 1024; break;
      case Family::Broadwell:   tlbEntries = 1536; break;
      case Family::SkylakeSP:   tlbEntries = 1536; break;
    }
    TlbArray dtlb(tlbEntries);
    BimodalPredictor predictor(14);
    TraceGenerator trace(bench, seed);

    CounterBank counters;
    // A co-located collector interleaves fine-grained heap-scan
    // bursts with the application; each burst walks fresh pages
    // through the TLB and caches, displacing application state.
    const uint64_t gcPeriod = 20000;
    const int gcBurst = static_cast<int>(190.0 * gc_displacement);
    uint64_t gcScanAddr = 1ull << 44;

    // The trace arrives in SoA blocks (the profiling loop is a hot
    // path shared with pipesim; see trace/generator.hh).
    MicroOpBatch batch;
    const uint64_t total = warmup_instructions + instructions;
    for (uint64_t base = 0; base < total; base += batch.size()) {
        const size_t block = static_cast<size_t>(std::min<uint64_t>(
            MicroOpBatch::defaultSize, total - base));
        trace.fill(batch, block);

        for (size_t j = 0; j < block; ++j) {
            const uint64_t i = base + j;
            const bool measured = i >= warmup_instructions;
            if (measured)
                counters.add(HwEvent::Instructions);
            switch (batch.kindAt(j)) {
              case MicroOp::Kind::Alu:
                break;
              case MicroOp::Kind::Load:
              case MicroOp::Kind::Store: {
                const uint64_t addr = batch.addr[j];
                const bool tlbHit = dtlb.access(addr);
                const uint64_t beforeL1 = caches.level(0).misses();
                const size_t last = caches.levelCount() - 1;
                const uint64_t beforeLast =
                    caches.level(last).misses();
                caches.access(addr);
                if (measured) {
                    counters.add(HwEvent::MemAccesses);
                    counters.add(HwEvent::DtlbAccesses);
                    if (!tlbHit)
                        counters.add(HwEvent::DtlbMisses);
                    if (caches.level(0).misses() > beforeL1)
                        counters.add(HwEvent::L1dMisses);
                    if (caches.level(last).misses() > beforeLast)
                        counters.add(HwEvent::LlcMisses);
                }
                break;
              }
              case MicroOp::Kind::Branch: {
                const bool mispredicted = predictor.run(
                    batch.pc[j], batch.taken[j] != 0);
                if (measured) {
                    counters.add(HwEvent::BranchInstructions);
                    if (mispredicted)
                        counters.add(HwEvent::BranchMispredicts);
                }
                break;
              }
            }

            if (gcBurst > 0 && i > 0 && i % gcPeriod == 0) {
                // The collector's scan: sequential pages, polluting
                // the TLB and every cache level (unmeasured — the
                // counters profile application behaviour, as the
                // paper's instrumented HotSpot separates JVM from
                // application).
                for (int scan = 0; scan < gcBurst; ++scan) {
                    // Object scanning strides across pages: this is
                    // what displaces TLB state so effectively.
                    gcScanAddr += 4096 + 64;
                    dtlb.access(gcScanAddr);
                    caches.access(gcScanAddr);
                }
            }
        }
    }

    // L2 misses accumulate inside the simulated arrays (warmup and
    // GC traffic included); report the array totals.
    if (caches.levelCount() > 1)
        counters.add(HwEvent::L2Misses, caches.level(1).misses());

    Characterization result;
    result.counters = counters;
    result.l1Mpki = counters.perKi(HwEvent::L1dMisses);
    result.llcMpki = counters.perKi(HwEvent::LlcMisses);
    result.branchMispKi = counters.perKi(HwEvent::BranchMispredicts);
    result.dtlbMpki = counters.perKi(HwEvent::DtlbMisses);
    return result;
}

} // namespace lhr
