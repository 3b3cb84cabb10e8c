/**
 * @file
 * Tests for the micro-op pipeline simulator and its agreement with
 * the analytic CPI layer.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "counters/hwcounters.hh"
#include "cpu/perf_model.hh"
#include "pipesim/pipeline.hh"
#include "util/thread_pool.hh"

namespace lhr
{

namespace
{

std::vector<std::pair<double, int>>
levelsOf(const ProcessorSpec &spec)
{
    return structuralLevels(spec);
}

double
pipeIpc(const ProcessorSpec &spec, const char *bench_name,
        uint64_t seed = 7)
{
    PipelineSim pipe(PipelineConfig::of(spec, spec.stockClockGhz),
                     levelsOf(spec));
    return pipe.run(benchmarkByName(bench_name), 200000, seed).ipc;
}

} // namespace

TEST(PipelineConfig, DerivedFromProcessor)
{
    const auto &i7 = processorById("i7 (45)");
    const auto cfg = PipelineConfig::of(i7, 2.667);
    EXPECT_EQ(cfg.issueWidth, 4);
    EXPECT_FALSE(cfg.inOrder);
    EXPECT_EQ(cfg.windowSize, 128);
    EXPECT_EQ(cfg.levelLatencyCycles.size(), 2u); // L2, L3
    // DRAM at 2.667GHz and ~55ns is ~147 cycles.
    EXPECT_NEAR(cfg.dramLatencyCycles, 147, 5);
    EXPECT_DEATH(PipelineConfig::of(i7, 0.0), "clock");

    const auto atomCfg =
        PipelineConfig::of(processorById("Atom (45)"), 1.667);
    EXPECT_TRUE(atomCfg.inOrder);
    EXPECT_EQ(atomCfg.windowSize, 8);
}

TEST(PipelineSim, ValidatesInputs)
{
    const auto &i7 = processorById("i7 (45)");
    PipelineSim pipe(PipelineConfig::of(i7, 2.667), levelsOf(i7));
    EXPECT_DEATH(pipe.run(benchmarkByName("gcc"), 0, 1),
                 "zero instructions");
}

TEST(PipelineSim, DeterministicForEqualSeeds)
{
    const auto &i7 = processorById("i7 (45)");
    const auto cfg = PipelineConfig::of(i7, 2.667);
    PipelineSim a(cfg, levelsOf(i7)), b(cfg, levelsOf(i7));
    const auto ra = a.run(benchmarkByName("gcc"), 100000, 42);
    const auto rb = b.run(benchmarkByName("gcc"), 100000, 42);
    EXPECT_DOUBLE_EQ(ra.ipc, rb.ipc);
}

TEST(PipelineSim, ResultIsInternallyConsistent)
{
    const auto &i7 = processorById("i7 (45)");
    PipelineSim pipe(PipelineConfig::of(i7, 2.667), levelsOf(i7));
    const auto r = pipe.run(benchmarkByName("xalan"), 150000, 3);
    EXPECT_EQ(r.instructions, 150000u);
    EXPECT_GT(r.cycles, 0.0);
    EXPECT_NEAR(r.ipc, r.instructions / r.cycles, 1e-9);
    EXPECT_GE(r.memStallShare, 0.0);
    EXPECT_LE(r.memStallShare, 1.0);
    EXPECT_GE(r.branchStallShare, 0.0);
    EXPECT_LE(r.branchStallShare + r.memStallShare, 1.0 + 1e-9);
}

TEST(PipelineSim, IpcNeverExceedsIssueWidth)
{
    for (const char *id : {"i7 (45)", "Atom (45)"}) {
        const auto &spec = processorById(id);
        for (const char *name : {"hmmer", "mcf", "povray"}) {
            const double ipc = pipeIpc(spec, name);
            EXPECT_GT(ipc, 0.0) << id << "/" << name;
            EXPECT_LE(ipc, spec.uarch().issueWidth) << id << "/"
                                                    << name;
        }
    }
}

TEST(PipelineSim, BenchmarkOrderingMatchesAnalytic)
{
    // hmmer (compute) > gcc (mixed) > mcf (memory-bound), on both
    // modeling layers.
    const auto &i7 = processorById("i7 (45)");
    const double hmmer = pipeIpc(i7, "hmmer");
    const double gcc = pipeIpc(i7, "gcc");
    const double mcf = pipeIpc(i7, "mcf");
    EXPECT_GT(hmmer, gcc);
    EXPECT_GT(gcc, mcf);
}

TEST(PipelineSim, MicroarchitectureRankingMatchesAnalytic)
{
    // Per clock: Nehalem > Core > {NetBurst, Bonnell}.
    const double i7 = pipeIpc(processorById("i7 (45)"), "gcc");
    const double c2d = pipeIpc(processorById("C2D (65)"), "gcc");
    const double p4 = pipeIpc(processorById("Pentium4 (130)"), "gcc");
    const double atom = pipeIpc(processorById("Atom (45)"), "gcc");
    EXPECT_GT(i7, c2d);
    EXPECT_GT(c2d, p4);
    EXPECT_GT(c2d, atom);
}

TEST(PipelineSim, CorrelatesWithAnalyticIpc)
{
    // The detailed model sits below the analytic closed form but
    // must stay within a constant band of it across benchmarks.
    const auto &i7 = processorById("i7 (45)");
    const PerfModel analytic(i7);
    for (const char *name :
         {"hmmer", "gcc", "mcf", "xalan", "povray", "db"}) {
        const double ratio = pipeIpc(i7, name) /
            analytic.threadCpi(benchmarkByName(name),
                               i7.stockClockGhz, 1, 1.0).ipc();
        EXPECT_GT(ratio, 0.3) << name;
        EXPECT_LT(ratio, 1.5) << name;
    }
}

TEST(PipelineSim, WindowAndOrderingMatterForMemoryBoundCode)
{
    // Give the in-order Atom an out-of-order 128-entry window:
    // memory-bound code speeds up as its latency overlaps with
    // younger independent work.
    const auto &atom = processorById("Atom (45)");
    auto small = PipelineConfig::of(atom, atom.stockClockGhz);
    auto big = small;
    big.inOrder = false;
    big.windowSize = 128;

    PipelineSim memSmall(small, levelsOf(atom));
    PipelineSim memBig(big, levelsOf(atom));
    const double mcfSmall =
        memSmall.run(benchmarkByName("mcf"), 200000, 5).ipc;
    const double mcfBig =
        memBig.run(benchmarkByName("mcf"), 200000, 5).ipc;
    EXPECT_GT(mcfBig, 1.2 * mcfSmall);

    // And the out-of-order window also unserializes the frequent
    // short L1-latency waits of compute-bound code.
    PipelineSim cpuSmall(small, levelsOf(atom));
    PipelineSim cpuBig(big, levelsOf(atom));
    const double hmmerSmall =
        cpuSmall.run(benchmarkByName("hmmer"), 200000, 5).ipc;
    const double hmmerBig =
        cpuBig.run(benchmarkByName("hmmer"), 200000, 5).ipc;
    EXPECT_GT(hmmerBig, 1.1 * hmmerSmall);
}

TEST(PipelineSim, SharedTraceLanesMatchIndependentRuns)
{
    // ablation_pipesim's processors (Atom is an in-order Bonnell
    // lane) and benchmarks, at a short length whose warmup and total
    // are multiples of neither block size. Every lane of a shared-
    // trace run, lockstep or concurrent, must be bit-equal to an
    // independent run of its own simulator.
    const std::vector<const char *> procs = {"i7 (45)", "C2D (65)",
                                             "Atom (45)", "Pentium4 (130)"};
    const uint64_t instructions = 20000;
    const uint64_t warmup = 5000;
    const uint64_t seed = 99;
    auto makeSims = [&] {
        std::vector<PipelineSim> sims;
        for (const char *id : procs) {
            const auto &spec = processorById(id);
            sims.emplace_back(PipelineConfig::of(spec, spec.stockClockGhz),
                              levelsOf(spec));
        }
        return sims;
    };
    ThreadPool one(1), two(2), four(4);
    for (const char *name : {"hmmer", "gcc", "mcf", "xalan", "povray"}) {
        const Benchmark &bench = benchmarkByName(name);
        std::vector<PipelineResult> expected;
        for (PipelineSim &sim : makeSims())
            expected.push_back(sim.run(bench, instructions, seed, warmup));

        for (ThreadPool *pool : {static_cast<ThreadPool *>(nullptr),
                                 &one, &two, &four}) {
            std::vector<PipelineSim> sims = makeSims();
            std::vector<PipelineSim *> lanes;
            for (PipelineSim &sim : sims)
                lanes.push_back(&sim);
            const auto got = PipelineSim::runLanes(
                lanes, bench, instructions, seed, warmup, pool);
            ASSERT_EQ(got.size(), procs.size());
            const int threads = pool ? pool->threadCount() : 0;
            for (size_t k = 0; k < procs.size(); ++k) {
                SCOPED_TRACE(std::string(name) + " on " + procs[k] +
                             ", pool threads " + std::to_string(threads));
                EXPECT_EQ(got[k].instructions, instructions);
                EXPECT_EQ(got[k].cycles, expected[k].cycles);
                EXPECT_EQ(got[k].ipc, expected[k].ipc);
                EXPECT_EQ(got[k].memStallShare, expected[k].memStallShare);
                EXPECT_EQ(got[k].branchStallShare,
                          expected[k].branchStallShare);
            }
        }
    }
}

TEST(PipelineSim, LanesMustBeDistinct)
{
    const auto &i7 = processorById("i7 (45)");
    PipelineSim pipe(PipelineConfig::of(i7, 2.667), levelsOf(i7));
    EXPECT_DEATH(PipelineSim::runLanes({&pipe, &pipe},
                                       benchmarkByName("gcc"), 1000, 1),
                 "appears twice");
}

TEST(PipelineSim, MemoryBoundHasHigherMemWaitShare)
{
    const auto &i7 = processorById("i7 (45)");
    PipelineSim pipeMem(PipelineConfig::of(i7, 2.667), levelsOf(i7));
    PipelineSim pipeCpu(PipelineConfig::of(i7, 2.667), levelsOf(i7));
    const auto mem = pipeMem.run(benchmarkByName("mcf"), 200000, 5);
    const auto cpu = pipeCpu.run(benchmarkByName("hmmer"), 200000, 5);
    EXPECT_GT(mem.memStallShare, cpu.memStallShare - 0.02);
}

} // namespace lhr
