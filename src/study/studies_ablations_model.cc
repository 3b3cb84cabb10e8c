/**
 * @file
 * Ablation studies that exercise the modeling substrates directly
 * (statistics, OS behaviour, pipeline and trace simulation, JVM
 * methodology) — none of them measure through the memo cache, so
 * they all declare empty grids.
 */

#include "study/builtin.hh"

#include <cmath>
#include <optional>

#include "core/lab.hh"
#include "counters/hwcounters.hh"
#include "cpu/perf_model.hh"
#include "jvm/jvm_model.hh"
#include "os/governor.hh"
#include "pipesim/pipeline.hh"
#include "sensor/calibration.hh"
#include "sensor/channel.hh"
#include "stats/bootstrap.hh"
#include "stats/summary.hh"
#include "study/study.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

namespace lhr
{

namespace
{

void
runAblationBootstrap(Lab &, ReportContext &ctx)
{
    Sink &sink = ctx.out();
    sink.prose(
        "Ablation: t vs bootstrap 95% CIs at the paper's repetition\n"
        "counts (2000 trials of gaussian measurements, sd 1.5% of\n"
        " the mean — the harness's invocation noise)\n\n");

    sink.beginTable("coverage",
                    {{"n"}, {"t halfwidth %"}, {"t coverage %"},
                     {"boot halfwidth %"}, {"boot coverage %"}});

    const double trueMean = 100.0;
    const double sd = 1.5;
    Rng rng(2027);

    for (int n : {3, 5, 10, 20}) {
        double tWidth = 0.0, bootWidth = 0.0;
        int tCover = 0, bootCover = 0;
        const int trials = 2000;
        for (int trial = 0; trial < trials; ++trial) {
            std::vector<double> samples;
            Summary summary;
            for (int i = 0; i < n; ++i) {
                const double x = rng.gaussian(trueMean, sd);
                samples.push_back(x);
                summary.add(x);
            }
            tWidth += summary.ci95Relative();
            if (std::fabs(summary.mean() - trueMean) <= summary.ci95())
                ++tCover;
            const auto boot = bootstrapCi95(samples, rng, 400);
            bootWidth += boot.halfWidthRelative();
            if (boot.lo <= trueMean && trueMean <= boot.hi)
                ++bootCover;
        }
        sink.beginRow();
        sink.cell(static_cast<long>(n));
        sink.cell(100.0 * tWidth / trials, 2);
        sink.cell(100.0 * tCover / trials, 1);
        sink.cell(100.0 * bootWidth / trials, 2);
        sink.cell(100.0 * bootCover / trials, 1);
    }
    sink.endTable();

    sink.prose(
        "\nAt n=3 the bootstrap badly under-covers (it cannot see\n"
        "variation beyond three points); the paper's t intervals are\n"
        "the right call for SPEC's prescribed three runs.\n");
}

void
runAblationOsScaling(Lab &, ReportContext &ctx)
{
    Sink &sink = ctx.out();
    sink.prose(
        "Ablation (a): OS core offlining vs BIOS core disabling\n"
        "(power of a single-threaded run, OS / BIOS; > 1.00 means the\n"
        " OS path draws MORE power with FEWER usable cores)\n\n");
    {
        sink.beginTable("offlining",
                        {leftColumn("Processor"), {"Offlined"},
                         {"2.6.31 (bug #5471)"}, {"fixed kernel"}});
        for (const char *id : {"i7 (45)", "C2Q (65)", "i5 (32)"}) {
            const auto &spec = processorById(id);
            for (int offlined = 1; offlined < spec.cores;
                 offlined += 2) {
                sink.beginRow();
                sink.cell(spec.id);
                sink.cell(static_cast<long>(offlined));
                sink.cell(OsContextScaling::osVsBiosPowerRatio(
                              spec, offlined, true), 2);
                sink.cell(OsContextScaling::osVsBiosPowerRatio(
                              spec, offlined, false), 2);
            }
        }
        sink.endTable();
    }

    sink.prose(
        "\nAblation (b): cpufreq governors on a bursty load\n"
        "(i7 (45), alternating 95%/10% utilization phases)\n\n");
    {
        const auto &spec = processorById("i7 (45)");
        sink.beginTable("governors",
                        {leftColumn("Governor"), {"Mean GHz"},
                         {"GHz in busy phases"}});
        for (const auto policy :
             {GovernorPolicy::Performance, GovernorPolicy::Ondemand,
              GovernorPolicy::Powersave}) {
            CpuFreqGovernor governor(spec, policy);
            double sum = 0.0, busySum = 0.0;
            int busyCount = 0;
            const int samples = 400;
            for (int i = 0; i < samples; ++i) {
                const bool busy = (i / 20) % 2 == 0;
                const double f = governor.step(busy ? 0.95 : 0.10);
                sum += f;
                if (busy) {
                    busySum += f;
                    ++busyCount;
                }
            }
            sink.beginRow();
            sink.cell(governorPolicyName(policy));
            sink.cell(sum / samples, 2);
            sink.cell(busySum / busyCount, 2);
        }
        sink.endTable();
        sink.prose(
            "\nondemand tracks the bursts, but its clock depends on\n"
            "load history — the BIOS pin the paper uses is the only\n"
            "way to hold frequency constant per configuration.\n");
    }
}

void
runAblationPipesim(Lab &, ReportContext &ctx)
{
    // Long traces only became affordable with the O(log n) LRU
    // stack; 3M instructions tightens the IPC estimate an order of
    // magnitude over the old 300k cap.
    const uint64_t instructions = 3000000;
    const uint64_t seed = 99;
    const std::vector<std::string> procIds = {
        "i7 (45)", "C2D (65)", "Atom (45)", "Pentium4 (130)"};
    const std::vector<std::string> benchNames = {
        "hmmer", "gcc", "mcf", "xalan", "povray"};
    Sink &sink = ctx.out();

    // Each benchmark's trace drives all four processors as lanes of
    // one run; with more than one job the lanes run concurrently.
    // The lanes get a pool of their own, never the one running the
    // studies: lane tasks and their producer block on each other
    // through the trace's block ring, so in a shared FIFO pool whose
    // workers the producer and the other studies hold, a lane task
    // left queued would deadlock the run.
    std::optional<ThreadPool> pool;
    if (ctx.jobs() > 1)
        pool.emplace(std::min(ctx.jobs(), static_cast<int>(procIds.size())));
    std::vector<std::vector<PipelineResult>> byBench;
    for (const std::string &name : benchNames) {
        std::vector<PipelineSim> sims;
        sims.reserve(procIds.size());
        for (const std::string &id : procIds) {
            const auto &spec = processorById(id);
            sims.emplace_back(PipelineConfig::of(spec, spec.stockClockGhz),
                              structuralLevels(spec));
        }
        std::vector<PipelineSim *> lanes;
        lanes.reserve(sims.size());
        for (PipelineSim &sim : sims)
            lanes.push_back(&sim);
        byBench.push_back(PipelineSim::runLanes(
            lanes, benchmarkByName(name), instructions, seed, 100000,
            pool ? &*pool : nullptr));
    }

    sink.prose(msgOf(
        "Ablation: micro-op pipeline simulation vs analytic CPI\n(",
        instructions, "-instruction traces, IPC per thread)\n\n"));

    for (size_t p = 0; p < procIds.size(); ++p) {
        const auto &spec = processorById(procIds[p]);
        const PerfModel analytic(spec);

        sink.prose(spec.id + " @ " +
                   formatFixed(spec.stockClockGhz, 2) + " GHz:\n");
        sink.beginTable("ipc_" + spec.id,
                        {leftColumn("Benchmark"), {"IPC pipe"},
                         {"IPC analytic"}, {"ratio"}, {"mem wait %"},
                         {"branch wait %"}});
        for (size_t b = 0; b < benchNames.size(); ++b) {
            const auto &bench = benchmarkByName(benchNames[b]);
            const PipelineResult &r = byBench[b][p];
            const double analyticIpc =
                analytic.threadCpi(bench, spec.stockClockGhz, 1, 1.0)
                    .ipc();
            sink.beginRow();
            sink.cell(bench.name);
            sink.cell(r.ipc, 2);
            sink.cell(analyticIpc, 2);
            sink.cell(r.ipc / analyticIpc, 2);
            sink.cell(100.0 * r.memStallShare, 1);
            sink.cell(100.0 * r.branchStallShare, 1);
        }
        sink.endTable();
        sink.prose("\n");
    }

    sink.prose(
        "Both layers must agree on ordering (hmmer fastest, mcf\n"
        "slowest) and on the microarchitecture ranking per clock\n"
        "(Nehalem > Core > NetBurst ~ Bonnell). The detailed model\n"
        "sits systematically below the analytic one (it exposes L1\n"
        "latency on dependence chains the closed form folds into the\n"
        "base term); what must match is structure, not the constant.\n");
}

void
runAblationSensorRate(Lab &, ReportContext &ctx)
{
    Sink &sink = ctx.out();
    sink.prose(
        "Ablation: sampling-rate sensitivity of average power\n"
        "(paper methodology: 50Hz Hall-sensor logging)\n\n");

    // A phase-rich 30-second trace: base 45W, +-20% phases at a few
    // hertz plus GC-style spikes.
    const double durationSec = 30.0;
    auto truePowerAt = [](double t) {
        double w = 45.0;
        w *= 1.0 + 0.20 * std::sin(2.0 * M_PI * 1.3 * t);
        if (std::fmod(t, 2.7) < 0.12)
            w *= 1.35; // collector spike
        return w;
    };

    // Ground-truth average by fine integration.
    double truthSum = 0.0;
    const int fine = 300000;
    for (int i = 0; i < fine; ++i)
        truthSum += truePowerAt(durationSec * i / fine);
    const double truthW = truthSum / fine;

    const PowerChannel channel(SensorVariant::A30, 2024);
    Rng calRng(77);
    const auto cal = Calibration::calibrate(channel, calRng);

    sink.beginTable("rates",
                    {{"Rate Hz"}, {"Samples"}, {"Mean W"}, {"Err %"},
                     {"Run-to-run sd %"}});
    for (double rate : {1.0, 5.0, 10.0, 50.0, 200.0, 1000.0}) {
        Summary runs;
        for (int trial = 0; trial < 16; ++trial) {
            Rng rng(1000 + trial);
            const double phase0 = rng.uniform(0.0, 1.0);
            const int n = static_cast<int>(durationSec * rate);
            double sum = 0.0;
            for (int i = 0; i < n; ++i) {
                const double t =
                    std::fmod(phase0 + i / rate, durationSec);
                sum += cal.wattsFromCounts(
                    channel.sampleCounts(truePowerAt(t), rng));
            }
            runs.add(sum / n);
        }
        sink.beginRow();
        sink.cell(rate, 0);
        sink.cell(static_cast<long>(durationSec * rate));
        sink.cell(runs.mean(), 2);
        sink.cell(100.0 * (runs.mean() - truthW) / truthW, 2);
        sink.cell(100.0 * runs.stddev() / runs.mean(), 2);
    }
    sink.endTable();
    sink.prose("\nGround truth: " + formatFixed(truthW, 2) + " W\n");
}

void
runAblationTracesim(Lab &, ReportContext &ctx)
{
    const auto &i7 = processorById("i7 (45)");
    const uint64_t traceLength = 400000;
    Sink &sink = ctx.out();

    sink.prose(msgOf(
        "Ablation: structural trace simulation vs analytic curves\n"
        "(i7 (45) geometry, ", traceLength,
        "-instruction synthetic traces)\n\n"));

    sink.beginTable("mpki",
                    {leftColumn("Benchmark"), {"L1 MPKI sim"},
                     {"analytic"}, {"LLC MPKI sim"}, {"analytic"},
                     {"misp/Ki sim"}, {"target"}, {"dTLB MPKI"}});
    const auto hierarchy = makeHierarchy(i7);
    // db's row is also the offloaded-collector run below (no GC
    // displacement), so it is characterized once.
    double offloadedDtlbMpki = 0.0;
    for (const char *name :
         {"hmmer", "gcc", "mcf", "libquantum", "db", "xalan",
          "fluidanimate"}) {
        const auto &bench = benchmarkByName(name);
        const auto profile =
            characterizeWorkload(bench, i7, traceLength, 7);
        if (bench.name == "db")
            offloadedDtlbMpki = profile.dtlbMpki;

        const auto analytic = hierarchy.evaluate(bench.miss, 1.0, 1.0);

        sink.beginRow();
        sink.cell(bench.name);
        sink.cell(profile.l1Mpki, 1);
        sink.cell(analytic.l1Mpki, 1);
        sink.cell(profile.llcMpki, 2);
        sink.cell(analytic.dramMpki, 2);
        sink.cell(profile.branchMispKi, 1);
        sink.cell(bench.branchMispKi, 1);
        sink.cell(profile.dtlbMpki, 2);
    }
    sink.endTable();

    sink.prose(
        "\nGC DTLB displacement (the db effect): dTLB MPKI of db with\n"
        "a same-core collector vs an offloaded one:\n");
    const auto &db = benchmarkByName("db");
    const auto sameCore =
        characterizeWorkload(db, i7, traceLength, 7, 0.7);
    sink.prose(
        "  same-core GC: " + formatFixed(sameCore.dtlbMpki, 2) +
        "  offloaded GC: " + formatFixed(offloadedDtlbMpki, 2) +
        "  ratio: " +
        formatFixed(sameCore.dtlbMpki / offloadedDtlbMpki, 2) +
        " (paper: factor ~2.5 fewer DTLB misses with the\n"
        "   collector elsewhere)\n");
}

void
runAblationMethodology(Lab &lab, ReportContext &ctx)
{
    const auto &spec = processorById("i7 (45)");
    const auto cfg = withTurbo(stockConfig(spec), false);
    const auto &perf = lab.runner().perfModel(spec);
    Sink &sink = ctx.out();

    sink.prose(
        "Ablation (a): which iteration is reported (paper: the 5th)\n"
        "Reported time relative to steady state, all Java "
        "benchmarks:\n\n");
    {
        sink.beginTable("iterations",
                        {{"Iteration"}, {"Time vs steady"}});
        for (int iteration = 1; iteration <= 5; ++iteration) {
            sink.beginRow();
            sink.cell(static_cast<long>(iteration));
            sink.cell(JvmModel::warmupFactor(iteration), 2);
        }
        sink.endTable();
        sink.prose(
            "Reporting iteration 1 overstates every Java time by "
            "~55%\nand would corrupt every energy number downstream.\n");
    }

    sink.prose(
        "\nAblation (b): heap size (paper: 3x the minimum)\n"
        "Mean Java time and JVM service share vs heap factor:\n\n");
    {
        sink.beginTable("heap",
                        {{"Heap x min"}, {"Time vs 3x"},
                         {"Svc share (pjbb2005)"}});
        for (double heap : {1.5, 2.0, 3.0, 4.0, 6.0}) {
            Summary rel;
            for (const auto &bench : allBenchmarks()) {
                if (bench.language() != Language::Java)
                    continue;
                const double t = JvmModel::run(
                    perf, bench, cfg, cfg.clockGhz, heap).timeSec;
                const double t3 = JvmModel::run(
                    perf, bench, cfg, cfg.clockGhz).timeSec;
                rel.add(t / t3);
            }
            sink.beginRow();
            sink.cell(heap, 1);
            sink.cell(rel.mean(), 3);
            sink.cell(JvmModel::serviceAtHeap(
                          benchmarkByName("pjbb2005")
                              .jvmServiceFraction,
                          heap), 3);
        }
        sink.endTable();
        sink.prose(
            "A 1.5x heap roughly doubles GC work; beyond 3x the\n"
            "returns flatten — the methodology's choice is the knee.\n");
    }
}

std::vector<MachineConfig>
emptyGrid()
{
    return {};
}

} // namespace

void
registerModelAblationStudies(StudyRegistry &registry)
{
    registry.add(makeStudy(
        "ablation_bootstrap",
        "Ablation: t vs bootstrap confidence intervals",
        emptyGrid, runAblationBootstrap));

    registry.add(makeStudy(
        "ablation_methodology",
        "Ablation: Java reporting iteration and heap sizing",
        emptyGrid, runAblationMethodology));

    registry.add(makeStudy(
        "ablation_os_scaling",
        "Ablation: OS vs BIOS hardware control, cpufreq governors",
        emptyGrid, runAblationOsScaling));

    registry.add(makeStudy(
        "ablation_pipesim",
        "Ablation: pipeline simulation vs analytic CPI stacks",
        emptyGrid, runAblationPipesim));

    registry.add(makeStudy(
        "ablation_sensor_rate",
        "Ablation: sensor sampling-rate sensitivity",
        emptyGrid, runAblationSensorRate));

    registry.add(makeStudy(
        "ablation_tracesim",
        "Ablation: trace simulation vs analytic miss curves",
        emptyGrid, runAblationTracesim));
}

} // namespace lhr
