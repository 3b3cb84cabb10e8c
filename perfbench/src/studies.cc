/**
 * @file
 * The `studies` workload: `lhrlab run --all`, what a user of the
 * reproduction waits for. Nearly all of its time is in pipesim,
 * trace, cachesim and stats; harness and sensor are about 1%.
 *
 * End to end, it times whole `lhrlab run --all --jobs 4 --format json`
 * processes. The traced run replays the same study list in process,
 * alternately without and with a span around each study's runStudy,
 * and times the layer calls the heaviest studies make, on those
 * studies' own inputs.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>

#include "bench.hh"
#include "core/lab.hh"
#include "counters/hwcounters.hh"
#include "pipesim/pipeline.hh"
#include "proc.hh"
#include "stats.hh"
#include "stats/summary.hh"
#include "stats/bootstrap.hh"
#include "study/study.hh"
#include "trace.hh"
#include "trace/generator.hh"
#include "util/env.hh"

namespace fs = std::filesystem;

namespace perfbench
{

namespace
{

/** Studies reported one by one; the rest are summed. */
const char *const namedStudies[] = {"ablation_pipesim", "ablation_tracesim",
                                    "ablation_bootstrap", "table2",
                                    "pareto_history"};

/** Lab set-ups per run; setup_s is their median. */
constexpr int setupReps = 7;

/** In-process replays of the traced run: untraced, traced, and so on. */
constexpr int replays = 4;

/** The studies with checked-in golden text output. */
const char *const goldenStudies[] = {"fig04", "fig05", "table3"};

/** Set-up: what `run --all` does before its first study runs. */
double
timedPrewarm(const Options &opt, Tracer &tracer)
{
    const Clock::time_point start = Clock::now();
    auto lab = std::make_unique<lhr::Lab>(opt.seed);
    tracer.span("study.prewarm", [&] {
        lab->prewarm(lhr::unionGrid(lhr::StudyRegistry::instance().all()),
                     {.threads = loadThreads});
    });
    const double took = secondsSince(start);
    lab.reset();
    return took;
}

struct RunAll
{
    double wallSec = 0.0;
    ExitInfo exit;
};

RunAll
runAllProcess(const Options &opt, const fs::path &out_dir)
{
    fs::remove_all(out_dir);
    const std::vector<std::string> argv = {
        opt.lhrlab, "run", "--all", "--jobs", std::to_string(loadThreads),
        "--format", "json", "--out", out_dir.string(), "--seed",
        std::to_string(opt.seed)};
    const Clock::time_point start = Clock::now();
    RunAll run;
    run.exit = runToCompletion(argv, opt.work + "/studies.log");
    run.wallSec = secondsSince(start);
    return run;
}

/**
 * Count studies of `dir` that are missing, empty, or differ from the
 * reference tree; every registered study must be present.
 */
uint64_t
countMismatches(const fs::path &dir, const fs::path &reference,
                Report &report)
{
    uint64_t bad = 0;
    for (const lhr::Study *study : lhr::StudyRegistry::instance().all()) {
        const std::string file = study->name() + ".json";
        const std::string got = readFile(dir / file);
        if (got.empty() || got != readFile(reference / file)) {
            ++bad;
            report.problem("studies: " + (dir / file).string() +
                           " is missing or differs from " +
                           (reference / file).string());
        }
    }
    return bad;
}

/** At the default seed, the text reports must equal tests/golden. */
void
checkGoldens(const Options &opt, Report &report)
{
    const fs::path dir = fs::path(opt.work) / "studies-golden";
    fs::remove_all(dir);
    std::vector<std::string> argv = {opt.lhrlab, "run"};
    for (const char *name : goldenStudies)
        argv.emplace_back(name);
    for (const char *arg : {"--format", "text", "--out"})
        argv.emplace_back(arg);
    argv.push_back(dir.string());
    argv.emplace_back("--seed");
    argv.push_back(std::to_string(lhr::builtinSeed));
    const ExitInfo exit =
        runToCompletion(argv, opt.work + "/studies.log");
    for (const char *name : goldenStudies) {
        ++report.attempted;
        const std::string file = std::string(name) + ".txt";
        const std::string want = readFile(fs::path(opt.golden) / file);
        if (!exit.ok() || want.empty() || readFile(dir / file) != want) {
            ++report.failed;
            report.problem(std::string("studies: ") + name +
                           " text output differs from tests/golden");
        }
    }
}

/**
 * The in-process equivalent of `run --all --format json --out dir`,
 * one span per study when `tracer` is enabled; returns its wall time.
 */
double
replayRunAll(const Options &opt, const fs::path &dir, Tracer &tracer)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
    const auto studies = lhr::StudyRegistry::instance().all();
    const Clock::time_point start = Clock::now();
    lhr::Lab lab(opt.seed);
    tracer.span("studies.prewarm", [&] {
        lab.prewarm(lhr::unionGrid(studies), {.threads = loadThreads});
    });
    for (const lhr::Study *study : studies) {
        tracer.span("study." + study->name(), [&] {
            std::ofstream file(dir / (study->name() + ".json"),
                               std::ios::binary);
            lhr::JsonSink sink(file, study->name(), study->description(),
                               lab.seed());
            lhr::runStudy(lab, *study, sink, lhr::OutputFormat::Json);
        });
    }
    return secondsSince(start);
}

/** PipelineSim::run on ablation_pipesim's 20 processor x benchmark inputs. */
void
tracePipesim(Tracer &tracer, Report &report)
{
    const uint64_t instructions = 3000000;
    const uint64_t traceSeed = 99;
    double cycles = 0.0;
    double measured = 0.0;
    double firstCycles = -1.0;
    for (const char *procId :
         {"i7 (45)", "C2D (65)", "Atom (45)", "Pentium4 (130)"}) {
        const auto &spec = lhr::processorById(procId);
        const auto config =
            lhr::PipelineConfig::of(spec, spec.stockClockGhz);
        const auto levels = lhr::structuralLevels(spec);
        for (const char *name : {"hmmer", "gcc", "mcf", "xalan", "povray"}) {
            lhr::PipelineSim pipe(config, levels);
            const auto result = tracer.span("pipesim.run", [&] {
                return pipe.run(lhr::benchmarkByName(name), instructions,
                                traceSeed);
            });
            if (firstCycles < 0.0)
                firstCycles = result.cycles;
            cycles += result.cycles;
            measured += static_cast<double>(result.instructions);
        }
    }
    report.set("pipesim.ns_per_instr",
               1e9 * tracer.total("pipesim.run") / measured);
    report.set("pipesim.cycles", cycles);

    // Simulated cycles are an exact count: the same input must
    // repeat them bit for bit.
    lhr::PipelineSim again(
        lhr::PipelineConfig::of(lhr::processorById("i7 (45)"),
                                lhr::processorById("i7 (45)").stockClockGhz),
        lhr::structuralLevels(lhr::processorById("i7 (45)")));
    if (again.run(lhr::benchmarkByName("hmmer"), instructions, traceSeed)
            .cycles != firstCycles)
        report.problem("pipesim: cycles of a repeated run differ");
}

/** TraceGenerator::fill and AddressGenerator::next, per micro-op. */
void
traceGenerators(Tracer &tracer, Report &report)
{
    const size_t opsPerBench = 1 << 20;
    const size_t block = lhr::MicroOpBatch::defaultSize;
    uint64_t sink = 0;
    double ops = 0.0;
    for (const char *name : {"hmmer", "gcc", "mcf"}) {
        const auto &bench = lhr::benchmarkByName(name);
        lhr::TraceGenerator gen(bench, 7);
        lhr::MicroOpBatch batch;
        for (size_t done = 0; done < opsPerBench; done += block) {
            tracer.span("trace.fill", [&] { gen.fill(batch, block); });
            sink += batch.addr[block - 1];
        }
        lhr::AddressGenerator addresses(bench.miss,
                                        bench.memAccessPerInstr, 7);
        for (size_t done = 0; done < opsPerBench; done += block) {
            // One span per block: a span per ~20ns call would time
            // the clock, not the generator.
            tracer.span("trace.addrgen", [&] {
                for (size_t i = 0; i < block; ++i)
                    sink += addresses.next();
            });
        }
        ops += static_cast<double>(opsPerBench);
    }
    report.set("trace.fill_ns_per_op", 1e9 * tracer.total("trace.fill") / ops);
    report.set("trace.addrgen_ns_per_access",
               1e9 * tracer.total("trace.addrgen") / ops);
    if (sink == 0)
        report.problem("trace: generators produced no addresses");
}

/** characterizeWorkload on ablation_tracesim's inputs. */
void
traceCharacterize(Tracer &tracer, Report &report)
{
    const auto &i7 = lhr::processorById("i7 (45)");
    const uint64_t length = 400000;
    for (const char *name : {"hmmer", "gcc", "mcf", "libquantum", "db",
                             "xalan", "fluidanimate"}) {
        tracer.span("counters.characterize", [&] {
            return lhr::characterizeWorkload(lhr::benchmarkByName(name), i7,
                                             length, 7);
        });
    }
    for (const double gc : {0.7, 0.0}) {
        tracer.span("counters.characterize", [&] {
            return lhr::characterizeWorkload(lhr::benchmarkByName("db"), i7,
                                             length, 7, gc);
        });
    }
    report.set("counters.characterize_ms",
               1e3 * tracer.total("counters.characterize"));
}

/** bootstrapCi95 on ablation_bootstrap's 4 x 2000 trials. */
void
traceBootstrap(Tracer &tracer, Report &report)
{
    lhr::Rng rng(2027);
    double width = 0.0;
    for (const int n : {3, 5, 10, 20}) {
        for (int trial = 0; trial < 2000; ++trial) {
            std::vector<double> samples;
            for (int i = 0; i < n; ++i)
                samples.push_back(rng.gaussian(100.0, 1.5));
            width += tracer.span("stats.bootstrap", [&] {
                return lhr::bootstrapCi95(samples, rng, 400)
                    .halfWidthRelative();
            });
        }
    }
    report.set("stats.bootstrap_ms", 1e3 * tracer.total("stats.bootstrap"));
    if (!(width > 0.0))
        report.problem("stats: bootstrap intervals have no width");
}

} // namespace

Report
runStudies(const Options &opt)
{
    Report report;
    Tracer tracer(opt.trace);
    const size_t studyCount = lhr::StudyRegistry::instance().all().size();
    const fs::path root = fs::path(opt.work) / "studies";

    std::vector<double> setups;
    for (int rep = 0; rep < setupReps; ++rep)
        setups.push_back(timedPrewarm(opt, tracer));
    report.set("setup_s", lhr::percentileOf(setups, 50.0));

    if (!opt.trace) {
        // Whole runs until the next one would overrun the budget;
        // two at least, so there is a tree to compare against.
        std::vector<double> walls;
        double peakRss = 0.0;
        const Clock::time_point begin = Clock::now();
        for (int rep = 0;
             rep < 2 || secondsSince(begin) + lhr::percentileOf(walls, 50.0) <=
                            opt.seconds;
             ++rep) {
            const fs::path dir = root / ("run" + std::to_string(rep));
            const RunAll run = runAllProcess(opt, dir);
            walls.push_back(run.wallSec);
            peakRss = std::max(peakRss, run.exit.maxRssMb);
            report.attempted += studyCount;
            if (!run.exit.ok())
                report.problem("studies: lhrlab run --all exited abnormally");
            report.failed += countMismatches(dir, root / "run0", report);
            char line[160];
            std::snprintf(line, sizeof(line),
                          "run --all #%d: %.3f s wall, %.3f s cpu, %.1f MB",
                          rep, run.wallSec, run.exit.cpuSec,
                          run.exit.maxRssMb);
            report.note(line);
        }
        double total = 0.0;
        for (const double wall : walls)
            total += wall;
        report.set("peak_rss_mb", peakRss);
        report.set("ops_per_s",
                   static_cast<double>(studyCount * walls.size()) / total);
        report.set("unit_p50_ms", 1e3 * lhr::percentileOf(walls, 50.0));
        checkGoldens(opt, report);
        return report;
    }

    // Traced run: one untraced process gives the reference tree and
    // the CPU figures. The in-process replays then alternate without
    // and with spans, so the overhead compares the same code; every
    // replay must write the process's bytes.
    report.set("study.prewarm_s",
               lhr::percentileOf(tracer.durations("study.prewarm"), 50.0));
    const RunAll plain = runAllProcess(opt, root / "plain");
    report.attempted += studyCount;
    if (!plain.exit.ok())
        report.problem("studies: lhrlab run --all exited abnormally");
    report.set("studies.cpu_s", plain.exit.cpuSec);
    report.set("studies.parallelism", plain.exit.cpuSec / plain.wallSec);

    std::vector<double> untracedSec, tracedSec;
    for (int rep = 0; rep < replays; ++rep) {
        const fs::path dir = root / ("replay" + std::to_string(rep));
        Tracer off(false);
        if (rep % 2 == 1) {
            tracedSec.push_back(tracer.span("studies.run_all", [&] {
                return replayRunAll(opt, dir, tracer);
            }, rep));
        } else {
            untracedSec.push_back(replayRunAll(opt, dir, off));
        }
        report.attempted += studyCount;
        report.failed += countMismatches(dir, root / "plain", report);
    }
    const double untraced = lhr::percentileOf(untracedSec, 50.0);
    report.set("bench.trace_overhead_pct",
               100.0 * (lhr::percentileOf(tracedSec, 50.0) - untraced) /
                   untraced);
    char line[120];
    std::snprintf(line, sizeof(line),
                  "%zu traced replays: %.3f ms of self time outside studies",
                  tracedSec.size(), 1e3 * tracer.totalSelf("studies.run_all"));
    report.note(line);

    // Per study: the median over the traced replays.
    auto studySec = [&](const std::string &name) {
        return lhr::percentileOf(tracer.durations("study." + name), 50.0);
    };
    double rest = 0.0;
    for (const lhr::Study *study : lhr::StudyRegistry::instance().all())
        rest += studySec(study->name());
    for (const char *name : namedStudies) {
        const double took = studySec(name);
        report.set(std::string("study.") + name + "_s", took);
        rest -= took;
    }
    report.set("study.rest_s", rest);

    tracePipesim(tracer, report);
    traceGenerators(tracer, report);
    traceCharacterize(tracer, report);
    traceBootstrap(tracer, report);
    checkGoldens(opt, report);

    if (!tracer.writeJson(opt.work + "/trace-studies.json"))
        report.problem("studies: cannot write the span file");
    return report;
}

} // namespace perfbench
