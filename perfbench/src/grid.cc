/**
 * @file
 * The `grid` workload, the mirror image of `studies`: cold sweeps,
 * where sensor sampling is about 90% of a cell, power about 8%, cpu
 * under 1%, and pipesim nothing. One round is four phases, each on a
 * fresh ExperimentRunner seeded from (seed, round):
 *
 *   1. a cold serial SweepEngine::run over the paper grid
 *      (45 configurations x 61 benchmarks, Hall sensor);
 *   2. the same over every era's grid (85 x 61, RAPL on the server
 *      parts, through the base-class session);
 *   3. a faulted slice (a fixed FaultPlan, hardening on), which takes
 *      the scalar sampling path with retries;
 *   4. a ResultStore save and load of phase 1's rows.
 *
 * The three sampling paths share sensor and harness code, so a gain
 * on one that costs another shows up here. The timed sweeps run on
 * one thread: on a shared 4-vCPU host the throughput of 4 sweep
 * threads moved with the neighbours' load (0.99x one thread's in one
 * probe, 3.5x in another), which swamped the per-cell cost this
 * workload is for. 4-thread sweeps stay in the output checks and in
 * the traced run's sweep.* metrics.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>

#include "bench.hh"
#include "inputs.hh"
#include "proc.hh"
#include "sensor/channel.hh"
#include "stats.hh"
#include "stats/summary.hh"
#include "sweep/sweep.hh"
#include "trace.hh"

namespace perfbench
{

namespace
{

/** Threads of the timed sweeps. */
constexpr int sweepThreads = 1;

/** Set-ups timed together as one sample of setup_s. */
constexpr int setupBlock = 2000;

/** The configurations and benchmarks one round sweeps. */
struct Grids
{
    std::vector<lhr::MachineConfig> paper;
    std::vector<lhr::MachineConfig> eras;
    std::vector<lhr::MachineConfig> faultSlice;
    std::vector<lhr::Benchmark> benches;
};

Grids
makeGrids()
{
    Grids grids;
    grids.paper = lhr::standardConfigurations();
    for (const auto &era : lhr::configurationsByEra())
        grids.eras.insert(grids.eras.end(), era.configs.begin(),
                          era.configs.end());
    for (const char *id : {"i7 (45)", "i5 (32)", "C2D (65)",
                           "Pentium4 (130)"})
        grids.faultSlice.push_back(lhr::stockConfig(lhr::processorById(id)));
    grids.benches = lhr::allBenchmarks();
    return grids;
}

/** One round's runners (which own the measurements) and reports. */
struct Round
{
    std::unique_ptr<lhr::ExperimentRunner> paperRunner, erasRunner,
        faultRunner;
    lhr::SweepReport paper, eras, faulted;
    double cleanSec = 0.0; ///< phases 1 and 2: the unit of work
    double faultSec = 0.0;
    double saveSec = 0.0, loadSec = 0.0;
    uint64_t runnerSeed = 0; ///< seed of the paper-grid runner
};

lhr::SweepReport
sweep(lhr::ExperimentRunner &runner, const std::vector<lhr::MachineConfig> &configs,
      const std::vector<lhr::Benchmark> &benches, int threads)
{
    lhr::SweepOptions options;
    options.threads = threads;
    return lhr::SweepEngine(runner, options).run(configs, benches);
}

std::unique_ptr<lhr::ExperimentRunner>
faultedRunner(uint64_t runner_seed, uint64_t seed)
{
    auto runner = std::make_unique<lhr::ExperimentRunner>(runner_seed);
    runner->setFaultPlan(makeFaultPlan(seed));
    runner->setMeasurementPolicy(lhr::MeasurementPolicy{});
    return runner;
}

Round
runRound(const Options &opt, int index, const std::string &store_path,
         Tracer &tracer)
{
    Round round;
    const Grids grids = makeGrids();
    round.runnerSeed = deriveSeed(opt.seed, "grid-paper", index);
    round.paperRunner =
        std::make_unique<lhr::ExperimentRunner>(round.runnerSeed);

    const Clock::time_point clean = Clock::now();
    round.paper = tracer.span("sweep.paper", [&] {
        return sweep(*round.paperRunner, grids.paper, grids.benches,
                     sweepThreads);
    });
    round.eras = tracer.span("sweep.eras", [&] {
        round.erasRunner = std::make_unique<lhr::ExperimentRunner>(
            deriveSeed(opt.seed, "grid-eras", index));
        return sweep(*round.erasRunner, grids.eras, grids.benches,
                     sweepThreads);
    });
    round.cleanSec = secondsSince(clean);

    const Clock::time_point faulted = Clock::now();
    round.faulted = tracer.span("sweep.faulted", [&] {
        round.faultRunner = faultedRunner(
            deriveSeed(opt.seed, "grid-fault", index), opt.seed);
        return sweep(*round.faultRunner, grids.faultSlice, grids.benches,
                     sweepThreads);
    });
    round.faultSec = secondsSince(faulted);

    const lhr::ResultStore store = lhr::toStore(round.paper);
    const Clock::time_point save = Clock::now();
    const lhr::Status saved =
        tracer.span("store.save", [&] { return store.saveToFile(store_path); });
    round.saveSec = secondsSince(save);
    const Clock::time_point load = Clock::now();
    const auto loaded = tracer.span("store.load", [&] {
        return lhr::ResultStore::tryLoadFile(store_path);
    });
    round.loadSec = secondsSince(load);
    if (!saved.ok() || !loaded.ok() || loaded.value().size() != store.size())
        throw std::runtime_error("grid: store round trip failed: " +
                                 saved.toString());
    return round;
}

bool
sameMeasurement(const lhr::Measurement &a, const lhr::Measurement &b)
{
    // Bit equality of every double, not numeric closeness.
    auto bits = [](double x, double y) {
        return std::memcmp(&x, &y, sizeof(double)) == 0;
    };
    return bits(a.timeSec, b.timeSec) && bits(a.timeCi95Rel, b.timeCi95Rel) &&
           bits(a.powerW, b.powerW) && bits(a.powerCi95Rel, b.powerCi95Rel) &&
           a.invocations == b.invocations && a.samplesLost == b.samplesLost &&
           a.samplesRailed == b.samplesRailed &&
           a.samplesDuplicated == b.samplesDuplicated &&
           a.retries == b.retries && a.extraInvocations == b.extraInvocations &&
           a.outlierInvocations == b.outlierInvocations &&
           a.degraded == b.degraded;
}

/** Cells of two reports of one grid: same status and the same bits. */
bool
sameCells(const lhr::SweepReport &a, const lhr::SweepReport &b)
{
    if (a.cells.size() != b.cells.size())
        return false;
    for (size_t i = 0; i < a.cells.size(); ++i) {
        const lhr::SweepCell &x = a.cells[i];
        const lhr::SweepCell &y = b.cells[i];
        if (x.ok() != y.ok())
            return false;
        if (x.ok() && !sameMeasurement(*x.measurement, *y.measurement))
            return false;
    }
    return true;
}

/** The exact counts of a faulted sweep. */
struct FaultCounts
{
    uint64_t degraded = 0, failed = 0, invocations = 0;

    bool operator==(const FaultCounts &) const = default;
};

FaultCounts
faultCounts(const lhr::SweepReport &report)
{
    FaultCounts counts;
    counts.degraded = report.degradedCells();
    counts.failed = report.failedCells();
    for (const lhr::SweepCell &cell : report.cells) {
        if (cell.ok())
            counts.invocations +=
                static_cast<uint64_t>(cell.measurement->invocations);
    }
    return counts;
}

/**
 * Output checks on round 0, outside the timed rounds: a 4-thread
 * sweep gives the serial bits and the same memo-cache misses (one per
 * cold cell), the store is byte-stable through save -> load -> save,
 * and the faulted slice repeats exactly on 4 threads.
 */
void
checkRound(const Options &opt, const Round &round, const std::string &store_path,
           Report &report)
{
    const Grids grids = makeGrids();
    lhr::ExperimentRunner parallel(round.runnerSeed);
    const lhr::SweepReport parallelReport =
        sweep(parallel, grids.paper, grids.benches, loadThreads);
    if (!sameCells(parallelReport, round.paper))
        report.problem("grid: 4-thread cells differ from a serial sweep");
    if (parallelReport.cache.misses != round.paper.cache.misses ||
        round.paper.cache.misses != round.paper.cells.size())
        report.problem("grid: memo-cache misses are not one per cold cell");

    const std::string again = store_path + ".again";
    const auto loaded = lhr::ResultStore::tryLoadFile(store_path);
    if (!loaded.ok() || !loaded.value().saveToFile(again).ok() ||
        readFile(again) != readFile(store_path) || readFile(again).empty())
        report.problem("grid: store save -> load -> save is not byte-stable");

    auto runner = faultedRunner(deriveSeed(opt.seed, "grid-fault", 0), opt.seed);
    const lhr::SweepReport repeat =
        sweep(*runner, grids.faultSlice, grids.benches, loadThreads);
    if (!sameCells(repeat, round.faulted) ||
        !(faultCounts(repeat) == faultCounts(round.faulted)))
        report.problem("grid: the faulted slice does not repeat exactly");
}

void
tally(const Round &round, Report &report)
{
    for (const lhr::SweepReport *clean : {&round.paper, &round.eras}) {
        report.attempted += clean->cells.size();
        report.failed += clean->failedCells();
    }
    // Faulted cells may legitimately fail; fault.failed_cells counts them.
    report.attempted += round.faulted.cells.size();
}

/**
 * Per-call spans around the runner's public layer functions, on a
 * fresh serial runner over a sample of both grids.
 */
void
traceLayers(const Options &opt, Tracer &tracer, Report &report)
{
    const Grids grids = makeGrids();
    std::vector<lhr::MachineConfig> sample;
    for (size_t i = 0; i < grids.eras.size(); i += 4)
        sample.push_back(grids.eras[i]);

    lhr::ExperimentRunner runner(deriveSeed(opt.seed, "grid-probe"));
    // Models and rigs are built lazily once per processor; build them
    // before timing so the spans see steady-state calls.
    for (const auto &cfg : sample)
        (void)runner.profile(cfg, grids.benches.front());

    double hallSamples = 0.0, raplSamples = 0.0, watts = 0.0;
    uint64_t calls = 0;
    for (const auto &cfg : sample) {
        const lhr::PowerSensor &sensor = runner.sensor(*cfg.spec);
        const bool hall = sensor.backend() == lhr::SensorBackend::HallEffect;
        for (const auto &bench : grids.benches) {
            const auto prof = tracer.span(
                "cpu.profile", [&] { return runner.profile(cfg, bench); });
            const auto phases = tracer.span("power.phase_series", [&] {
                return runner.phasePowerSeries(cfg, bench);
            });
            std::vector<double> phaseW;
            for (const auto &phase : phases)
                phaseW.push_back(phase.total());
            const int samples = std::max(
                10, static_cast<int>(std::min(prof.timeSec, 30.0) *
                                     lhr::PowerChannel::sampleHz));
            lhr::Rng rng(deriveSeed(opt.seed, "grid-session", calls));
            watts += tracer.span(hall ? "sensor.hall" : "sensor.rapl", [&] {
                return sensor.sessionWatts(phaseW.data(),
                                           static_cast<int>(phaseW.size()),
                                           1.0, samples, rng);
            });
            (hall ? hallSamples : raplSamples) += samples;
            tracer.span("harness.measure_cold",
                        [&] { return runner.measure(cfg, bench); });
            ++calls;
        }
    }
    const double n = static_cast<double>(calls);
    report.set("cpu.profile_us", 1e6 * tracer.total("cpu.profile") / n);
    report.set("power.phase_series_us",
               1e6 * tracer.total("power.phase_series") / n);
    report.set("harness.measure_cold_us",
               1e6 * tracer.total("harness.measure_cold") / n);
    report.set("sensor.hall_ns_per_sample",
               1e9 * tracer.total("sensor.hall") / hallSamples);
    report.set("sensor.rapl_ns_per_sample",
               1e9 * tracer.total("sensor.rapl") / raplSamples);
    if (!(watts > 0.0))
        report.problem("sensor: sessions decoded no power");

    auto faulted = faultedRunner(deriveSeed(opt.seed, "grid-probe"), opt.seed);
    for (const auto &bench : grids.benches) {
        tracer.span("fault.measure", [&] {
            try {
                (void)faulted->measure(grids.faultSlice.front(), bench);
            } catch (const lhr::FaultError &) {
                // An unrecoverable rig is part of the fault model.
            }
        });
    }
    report.set("fault.measure_us",
               1e6 * tracer.total("fault.measure") / grids.benches.size());
}

/**
 * One sample of setup_s: the mean time to build the grids and a
 * round's first runner, over a block of set-ups in this process. One
 * set-up takes about 8 microseconds, and a fresh process to time it
 * from spawn costs about 1 ms of exec and page faults whose median
 * moved by 35-40% between sets of runs on a shared host.
 */
double
timeSetup(uint64_t seed, int index)
{
    size_t cells = 0;
    const Clock::time_point start = Clock::now();
    for (int rep = 0; rep < setupBlock; ++rep) {
        const Grids grids = makeGrids();
        const lhr::ExperimentRunner runner(
            deriveSeed(seed, "grid-paper", index));
        cells += grids.paper.size() * grids.benches.size() +
                 runner.cacheStats().misses;
    }
    const double took = secondsSince(start) / setupBlock;
    if (cells == 0)
        throw std::runtime_error("grid: set-up built no grid");
    return took;
}

} // namespace

Report
runGrid(const Options &opt)
{
    Report report;
    Tracer tracer(opt.trace);
    const std::string storePath = opt.work + "/grid-store.csv";
    std::vector<Round> kept; // round 0, for the output checks
    std::vector<double> units, faultSecs, saves, loads;
    double cleanCells = 0.0, cleanSec = 0.0, faultCells = 0.0;

    auto account = [&](Round &round) {
        units.push_back(round.cleanSec);
        faultSecs.push_back(round.faultSec);
        saves.push_back(round.saveSec);
        loads.push_back(round.loadSec);
        cleanCells += round.paper.cells.size() + round.eras.cells.size();
        cleanSec += round.cleanSec;
        faultCells += round.faulted.cells.size();
        tally(round, report);
        if (kept.empty())
            kept.push_back(std::move(round));
    };

    if (!opt.trace) {
        // One set-up sample before each round, so the samples spread
        // over the run like the rounds do: the host's speed moves on a
        // scale of seconds, and samples taken in one burst read
        // whichever speed it had at that moment.
        std::vector<double> setups;
        const Clock::time_point begin = Clock::now();
        for (int index = 0;
             index < 3 || secondsSince(begin) +
                                  lhr::percentileOf(units, 50.0) +
                                  lhr::percentileOf(faultSecs, 50.0) <=
                              opt.seconds;
             ++index) {
            setups.push_back(timeSetup(opt.seed, index));
            Tracer off(false);
            Round round = runRound(opt, index, storePath, off);
            account(round);
        }
        checkRound(opt, kept.front(), storePath, report);
        report.set("setup_s", lhr::percentileOf(setups, 50.0));
        report.set("peak_rss_mb", selfMaxRssMb());
        report.set("ops_per_s", cleanCells / cleanSec);
        report.set("unit_p50_ms", 1e3 * lhr::percentileOf(units, 50.0));
        std::vector<double> sorted = units;
        std::sort(sorted.begin(), sorted.end());
        char line[240];
        std::snprintf(line, sizeof(line),
                      "%zu rounds, clean pass p25/p50/p75 %.1f/%.1f/%.1f ms; "
                      "clean %.0f exp/s; faulted %.0f exp/s; "
                      "store save %.2f ms, load %.2f ms",
                      units.size(), 1e3 * percentileSorted(sorted, 25.0),
                      1e3 * percentileSorted(sorted, 50.0),
                      1e3 * percentileSorted(sorted, 75.0),
                      cleanCells / cleanSec,
                      faultCells / std::accumulate(faultSecs.begin(),
                                                   faultSecs.end(), 0.0),
                      1e3 * lhr::percentileOf(saves, 50.0),
                      1e3 * lhr::percentileOf(loads, 50.0));
        report.note(line);
        return report;
    }

    // Traced run: untraced and traced rounds alternate, so the
    // overhead compares like with like.
    std::vector<double> plainUnits, tracedUnits;
    lhr::CacheStats cache;
    double util = 0.0, capacity = 0.0;
    std::vector<double> cellUs;
    FaultCounts faults;
    for (int index = 0; index < 6; ++index) {
        const bool traced = index % 2 == 1;
        Tracer off(false);
        Round round = traced ? tracer.span("grid.round", [&] {
            return runRound(opt, index, storePath, tracer);
        }, index)
                             : runRound(opt, index, storePath, off);
        (traced ? tracedUnits : plainUnits).push_back(round.cleanSec);
        if (traced) {
            for (const lhr::SweepReport *clean : {&round.paper, &round.eras}) {
                cache.hits += clean->cache.hits;
                cache.misses += clean->cache.misses;
            }
            if (index == 1)
                faults = faultCounts(round.faulted);
        }
        account(round);
    }
    checkRound(opt, kept.front(), storePath, report);

    // The timed sweeps are serial; the engine's parallel behaviour is
    // read from one 4-thread sweep of each clean grid.
    const Grids grids = makeGrids();
    for (const auto *configs : {&grids.paper, &grids.eras}) {
        lhr::ExperimentRunner runner(deriveSeed(opt.seed, "grid-parallel"));
        const lhr::SweepReport parallel = tracer.span("sweep.parallel", [&] {
            return sweep(runner, *configs, grids.benches, loadThreads);
        });
        util += parallel.sumCellSec;
        capacity += parallel.wallSec * parallel.threads;
        for (const lhr::SweepCell &cell : parallel.cells)
            cellUs.push_back(1e6 * cell.wallSec);
    }

    const double plainUnit = lhr::percentileOf(plainUnits, 50.0);
    report.set("bench.trace_overhead_pct",
               100.0 * (lhr::percentileOf(tracedUnits, 50.0) - plainUnit) /
                   plainUnit);
    report.set("sweep.utilization", util / capacity);
    report.set("sweep.cell_us_p50", lhr::percentileOf(cellUs, 50.0));
    report.set("sweep.cell_us_max",
               *std::max_element(cellUs.begin(), cellUs.end()));
    report.set("harness.cache_hits", static_cast<double>(cache.hits));
    report.set("harness.cache_misses", static_cast<double>(cache.misses));
    report.set("fault.exp_per_s",
               faultCells / std::accumulate(faultSecs.begin(),
                                            faultSecs.end(), 0.0));
    report.set("fault.degraded_cells", static_cast<double>(faults.degraded));
    report.set("fault.failed_cells", static_cast<double>(faults.failed));
    report.set("fault.invocations", static_cast<double>(faults.invocations));
    report.set("store.save_ms",
               1e3 * lhr::percentileOf(tracer.durations("store.save"), 50.0));
    report.set("store.load_ms",
               1e3 * lhr::percentileOf(tracer.durations("store.load"), 50.0));

    char line[120];
    std::snprintf(line, sizeof(line),
                  "traced rounds: %.3f ms of self time outside layer calls",
                  1e3 * tracer.totalSelf("grid.round"));
    report.note(line);
    traceLayers(opt, tracer, report);
    if (!tracer.writeJson(opt.work + "/trace-grid.json"))
        report.problem("grid: cannot write the span file");
    return report;
}

} // namespace perfbench
