/**
 * @file
 * Perf baseline of the parallel sweep engine: runs the experimental
 * grid serially (one worker) and in parallel (all workers), repeats
 * each mode to separate signal from scheduler noise, verifies the
 * parallel run produces bit-identical Measurements, and reports
 * min/median wall time, throughput (experiments/sec), speedup and
 * cache behaviour. Future PRs compare against these numbers before
 * touching the hot path — bench/bench_compare.cc gates CI on the
 * medians (see DESIGN.md §8).
 *
 * Writes the measurements to BENCH_sweep.json (one record per run:
 * {name, config, metrics, wall_sec}) so CI can archive them as an
 * artifact and regressions are diffable across commits. wall_sec and
 * experiments_per_sec are medians over the repetitions; *_best is
 * the fastest repetition and *_spread_rel the min-to-max spread the
 * gate uses to stay noise-aware.
 *
 * Usage: sweep_throughput [--threads N] [--grid full|small]
 *                         [--reps N] [--json F]
 *   --threads N   parallel worker count (default: auto)
 *   --grid small  8 configurations x all benchmarks (quick check)
 *   --reps N      repetitions per mode (default 5, min 1)
 *   --json FILE   baseline file to write (default: BENCH_sweep.json)
 */

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "sweep/sweep.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace
{

size_t
mismatchingCells(const lhr::SweepReport &a, const lhr::SweepReport &b)
{
    size_t mismatches = 0;
    for (size_t i = 0; i < a.cells.size(); ++i) {
        if (!a.cells[i].measurement || !b.cells[i].measurement ||
            !sameBits(*a.cells[i].measurement,
                       *b.cells[i].measurement))
            ++mismatches;
    }
    return mismatches;
}

/** Wall times of one mode's repetitions, plus the last report. */
struct RepeatedRun
{
    lhr::SweepReport last;      ///< cells/cache of the final rep
    std::vector<double> wallSec; ///< one entry per repetition

    double medianWallSec() const
    {
        std::vector<double> sorted = wallSec;
        std::sort(sorted.begin(), sorted.end());
        const size_t n = sorted.size();
        return n % 2 == 1 ? sorted[n / 2]
                          : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
    }

    double minWallSec() const
    {
        return *std::min_element(wallSec.begin(), wallSec.end());
    }

    /** Min-to-max spread relative to the median, for the gate. */
    double spreadRel() const
    {
        const double median = medianWallSec();
        if (median <= 0.0)
            return 0.0;
        const double max =
            *std::max_element(wallSec.begin(), wallSec.end());
        return (max - minWallSec()) / median;
    }

    double medianExpPerSec() const
    {
        const double median = medianWallSec();
        return median > 0.0 ? last.experiments() / median : 0.0;
    }

    double bestExpPerSec() const
    {
        const double best = minWallSec();
        return best > 0.0 ? last.experiments() / best : 0.0;
    }
};

void
record(lhr::JsonWriter &json, const std::string &name,
       const std::string &grid, const RepeatedRun &run,
       double speedup = 0.0)
{
    const lhr::SweepReport &report = run.last;
    json.beginObject();
    json.key("name").value(name);
    json.key("config").beginObject();
    json.key("grid").value(grid);
    json.key("configurations").value((uint64_t)report.configs.size());
    json.key("benchmarks").value((uint64_t)report.benchmarks.size());
    json.key("threads").value((long)report.threads);
    json.key("reps").value((uint64_t)run.wallSec.size());
    json.endObject();
    json.key("metrics").beginObject();
    json.key("experiments").value((uint64_t)report.experiments());
    json.key("experiments_per_sec").value(run.medianExpPerSec(), 1);
    json.key("experiments_per_sec_best").value(run.bestExpPerSec(), 1);
    json.key("experiments_per_sec_spread_rel")
        .value(run.spreadRel(), 4);
    json.key("max_cell_sec").value(report.maxCellSec, 6);
    json.key("sum_cell_sec").value(report.sumCellSec, 6);
    json.key("cache_hits").value(report.cache.hits);
    json.key("cache_misses").value(report.cache.misses);
    if (speedup > 0.0)
        json.key("speedup").value(speedup, 3);
    json.endObject();
    json.key("wall_sec").value(run.medianWallSec(), 6);
    json.key("wall_sec_min").value(run.minWallSec(), 6);
    json.endObject();
}

void
show(const std::string &label, const RepeatedRun &run)
{
    std::cout << label << " " << run.last.summary() << "\n"
              << label << "   over " << run.wallSec.size()
              << " reps: median " << run.medianWallSec() << "s ("
              << run.medianExpPerSec() << " exp/s), best "
              << run.minWallSec() << "s (" << run.bestExpPerSec()
              << " exp/s), spread "
              << 100.0 * run.spreadRel() << "%\n";
}

} // namespace

int
main(int argc, char **argv)
{
    int threads = 0;
    bool smallGrid = false;
    int reps = 5;
    std::string jsonPath = "BENCH_sweep.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
            threads = std::atoi(argv[++i]);
        } else if (std::strcmp(argv[i], "--grid") == 0 && i + 1 < argc) {
            smallGrid = std::string(argv[++i]) == "small";
        } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
            reps = std::max(1, std::atoi(argv[++i]));
        } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            jsonPath = argv[++i];
        } else {
            std::cerr << "usage: sweep_throughput [--threads N] "
                         "[--grid full|small] [--reps N] "
                         "[--json FILE]\n";
            return 2;
        }
    }

    std::vector<lhr::MachineConfig> configs =
        lhr::standardConfigurations();
    if (smallGrid)
        configs.resize(8);
    const auto &benchmarks = lhr::allBenchmarks();

    std::cout << "sweep_throughput: " << configs.size()
              << " configurations x " << benchmarks.size()
              << " benchmarks = " << configs.size() * benchmarks.size()
              << " experiments, " << reps << " reps per mode\n\n";

    // Every repetition measures a fresh runner (nothing pre-cached);
    // medians over the repetitions feed the CI gate. The runner
    // holders live outside the loop because a SweepReport's cells
    // point into its runner's memo cache: the runners backing the
    // kept reports must outlive the reporting below.
    RepeatedRun serialRun, parallelRun, cachedRun;
    size_t parallelMismatches = 0;
    std::unique_ptr<lhr::ExperimentRunner> serialRunner;
    std::unique_ptr<lhr::ExperimentRunner> parallelRunner;
    for (int rep = 0; rep < reps; ++rep) {
        // Serial baseline: one worker.
        serialRunner = std::make_unique<lhr::ExperimentRunner>();
        lhr::SweepEngine serial(*serialRunner, {.threads = 1});
        lhr::SweepReport serialReport = serial.run(configs, benchmarks);
        serialRun.wallSec.push_back(serialReport.wallSec);

        // Parallel run: all workers, fresh runner.
        parallelRunner = std::make_unique<lhr::ExperimentRunner>();
        lhr::SweepEngine parallel(*parallelRunner,
                                  {.threads = threads});
        lhr::SweepReport parallelReport =
            parallel.run(configs, benchmarks);
        parallelRun.wallSec.push_back(parallelReport.wallSec);

        // Re-sweep on the warm cache: the memoization path.
        lhr::SweepReport cachedReport =
            parallel.run(configs, benchmarks);
        cachedRun.wallSec.push_back(cachedReport.wallSec);

        parallelMismatches +=
            mismatchingCells(serialReport, parallelReport);

        if (rep == reps - 1) {
            serialRun.last = std::move(serialReport);
            parallelRun.last = std::move(parallelReport);
            cachedRun.last = std::move(cachedReport);
        }
    }

    show("serial  ", serialRun);
    show("parallel", parallelRun);
    show("cached  ", cachedRun);
    std::cout << "\n";

    const double speedup = parallelRun.medianWallSec() > 0.0
        ? serialRun.medianWallSec() / parallelRun.medianWallSec()
        : 0.0;
    std::cout << "speedup: " << speedup << "x on "
              << parallelRun.last.threads << " threads (host reports "
              << lhr::ThreadPool::defaultThreadCount()
              << " available)\n";
    std::cout << "bit-identical to serial: "
              << (parallelMismatches == 0 ? "yes" : "NO") << " ("
              << parallelMismatches << " mismatching cells)\n";
    std::cout << "slowest experiment: " << serialRun.last.maxCellSec
              << "s\n";

    const std::string grid = smallGrid ? "small" : "full";
    std::ofstream jsonOut(jsonPath, std::ios::binary);
    lhr::JsonWriter json(jsonOut);
    json.beginArray();
    record(json, "sweep_serial", grid, serialRun);
    record(json, "sweep_parallel", grid, parallelRun, speedup);
    record(json, "sweep_cached", grid, cachedRun);
    json.endArray();
    std::cout << "baseline written: " << jsonPath << "\n";

    if (parallelMismatches != 0) {
        std::cerr << "FAIL: parallel sweep diverged from serial\n";
        return 1;
    }
    return 0;
}
