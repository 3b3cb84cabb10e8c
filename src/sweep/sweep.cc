#include "sweep/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iostream>
#include <mutex>

#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace lhr
{

namespace
{

// The sweep's wall-clock reads feed only observability fields
// (SweepReport wallSec/throughput, progress lines, the perf
// baselines) — never a Measurement. The persisted store fields are
// produced entirely from seeded model evaluation.
using Clock = std::chrono::steady_clock; // lhrlint:allow(det-clock): observability-only timing, never reaches measured outputs

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

} // namespace

size_t
SweepReport::failedCells() const
{
    size_t n = 0;
    for (const SweepCell &cell : cells)
        if (!cell.ok())
            ++n;
    return n;
}

size_t
SweepReport::degradedCells() const
{
    size_t n = 0;
    for (const SweepCell &cell : cells)
        if (cell.measurement && cell.measurement->degraded)
            ++n;
    return n;
}

std::string
SweepReport::summary() const
{
    std::string text =
        msgOf("sweep: ", cells.size(), " experiments on ", threads,
              threads == 1 ? " thread" : " threads", " in ",
              wallSec, "s (", experimentsPerSec(),
              " exp/s, utilization ", utilization(), ", cache ",
              cache.hits, " hits / ", cache.misses, " misses)");
    if (shardCount > 1)
        text += msgOf(", shard ", shardIndex + 1, "/", shardCount);
    if (seededCells > 0)
        text += msgOf(", ", seededCells, " resumed from store");
    const size_t failed = failedCells();
    const size_t degraded = degradedCells();
    if (failed > 0)
        text += msgOf(", ", failed, " failed");
    if (degraded > 0)
        text += msgOf(", ", degraded, " degraded");
    return text;
}

SweepEngine::SweepEngine(ExperimentRunner &runner, SweepOptions options)
    : runner(runner), options(options)
{
}

SweepReport
SweepEngine::run(std::vector<MachineConfig> configs,
                 std::vector<Benchmark> benchmarks)
{
    if (options.shardCount < 1 || options.shardIndex < 0 ||
        options.shardIndex >= options.shardCount) {
        panic(msgOf("SweepEngine: shard ", options.shardIndex, "/",
                    options.shardCount, " is outside the contract"));
    }

    SweepReport report;
    report.configs = std::move(configs);
    report.benchmarks = std::move(benchmarks);
    report.shardIndex = options.shardIndex;
    report.shardCount = options.shardCount;

    const size_t nBench = report.benchmarks.size();
    const size_t gridTotal = report.configs.size() * nBench;

    // Deterministic strided partition of the row-major cell list:
    // shard i owns the global indices congruent to i (mod N). The
    // stride interleaves cheap Atom cells with expensive Java-on-i7
    // ones, so shards finish in comparable wall time.
    std::vector<size_t> mine;
    mine.reserve(gridTotal / options.shardCount + 1);
    for (size_t idx = static_cast<size_t>(options.shardIndex);
         idx < gridTotal;
         idx += static_cast<size_t>(options.shardCount))
        mine.push_back(idx);
    const size_t total = mine.size();
    report.cells.resize(total);

    // Checkpoint/resume plumbing. The checkpoint store accumulates
    // every row this shard has (seeded or measured) and is saved
    // atomically every checkpointEvery completions, so a kill loses
    // at most one checkpoint interval of work.
    std::mutex checkpointMutex;
    ResultStore checkpointStore;
    if (options.warmStart) {
        for (const size_t idx : mine) {
            const MachineConfig &cfg = report.configs[idx / nBench];
            const Benchmark &bench = report.benchmarks[idx % nBench];
            const StoredResult *prior =
                options.warmStart->find(configKey(cfg), bench.name);
            if (prior &&
                runner.seedCache(cfg, bench, prior->toMeasurement())) {
                ++report.seededCells;
                checkpointStore.put(*prior);
            }
        }
    }

    const CacheStats before = runner.cacheStats();
    ThreadPool pool(options.threads);
    report.threads = pool.threadCount();

    std::atomic<size_t> done{0};
    std::mutex progressMutex;
    const size_t progressEvery = std::max<size_t>(1, total / 16);
    const Clock::time_point start = Clock::now();

    // External stop (snapshot's signal handler sets the flag): cells
    // not yet started are marked Cancelled instead of run, so the
    // sweep returns at the next cell boundary with every completed
    // row intact.
    const auto stopRequested = [this] {
        return options.stopFlag != nullptr && options.stopFlag->load();
    };

    // Cells write disjoint slots, so the results vector needs no
    // lock. A throwing experiment degrades its own cell to a flagged
    // row and never takes the sweep down.
    const auto runCell = [&](size_t slot) {
        const size_t idx = mine[slot];
        const size_t ci = idx / nBench;
        const size_t bi = idx % nBench;
        const MachineConfig &cfg = report.configs[ci];
        const Benchmark &bench = report.benchmarks[bi];
        SweepCell &cell = report.cells[slot];
        cell.config = &cfg;
        cell.benchmark = &bench;

        if (stopRequested()) {
            cell.status =
                Status::error(StatusCode::Cancelled,
                              "sweep stopped before this cell ran");
        } else {
            const Clock::time_point cellStart = Clock::now();
            try {
                cell.measurement = &runner.measure(cfg, bench);
            } catch (const FaultError &e) {
                cell.status = e.status();
            } catch (const std::exception &e) {
                cell.status =
                    Status::error(StatusCode::Internal, e.what());
            }
            cell.wallSec = secondsSince(cellStart);
        }

        const size_t finished =
            done.fetch_add(1, std::memory_order_relaxed) + 1;
        if (options.checkpointEvery > 0 && cell.measurement) {
            // Accumulate under the lock (cells finish out of order)
            // and persist atomically every checkpointEvery cells;
            // the last partial interval is covered by the caller's
            // final save of the full shard store.
            std::lock_guard<std::mutex> lock(checkpointMutex);
            checkpointStore.put(cfg, bench, *cell.measurement);
            if (finished % options.checkpointEvery == 0 &&
                finished != total) {
                const Status saved =
                    checkpointStore.saveToFile(options.checkpointPath);
                if (!saved.ok()) {
                    std::cerr << "sweep: checkpoint failed: "
                              << saved.toString() << "\n";
                }
            }
        }
        if (options.progress &&
            (finished % progressEvery == 0 || finished == total)) {
            const double elapsed = secondsSince(start);
            std::lock_guard<std::mutex> lock(progressMutex);
            std::cerr << "sweep: " << finished << "/" << total << " ("
                      << (elapsed > 0.0 ? finished / elapsed : 0.0)
                      << " exp/s)" << (finished == total ? "\n" : "\r")
                      << std::flush;
        }
    };

    // Pool tasks take runs of cellsPerTask consecutive cells: a warm
    // (memo-hit) cell costs about as much as handing one task to the
    // pool, while a run is still short enough for idle workers taking
    // the next task off the FIFO to balance Java-on-i7 cells against
    // cheap Atom ones.
    constexpr size_t cellsPerTask = 16;
    const size_t tasks = (total + cellsPerTask - 1) / cellsPerTask;
    pool.parallelFor(tasks, [&](size_t task) {
        const size_t first = task * cellsPerTask;
        const size_t end = std::min(total, first + cellsPerTask);
        for (size_t slot = first; slot < end; ++slot)
            runCell(slot);
    });

    report.wallSec = secondsSince(start);
    const CacheStats after = runner.cacheStats();
    report.cache.hits = after.hits - before.hits;
    report.cache.misses = after.misses - before.misses;
    for (const SweepCell &cell : report.cells) {
        report.maxCellSec = std::max(report.maxCellSec, cell.wallSec);
        report.sumCellSec += cell.wallSec;
    }
    return report;
}

ResultStore
toStore(const SweepReport &report)
{
    ResultStore store;
    for (const SweepCell &cell : report.cells) {
        if (cell.measurement)
            store.put(*cell.config, *cell.benchmark, *cell.measurement);
    }
    return store;
}

} // namespace lhr
