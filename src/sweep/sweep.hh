/**
 * @file
 * lhr::SweepEngine — the parallel full-grid sweep executor.
 *
 * The paper's core artifact is a grid: 45 processor configurations
 * x 61 benchmarks, re-measured after every BIOS-style feature
 * toggle. SweepEngine fans that grid out across the lab's FIFO
 * thread pool (each task measures a short run of consecutive
 * (configuration, benchmark) cells, one measure() call per cell)
 * and produces results bit-identical to a serial run.
 *
 * Determinism contract: ExperimentRunner derives every experiment's
 * random stream from its experiment key, so a Measurement does not
 * depend on when or on which thread it is computed. SweepEngine
 * relies on exactly that — it imposes no ordering between cells and
 * still returns the cells in deterministic row-major (config-major)
 * order, each carrying the same bits a serial sweep would produce.
 *
 * Thread count: SweepOptions::threads, 0 meaning the hardware
 * concurrency (see ThreadPool::defaultThreadCount).
 *
 * Observability: per-cell wall time, runner cache hit/miss deltas,
 * total wall time and throughput (experiments/sec) come back in the
 * SweepReport; bench/sweep_throughput.cc turns that into the perf
 * baseline future changes are measured against.
 *
 * Scale-out: SweepOptions::shardIndex/shardCount split the grid
 * deterministically across independent processes (each shard's
 * partial ResultStore merges back into a byte-identical full
 * store), SweepOptions::warmStart re-seeds the memo cache from a
 * prior store so an interrupted sweep resumes without recomputing,
 * and SweepOptions::checkpointEvery persists partial results
 * mid-run. See DESIGN.md "Sharded sweeps".
 */

#ifndef LHR_SWEEP_SWEEP_HH
#define LHR_SWEEP_SWEEP_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "machine/processor.hh"
#include "store/results_store.hh"
#include "workload/benchmark.hh"

namespace lhr
{

/** Knobs of one sweep execution. */
struct SweepOptions
{
    /** Worker threads; 0 = ThreadPool::defaultThreadCount(). */
    int threads = 0;

    /** Emit progress/throughput lines to stderr while sweeping. */
    bool progress = false;

    /**
     * Shard contract (`lhrlab snapshot --shard i/N`): the row-major
     * cell list is partitioned deterministically across shardCount
     * shards and this engine runs only the cells whose global index
     * is congruent to shardIndex (mod shardCount) — a strided
     * partition, so expensive configurations spread across shards.
     * Every shard of the same grid and seed produces bits identical
     * to the corresponding cells of a single-process sweep, so the
     * N partial stores merge into a byte-identical full store.
     * Defaults run the whole grid; run() panics on an index outside
     * [0, shardCount).
     */
    int shardIndex = 0;
    int shardCount = 1;

    /**
     * Warm-start store for checkpoint/resume: cells of this sweep
     * found in the store (by configKey() and benchmark name, so a
     * row seeds only its exact configuration) are pre-seeded into
     * the runner's memo cache and come back as cache hits without
     * re-measuring. Only the persisted fields survive (see
     * StoredResult::toMeasurement). The store must outlive run();
     * not owned.
     */
    const ResultStore *warmStart = nullptr;

    /**
     * Checkpoint cadence: every N completed cells the rows measured
     * so far (plus any warm-started ones) are saved atomically to
     * checkpointPath, so a killed shard resumes from its last
     * checkpoint instead of recomputing. 0 disables checkpointing.
     */
    size_t checkpointEvery = 0;
    std::string checkpointPath = "";

    /**
     * Cooperative stop request (typically set by a SIGINT/SIGTERM
     * handler): checked before each cell, so a stop lands at the
     * next cell boundary. Cells not yet started come back
     * StatusCode::Cancelled without running; cells already
     * measuring finish normally — their rows are kept, which is
     * what lets `lhrlab snapshot` flush a final checkpoint at the
     * last *completed* cell instead of the last --checkpoint
     * boundary. nullptr = never stopped externally. Not owned.
     */
    const std::atomic<bool> *stopFlag = nullptr;
};

/**
 * One grid cell. A cell that measured cleanly carries a Measurement
 * and an ok() status; a cell whose experiment threw (poisoned rig,
 * unrecoverable faults, any other error) carries a null measurement
 * and the error — one bad cell never aborts the sweep.
 */
struct SweepCell
{
    const MachineConfig *config = nullptr;    ///< report's own grid
    const Benchmark *benchmark = nullptr;     ///< report's own grid
    const Measurement *measurement = nullptr; ///< runner's cache; null on failure
    double wallSec = 0.0;   ///< time this cell's measure() took
    Status status;          ///< ok, or why the cell has no result

    [[nodiscard]] bool ok() const { return status.ok() && measurement != nullptr; }
};

/** Outcome and observability of one sweep. */
struct SweepReport
{
    /**
     * Cells in row-major order: configs outer, benchmarks inner.
     * A sharded sweep (shardCount > 1) holds only this shard's
     * cells, still in ascending row-major order.
     */
    std::vector<SweepCell> cells;

    /**
     * The report owns its grid: cells point into these copies, so a
     * report outlives any temporary vectors handed to run() (the
     * measurements themselves live in the runner's cache).
     */
    std::vector<MachineConfig> configs;
    std::vector<Benchmark> benchmarks;

    int threads = 0;           ///< workers that executed the sweep
    double wallSec = 0.0;      ///< whole-sweep wall time
    double maxCellSec = 0.0;   ///< slowest single experiment
    double sumCellSec = 0.0;   ///< total work across cells
    CacheStats cache;          ///< runner hit/miss delta of this sweep
    int shardIndex = 0;        ///< which shard this report covers
    int shardCount = 1;        ///< total shards of the grid
    size_t seededCells = 0;    ///< cells warm-started from a store

    [[nodiscard]] size_t experiments() const { return cells.size(); }

    /** Cells that failed (FaultError, other error, cancellation). */
    [[nodiscard]] size_t failedCells() const;

    /** Cells whose recovery hit a cap (Measurement::degraded). */
    [[nodiscard]] size_t degradedCells() const;

    /** Throughput in experiments per second of wall time. */
    [[nodiscard]] double experimentsPerSec() const
    {
        return wallSec > 0.0 ? cells.size() / wallSec : 0.0;
    }

    /**
     * Parallel efficiency proxy: total per-cell work divided by
     * (wall time x threads). 1.0 means perfectly packed workers.
     */
    [[nodiscard]] double utilization() const
    {
        const double capacity = wallSec * threads;
        return capacity > 0.0 ? sumCellSec / capacity : 0.0;
    }

    /** One-paragraph human-readable summary. */
    [[nodiscard]] std::string summary() const;
};

/**
 * Runs (configuration, benchmark) grids through an ExperimentRunner
 * on a FIFO thread pool.
 */
class SweepEngine
{
  public:
    explicit SweepEngine(ExperimentRunner &runner,
                         SweepOptions options = {});

    /**
     * Measure every configuration x benchmark cell. Cells come back
     * in row-major order regardless of execution interleaving; the
     * report copies the grid vectors, and the Measurement pointers
     * stay valid for the runner's lifetime.
     */
    [[nodiscard]] SweepReport run(std::vector<MachineConfig> configs,
                    std::vector<Benchmark> benchmarks);

  private:
    ExperimentRunner &runner;
    SweepOptions options;
};

/**
 * Convert a sweep's cells into a persistable ResultStore. Failed
 * cells (no measurement) are skipped — the store holds only rows
 * that actually measured.
 */
[[nodiscard]] ResultStore toStore(const SweepReport &report);

} // namespace lhr

#endif // LHR_SWEEP_SWEEP_HH
