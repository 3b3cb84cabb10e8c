/**
 * @file
 * Tests for the FIFO thread pool, the concurrency-safe
 * experiment runner, and the parallel sweep engine's determinism
 * contract: a parallel sweep must produce bit-identical Measurements
 * to a serial run, whatever the thread count or interleaving. The
 * hammer tests here also run under the ThreadSanitizer CI job.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/lab.hh"
#include "sweep/sweep.hh"
#include "util/thread_pool.hh"

namespace lhr
{

namespace
{

/** A small but representative grid: 3 configs x 10 benchmarks. */
std::vector<MachineConfig>
testConfigs()
{
    return {
        stockConfig(processorById("Atom (45)")),
        stockConfig(processorById("i7 (45)")),
        withSmt(stockConfig(processorById("i5 (32)")), false),
    };
}

std::vector<Benchmark>
testBenchmarks()
{
    const auto &all = allBenchmarks();
    // First ten spans native and Java workloads.
    return {all.begin(), all.begin() + 10};
}

/**
 * Nested parallelFor on a 2-thread pool: a 2x4 nest must run every
 * inner iteration once, and an inner iteration that throws must let
 * its siblings run and then surface from the outer call.
 */
bool
nestedParallelForWorks()
{
    ThreadPool pool(2);
    std::vector<std::atomic<int>> hits(8);
    pool.parallelFor(2, [&](size_t outer) {
        pool.parallelFor(4, [&, outer](size_t inner) {
            hits[outer * 4 + inner].fetch_add(1);
        });
    });
    bool ok = std::all_of(hits.begin(), hits.end(),
                          [](const auto &hit) { return hit.load() == 1; });

    std::atomic<int> ran{0};
    bool rethrew = false;
    try {
        pool.parallelFor(1, [&](size_t) {
            pool.parallelFor(6, [&](size_t i) {
                ran.fetch_add(1);
                if (i == 2)
                    throw std::runtime_error("inner 2");
            });
        });
    } catch (const std::runtime_error &) {
        rethrew = true;
    }
    ok = ok && rethrew && ran.load() == 6;
    if (!ok)
        std::fprintf(stderr, "nested parallelFor: wrong iterations\n");
    return ok;
}

} // namespace

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4);
    std::atomic<int> counter{0};
    for (int i = 0; i < 1000; ++i)
        pool.submit([&counter] {
            counter.fetch_add(1, std::memory_order_relaxed);
        });
    pool.wait();
    EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPool, ParallelForCoversTheRange)
{
    ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(257);
    pool.parallelFor(hits.size(), [&hits](size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, WaitIsReusableAcrossBatches)
{
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    for (int batch = 0; batch < 5; ++batch) {
        for (int i = 0; i < 50; ++i)
            pool.submit([&counter] { ++counter; });
        pool.wait();
        EXPECT_EQ(counter.load(), (batch + 1) * 50);
    }
}

TEST(ThreadPool, ZeroMeansDefaultThreadCount)
{
    // The hardware concurrency, whatever the environment says: the
    // thread count is an explicit input (`--jobs`), so a stray
    // LHR_THREADS changes nothing.
    const unsigned hw = std::thread::hardware_concurrency();
    const int expected = hw == 0 ? 1 : static_cast<int>(hw);
    ASSERT_EQ(::setenv("LHR_THREADS", std::to_string(expected + 1).c_str(),
                       1),
              0);
    ThreadPool pool(0);
    ::unsetenv("LHR_THREADS");
    EXPECT_EQ(pool.threadCount(), expected);
    EXPECT_EQ(ThreadPool::defaultThreadCount(), expected);
}

TEST(ThreadPool, ThrowingTaskSurfacesFromWaitWithoutLosingSiblings)
{
    ThreadPool pool(4);
    std::atomic<int> completed{0};
    for (int i = 0; i < 200; ++i) {
        pool.submit([&completed, i] {
            if (i == 97)
                throw FaultError(Status::error(
                    StatusCode::Internal, "task 97 exploded"));
            completed.fetch_add(1, std::memory_order_relaxed);
        });
    }
    try {
        pool.wait();
        FAIL() << "wait() swallowed the task's exception";
    } catch (const FaultError &e) {
        EXPECT_EQ(e.status().code(), StatusCode::Internal);
        EXPECT_NE(std::string(e.what()).find("task 97"),
                  std::string::npos);
    }
    // Every sibling still ran; no worker died, no task was lost.
    EXPECT_EQ(completed.load(), 199);

    // The pool is reusable after the rethrow.
    pool.submit([&completed] { ++completed; });
    pool.wait();
    EXPECT_EQ(completed.load(), 200);
}

TEST(ThreadPool, ParallelForRethrowsToo)
{
    ThreadPool pool(3);
    EXPECT_THROW(pool.parallelFor(64,
                                  [](size_t i) {
                                      if (i == 13)
                                          throw std::runtime_error(
                                              "iteration 13");
                                  }),
                 std::runtime_error);
}

TEST(ThreadPool, NestedParallelForFromAWorkerCompletes)
{
    // parallelFor called from inside one of the pool's own tasks
    // used to wait for a pending count that included the calling
    // task, and hung. The nests run in a death-test child under a
    // 5 s alarm, so a regression fails instead of hanging the suite.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            alarm(5);
            std::exit(nestedParallelForWorks() ? 0 : 1);
        },
        testing::ExitedWithCode(0), "");
}

TEST(Lab, ReferenceIsBuiltOnceForConcurrentCallers)
{
    Lab lab;
    constexpr int callers = 8;
    std::vector<const ReferenceSet *> seen(callers, nullptr);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < callers; ++i) {
        threads.emplace_back([&, i] {
            // Line every caller up on the lazy build.
            ready.fetch_add(1);
            while (ready.load() < callers)
                std::this_thread::yield();
            seen[i] = &lab.reference();
        });
    }
    for (auto &thread : threads)
        thread.join();
    ASSERT_NE(seen[0], nullptr);
    for (int i = 0; i < callers; ++i)
        EXPECT_EQ(seen[i], seen[0]) << "caller " << i;
    EXPECT_EQ(&lab.reference(), seen[0]);
}

TEST(Sweep, PoisonedConfigDegradesToOneFlaggedRow)
{
    // The acceptance scenario of the fault rig: the paper's full 45
    // configurations with one dead rig. The sweep completes, flags
    // exactly the poisoned rows, and every other cell measures.
    const auto configs = standardConfigurations();
    ASSERT_EQ(configs.size(), 45u);
    const std::vector<Benchmark> benchmarks = {
        benchmarkByName("mcf")};

    ExperimentRunner runner(0xBEEF);
    FaultPlan plan;
    plan.poisonedConfig = configKey(configs[7]);
    runner.setFaultPlan(plan);

    SweepEngine engine(runner, {.threads = 4});
    const SweepReport report = engine.run(configs, benchmarks);

    ASSERT_EQ(report.cells.size(), 45u);
    size_t flagged = 0;
    for (const SweepCell &cell : report.cells) {
        if (configKey(*cell.config) == plan.poisonedConfig) {
            ++flagged;
            EXPECT_FALSE(cell.ok());
            EXPECT_EQ(cell.measurement, nullptr);
            EXPECT_EQ(cell.status.code(), StatusCode::FaultDetected);
        } else {
            EXPECT_TRUE(cell.ok()) << cell.config->label();
            ASSERT_NE(cell.measurement, nullptr);
            EXPECT_GT(cell.measurement->timeSec, 0.0);
        }
    }
    // Several of the 45 configurations are derated variants of the
    // same part; the poisoned key appears exactly once here.
    EXPECT_EQ(flagged, 1u);
    EXPECT_EQ(report.failedCells(), 1u);
    EXPECT_NE(report.summary().find("1 failed"), std::string::npos);

    // The persistable store holds only the 44 healthy rows.
    const ResultStore store = toStore(report);
    EXPECT_EQ(store.size(), 44u);
    EXPECT_EQ(store.find(plan.poisonedConfig, "mcf"), nullptr);

    // Healthy rows are bit-identical to a plan-free serial runner: a
    // poison-only plan perturbs nothing else.
    ExperimentRunner clean(0xBEEF);
    for (const SweepCell &cell : report.cells) {
        if (cell.ok()) {
            EXPECT_TRUE(sameBits(
                *cell.measurement,
                clean.measure(*cell.config, *cell.benchmark)));
        }
    }
}

TEST(Sweep, ParallelIsBitIdenticalToSerial)
{
    const auto configs = testConfigs();
    const auto benchmarks = testBenchmarks();

    ExperimentRunner serialRunner(0xBEEF);
    std::vector<const Measurement *> serial;
    for (const auto &cfg : configs)
        for (const auto &bench : benchmarks)
            serial.push_back(&serialRunner.measure(cfg, bench));

    ExperimentRunner parallelRunner(0xBEEF);
    SweepEngine engine(parallelRunner, {.threads = 4});
    const SweepReport report = engine.run(configs, benchmarks);

    ASSERT_EQ(report.cells.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_TRUE(sameBits(*serial[i], *report.cells[i].measurement))
            << report.cells[i].config->label() << " / "
            << report.cells[i].benchmark->name;
    }
}

TEST(Sweep, CellsComeBackInRowMajorOrder)
{
    const auto configs = testConfigs();
    const auto benchmarks = testBenchmarks();
    ExperimentRunner runner(0xBEEF);
    SweepEngine engine(runner, {.threads = 4});
    const SweepReport report = engine.run(configs, benchmarks);

    ASSERT_EQ(report.cells.size(),
              configs.size() * benchmarks.size());
    // Cells point into the report's own grid copies, in row-major
    // order: configs outer, benchmarks inner.
    ASSERT_EQ(report.configs.size(), configs.size());
    ASSERT_EQ(report.benchmarks.size(), benchmarks.size());
    for (size_t ci = 0; ci < configs.size(); ++ci) {
        for (size_t bi = 0; bi < benchmarks.size(); ++bi) {
            const SweepCell &cell =
                report.cells[ci * benchmarks.size() + bi];
            EXPECT_EQ(cell.config, &report.configs[ci]);
            EXPECT_EQ(cell.config->label(), configs[ci].label());
            EXPECT_EQ(cell.benchmark, &report.benchmarks[bi]);
            EXPECT_EQ(cell.benchmark->name, benchmarks[bi].name);
            ASSERT_NE(cell.measurement, nullptr);
            EXPECT_GE(cell.wallSec, 0.0);
        }
    }
}

TEST(Sweep, ReportCountsCacheTraffic)
{
    const auto configs = testConfigs();
    const auto benchmarks = testBenchmarks();
    ExperimentRunner runner(0xBEEF);
    SweepEngine engine(runner, {.threads = 2});

    const SweepReport cold = engine.run(configs, benchmarks);
    EXPECT_EQ(cold.cache.misses, cold.cells.size());
    EXPECT_EQ(cold.cache.hits, 0u);
    EXPECT_GT(cold.wallSec, 0.0);
    EXPECT_GT(cold.experimentsPerSec(), 0.0);

    const SweepReport warm = engine.run(configs, benchmarks);
    EXPECT_EQ(warm.cache.hits, warm.cells.size());
    EXPECT_EQ(warm.cache.misses, 0u);
    // Cached measurements are the same objects.
    for (size_t i = 0; i < cold.cells.size(); ++i)
        EXPECT_EQ(cold.cells[i].measurement,
                  warm.cells[i].measurement);

    EXPECT_EQ(runner.cachedMeasurements(), cold.cells.size());
}

TEST(Sweep, ReportOwnsItsGrid)
{
    // The grid vectors passed in are temporaries; the report must
    // survive them, because its cells point into its own copies.
    Lab lab(0xBEEF);
    const SweepReport report =
        lab.sweep(testConfigs(), testBenchmarks(), {.threads = 2});
    ASSERT_FALSE(report.cells.empty());
    const auto expect = testConfigs();
    for (size_t i = 0; i < report.cells.size(); ++i) {
        const SweepCell &cell = report.cells[i];
        EXPECT_EQ(cell.config->label(),
                  expect[i / report.benchmarks.size()].label());
        EXPECT_GT(cell.measurement->timeSec, 0.0);
    }
}

TEST(Sweep, ToStoreKeepsEveryCell)
{
    const auto configs = testConfigs();
    const auto benchmarks = testBenchmarks();
    ExperimentRunner runner(0xBEEF);
    SweepEngine engine(runner, {.threads = 2});
    const SweepReport report = engine.run(configs, benchmarks);

    const ResultStore store = toStore(report);
    EXPECT_EQ(store.size(), report.cells.size());
    const StoredResult *found =
        store.find(configKey(configs[0]), benchmarks[0].name);
    ASSERT_NE(found, nullptr);
    EXPECT_DOUBLE_EQ(found->timeSec,
                     report.cells[0].measurement->timeSec);

    // A fresh full-benchmark sweep of one config agrees row by row.
    ExperimentRunner serialRunner(0xBEEF);
    const ResultStore serialStore =
        toStore(SweepEngine(serialRunner).run({configs[0]}, allBenchmarks()));
    for (const auto *row : serialStore.all()) {
        const StoredResult *other =
            store.find(row->config, row->benchmark);
        if (other) {
            EXPECT_DOUBLE_EQ(other->timeSec, row->timeSec);
        }
    }
}

TEST(Sweep, SameKeyHammerReturnsOneObject)
{
    // Many threads demand the same experiment at once: exactly one
    // measurement must run, everyone gets the same address, and the
    // bits match an independent serial runner. This is the test the
    // TSan job leans on to race-check the sharded memo cache.
    ExperimentRunner runner(0xBEEF);
    const auto cfg = stockConfig(processorById("i7 (45)"));
    const auto &bench = benchmarkByName("xalan");

    constexpr int threadCount = 8;
    std::vector<const Measurement *> seen(threadCount, nullptr);
    {
        std::vector<std::thread> threads;
        for (int t = 0; t < threadCount; ++t)
            threads.emplace_back([&, t] {
                seen[t] = &runner.measure(cfg, bench);
            });
        for (auto &thread : threads)
            thread.join();
    }
    for (int t = 1; t < threadCount; ++t)
        EXPECT_EQ(seen[t], seen[0]);

    const CacheStats stats = runner.cacheStats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, static_cast<uint64_t>(threadCount - 1));

    ExperimentRunner fresh(0xBEEF);
    EXPECT_TRUE(sameBits(fresh.measure(cfg, bench), *seen[0]));
}

TEST(Sweep, MixedKeyHammerStaysDeterministic)
{
    // Threads hammer overlapping keys (every thread walks the whole
    // small grid) while the runner lazily builds models and rigs.
    const auto configs = testConfigs();
    const auto benchmarks = testBenchmarks();
    ExperimentRunner runner(0x5EED);

    constexpr int threadCount = 6;
    std::vector<std::thread> threads;
    for (int t = 0; t < threadCount; ++t)
        threads.emplace_back([&] {
            for (const auto &cfg : configs)
                for (const auto &bench : benchmarks)
                    runner.measure(cfg, bench);
        });
    for (auto &thread : threads)
        thread.join();

    const size_t grid = configs.size() * benchmarks.size();
    EXPECT_EQ(runner.cachedMeasurements(), grid);
    const CacheStats stats = runner.cacheStats();
    EXPECT_EQ(stats.misses, grid);
    EXPECT_EQ(stats.lookups(), grid * threadCount);

    ExperimentRunner serial(0x5EED);
    for (const auto &cfg : configs)
        for (const auto &bench : benchmarks)
            EXPECT_TRUE(sameBits(serial.measure(cfg, bench),
                                  runner.measure(cfg, bench)));
}

namespace
{

/** save() into a string for byte-identity assertions. */
std::string
savedText(const ResultStore &store)
{
    std::ostringstream os;
    const Status saved = store.save(os);
    EXPECT_TRUE(saved.ok()) << saved.toString();
    return os.str();
}

} // namespace

TEST(Sweep, ShardPartitionCoversTheGridExactlyOnce)
{
    // The --shard i/N contract: the row-major cell list is split
    // deterministically, every cell lands in exactly one shard, and
    // each shard's cells stay in ascending row-major order.
    const auto configs = testConfigs();
    const auto benchmarks = testBenchmarks();
    const int shards = 4;
    const size_t total = configs.size() * benchmarks.size();

    std::vector<int> owner(total, 0);
    for (int s = 0; s < shards; ++s) {
        ExperimentRunner runner(0xBEEF);
        SweepEngine engine(runner, {.threads = 2,
                                    .shardIndex = s,
                                    .shardCount = shards});
        const SweepReport report = engine.run(configs, benchmarks);
        EXPECT_EQ(report.shardIndex, s);
        EXPECT_EQ(report.shardCount, shards);
        // Near-equal split: the strided partition differs by at
        // most one cell between shards.
        EXPECT_GE(report.cells.size(), total / shards);
        EXPECT_LE(report.cells.size(), total / shards + 1);

        for (const SweepCell &cell : report.cells) {
            ASSERT_NE(cell.config, nullptr);
            ASSERT_NE(cell.benchmark, nullptr);
            // Recover the global row-major index from the grid.
            size_t ci = 0, bi = 0;
            for (size_t k = 0; k < report.configs.size(); ++k)
                if (cell.config == &report.configs[k])
                    ci = k;
            for (size_t k = 0; k < report.benchmarks.size(); ++k)
                if (cell.benchmark == &report.benchmarks[k])
                    bi = k;
            const size_t idx = ci * benchmarks.size() + bi;
            EXPECT_EQ(idx % shards, static_cast<size_t>(s));
            ++owner[idx];
        }
    }
    for (size_t idx = 0; idx < total; ++idx)
        EXPECT_EQ(owner[idx], 1) << "cell " << idx;
}

TEST(Sweep, ShardMergeIsByteIdenticalToSingleProcess)
{
    // The acceptance contract of the sharded sweep: N independent
    // shard processes (modeled here as independent runners with the
    // same seed) produce partial stores that merge into a store
    // byte-identical to a single-process sweep of the whole grid.
    const auto configs = testConfigs();
    const auto benchmarks = testBenchmarks();

    ExperimentRunner whole(0xBEEF);
    SweepEngine engine(whole, {.threads = 4});
    const std::string single =
        savedText(toStore(engine.run(configs, benchmarks)));

    ResultStore merged;
    for (int s = 0; s < 3; ++s) {
        ExperimentRunner runner(0xBEEF); // fresh process, same seed
        SweepEngine shardEngine(runner, {.threads = 2,
                                         .shardIndex = s,
                                         .shardCount = 3});
        const ResultStore part =
            toStore(shardEngine.run(configs, benchmarks));
        const Status ok = merged.merge(part);
        ASSERT_TRUE(ok.ok()) << ok.toString();
    }
    EXPECT_EQ(savedText(merged), single);
}

TEST(Sweep, ShardOutsideContractDies)
{
    ExperimentRunner runner(0xBEEF);
    SweepEngine engine(runner, {.shardIndex = 3, .shardCount = 3});
    EXPECT_DEATH(engine.run(testConfigs(), testBenchmarks()),
                 "shard");
}

TEST(Sweep, WarmStartResumesWithoutRemeasuring)
{
    // Checkpoint/resume: a sweep warm-started from a complete prior
    // store re-measures nothing — zero cache misses, every lookup a
    // hit — and still round-trips to the identical snapshot bytes.
    const auto configs = testConfigs();
    const auto benchmarks = testBenchmarks();

    ExperimentRunner first(0xBEEF);
    SweepEngine firstEngine(first, {.threads = 4});
    const ResultStore prior =
        toStore(firstEngine.run(configs, benchmarks));

    ExperimentRunner resumed(0xBEEF);
    SweepEngine engine(resumed, {.threads = 4, .warmStart = &prior});
    const SweepReport report = engine.run(configs, benchmarks);

    EXPECT_EQ(report.seededCells, report.cells.size());
    EXPECT_EQ(report.cache.misses, 0u);
    EXPECT_EQ(report.cache.hits, report.cells.size());
    EXPECT_NE(report.summary().find("resumed from store"),
              std::string::npos);
    // The resumed store is byte-identical: %.6f text parsed back and
    // re-printed reproduces itself.
    EXPECT_EQ(savedText(toStore(report)), savedText(prior));
}

TEST(Sweep, WarmStartSeedsOnlyTheExactConfig)
{
    // i7 (45) at 1.66 and at 1.70 GHz share the rounded display
    // label; a store row of one must never seed the other.
    const MachineConfig stock = stockConfig(processorById("i7 (45)"));
    const MachineConfig low = withClock(stock, 1.66);
    const MachineConfig high = withClock(stock, 1.70);
    ASSERT_EQ(low.label(), high.label());
    const std::vector<Benchmark> benchmarks = {benchmarkByName("mcf")};

    ExperimentRunner first(0xBEEF);
    const ResultStore prior =
        toStore(SweepEngine(first).run({low}, benchmarks));
    ASSERT_EQ(prior.size(), 1u);

    ExperimentRunner resumed(0xBEEF);
    SweepEngine engine(resumed, {.threads = 1, .warmStart = &prior});
    const SweepReport report = engine.run({high}, benchmarks);
    EXPECT_EQ(report.seededCells, 0u);
    EXPECT_EQ(report.cache.misses, 1u);
    ASSERT_TRUE(report.cells[0].ok());

    ExperimentRunner fresh(0xBEEF);
    EXPECT_TRUE(sameBits(*report.cells[0].measurement,
                          fresh.measure(high, benchmarks[0])));
}

TEST(Sweep, PartialWarmStartMeasuresOnlyTheMissingCells)
{
    const auto configs = testConfigs();
    const auto benchmarks = testBenchmarks();

    ExperimentRunner first(0xBEEF);
    SweepEngine firstEngine(first, {.threads = 4});
    ResultStore prior = toStore(firstEngine.run(configs, benchmarks));

    // Simulate an interrupted sweep: the last checkpoint is missing
    // a handful of rows.
    const std::vector<std::string> missing = {
        benchmarks[1].name, benchmarks[4].name, benchmarks[7].name};
    ResultStore partial;
    for (const auto *r : prior.all()) {
        if (std::find(missing.begin(), missing.end(), r->benchmark) ==
            missing.end())
            partial.put(*r);
    }
    const size_t holes = prior.size() - partial.size();
    ASSERT_EQ(holes, configs.size() * missing.size());

    ExperimentRunner resumed(0xBEEF);
    SweepEngine engine(resumed, {.threads = 4,
                                 .warmStart = &partial});
    const SweepReport report = engine.run(configs, benchmarks);

    EXPECT_EQ(report.seededCells, partial.size());
    EXPECT_EQ(report.cache.misses, holes);
    EXPECT_EQ(report.cache.hits, partial.size());
    // Re-measured holes carry full-precision bits, so compare via
    // the persisted rounding: the final snapshot matches the
    // original complete one byte for byte.
    EXPECT_EQ(savedText(toStore(report)), savedText(prior));
}

TEST(Sweep, WarmStartAppliesOnlyToThisShardsCells)
{
    // A full-grid prior store seeds only the cells this shard owns:
    // the other shards' rows must not inflate this shard's report
    // or its store.
    const auto configs = testConfigs();
    const auto benchmarks = testBenchmarks();

    ExperimentRunner first(0xBEEF);
    SweepEngine firstEngine(first, {.threads = 4});
    const ResultStore prior =
        toStore(firstEngine.run(configs, benchmarks));

    ExperimentRunner resumed(0xBEEF);
    SweepEngine engine(resumed, {.threads = 2,
                                 .shardIndex = 1,
                                 .shardCount = 3,
                                 .warmStart = &prior});
    const SweepReport report = engine.run(configs, benchmarks);
    EXPECT_EQ(report.seededCells, report.cells.size());
    EXPECT_EQ(report.cache.misses, 0u);
    EXPECT_EQ(toStore(report).size(), report.cells.size());
}

TEST(Sweep, CheckpointPersistsMidRunAndResumes)
{
    const auto configs = testConfigs();
    const auto benchmarks = testBenchmarks();
    const std::string path =
        testing::TempDir() + "sweep_checkpoint.csv";
    std::remove(path.c_str());

    // One thread makes the checkpoint cadence deterministic: saves
    // land at exactly 5, 10, ..., 25 completed cells (the final
    // partial interval is the caller's save), so the file holds
    // exactly 25 of the 30 rows.
    ExperimentRunner runner(0xBEEF);
    SweepEngine engine(runner, {.threads = 1,
                                .checkpointEvery = 5,
                                .checkpointPath = path});
    const SweepReport report = engine.run(configs, benchmarks);
    ASSERT_EQ(report.cells.size(), 30u);

    const Expected<ResultStore> checkpoint =
        ResultStore::tryLoadFile(path);
    ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().toString();
    EXPECT_EQ(checkpoint.value().size(), 25u);
    // Every checkpoint row matches the final results through the
    // persisted rounding (checkpoint rows went through %.6f text;
    // the report still holds full-precision doubles).
    const ResultStore full = toStore(report);
    ResultStore fullSubset;
    for (const auto *r : checkpoint.value().all()) {
        const StoredResult *other =
            full.find(r->config, r->benchmark);
        ASSERT_NE(other, nullptr)
            << r->config << " / " << r->benchmark;
        fullSubset.put(*other);
    }
    EXPECT_EQ(savedText(checkpoint.value()), savedText(fullSubset));

    // Resume from the checkpoint: seeded cells equal its rows, and
    // the final store matches the uninterrupted sweep byte for byte.
    ExperimentRunner resumed(0xBEEF);
    SweepEngine resumeEngine(resumed,
                             {.threads = 2,
                              .warmStart = &checkpoint.value()});
    const SweepReport resumedReport =
        resumeEngine.run(configs, benchmarks);
    EXPECT_EQ(resumedReport.seededCells, checkpoint.value().size());
    EXPECT_EQ(resumedReport.cache.misses,
              resumedReport.cells.size() - checkpoint.value().size());
    EXPECT_EQ(savedText(toStore(resumedReport)), savedText(full));
    std::remove(path.c_str());
}

TEST(Sweep, StopFlagCancelsUnstartedCellsAndKeepsCompletedRows)
{
    // A stop flag that is already set when the sweep starts must
    // cancel every cell without running any experiment — this is
    // the boundary snapshot's SIGINT handler relies on.
    ExperimentRunner runner(0xBEEF);
    std::atomic<bool> stop{true};
    SweepOptions options;
    options.threads = 2;
    options.stopFlag = &stop;
    SweepEngine engine(runner, options);
    const SweepReport report = engine.run(testConfigs(),
                                          testBenchmarks());
    ASSERT_EQ(report.cells.size(), 30u);
    for (const SweepCell &cell : report.cells) {
        EXPECT_FALSE(cell.ok());
        EXPECT_EQ(cell.status.code(), StatusCode::Cancelled);
    }
    EXPECT_EQ(runner.cacheStats().lookups(), 0u);
    EXPECT_EQ(toStore(report).size(), 0u);

    // Cleared flag: the identical sweep runs to completion, and its
    // rows are bit-identical to an unflagged engine's (the stop
    // plumbing must not perturb determinism).
    stop.store(false);
    const SweepReport resumed = engine.run(testConfigs(),
                                           testBenchmarks());
    EXPECT_EQ(resumed.failedCells(), 0u);
    ExperimentRunner plainRunner(0xBEEF);
    SweepEngine plain(plainRunner, SweepOptions{.threads = 2});
    const SweepReport reference = plain.run(testConfigs(),
                                            testBenchmarks());
    ASSERT_EQ(resumed.cells.size(), reference.cells.size());
    for (size_t i = 0; i < resumed.cells.size(); ++i) {
        ASSERT_TRUE(resumed.cells[i].ok());
        EXPECT_TRUE(sameBits(*resumed.cells[i].measurement,
                              *reference.cells[i].measurement));
    }
}

TEST(Sweep, CellWallTimesAreMeasuredPerCell)
{
    // Every cell carries its own measure() time, not a share of some
    // larger unit of work: eight configurations of one benchmark on
    // one worker must not all report the same wall time.
    ExperimentRunner runner(0xBEEF);
    std::vector<MachineConfig> configs = standardConfigurations();
    configs.resize(8);
    SweepEngine engine(runner, SweepOptions{.threads = 1});
    const SweepReport report =
        engine.run(configs, {benchmarkByName("mcf")});
    ASSERT_EQ(report.cells.size(), 8u);
    double sum = 0.0;
    bool allEqual = true;
    for (const SweepCell &cell : report.cells) {
        ASSERT_TRUE(cell.ok());
        EXPECT_GT(cell.wallSec, 0.0);
        allEqual = allEqual &&
            cell.wallSec == report.cells.front().wallSec;
        sum += cell.wallSec;
    }
    EXPECT_FALSE(allEqual);
    EXPECT_EQ(report.sumCellSec, sum);
}

TEST(Sweep, CacheStatsResetKeepsEntries)
{
    ExperimentRunner runner(0xBEEF);
    const auto cfg = stockConfig(processorById("Atom (45)"));
    const auto &bench = benchmarkByName("mcf");
    runner.measure(cfg, bench);
    EXPECT_EQ(runner.cacheStats().misses, 1u);

    runner.resetCacheStats();
    EXPECT_EQ(runner.cacheStats().lookups(), 0u);
    runner.measure(cfg, bench);
    EXPECT_EQ(runner.cacheStats().hits, 1u);
    EXPECT_EQ(runner.cacheStats().misses, 0u);
}

} // namespace lhr
