#include "pipesim/pipeline.hh"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <mutex>

#include "bpred/predictor.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace lhr
{

PipelineConfig
PipelineConfig::of(const ProcessorSpec &spec, double clock_ghz)
{
    if (clock_ghz <= 0.0)
        panic("PipelineConfig::of: non-positive clock");
    const MicroArch &ua = spec.uarch();

    PipelineConfig cfg;
    cfg.issueWidth = ua.issueWidth;
    cfg.inOrder = !ua.outOfOrder;
    switch (spec.family) {
      case Family::NetBurst: cfg.windowSize = 48; break;
      case Family::Core:     cfg.windowSize = 96; break;
      case Family::Bonnell:  cfg.windowSize = 8; break;
      case Family::Nehalem:  cfg.windowSize = 128; break;
      case Family::SandyBridge: cfg.windowSize = 168; break;
      case Family::Haswell:     cfg.windowSize = 192; break;
      case Family::Broadwell:   cfg.windowSize = 192; break;
      case Family::SkylakeSP:   cfg.windowSize = 224; break;
    }
    cfg.branchPenalty = ua.branchPenalty;
    cfg.issueEfficiency = ua.issueEfficiency;
    cfg.ilpExtraction = ua.ilpExtraction;

    const CacheHierarchy hierarchy = makeHierarchy(spec);
    cfg.l1LatencyCycles = 3;
    for (size_t level = 1; level < hierarchy.levels().size(); ++level) {
        cfg.levelLatencyCycles.push_back(std::max(
            1, static_cast<int>(std::lround(
                   hierarchy.levels()[level].latencyNs * clock_ghz))));
    }
    cfg.dramLatencyCycles = std::max(
        1, static_cast<int>(
               std::lround(hierarchy.dramLatency() * clock_ghz)));
    return cfg;
}

PipelineSim::PipelineSim(
    const PipelineConfig &config,
    const std::vector<std::pair<double, int>> &cache_levels)
    : cfg(config), caches(cache_levels)
{
    if (cfg.issueWidth < 1 || cfg.windowSize < 1)
        panic("PipelineSim: invalid geometry");
}

int
PipelineSim::loadLatency(uint64_t addr)
{
    const int hitLevel = caches.accessHitLevel(addr);
    if (hitLevel < 0)
        return cfg.dramLatencyCycles;
    if (hitLevel == 0)
        return cfg.l1LatencyCycles;
    return cfg.levelLatencyCycles[hitLevel - 1];
}

namespace
{

/**
 * One block of a benchmark's shared stream: the micro-ops, and the
 * log of each op's dependence-distance draw (lanes scale it by their
 * own mean distance).
 */
struct TraceBlock
{
    MicroOpBatch ops;
    std::vector<double> logDep;
};

/** The per-(benchmark, seed) stream every lane consumes. */
class SharedStream
{
  public:
    SharedStream(const Benchmark &bench, uint64_t seed)
        : trace(bench, seed), depRng(seed ^ 0xD0D0)
    {
    }

    void fill(TraceBlock &block, size_t count)
    {
        trace.fill(block.ops, count);
        block.logDep.resize(count);
        for (size_t j = 0; j < count; ++j)
            block.logDep[j] = std::log(depRng.uniformPositive());
    }

  private:
    TraceGenerator trace;
    Rng depRng;
};

/** Ops of the block at op `base` of a `total`-op stream. */
size_t
blockOpsAt(uint64_t base, uint64_t total, size_t block_ops)
{
    return static_cast<size_t>(std::min<uint64_t>(block_ops, total - base));
}

/**
 * The concurrent ring: the producer may run ringBlocks blocks of
 * ringBlockOps ops ahead of the slowest task. Smaller than the
 * lockstep block so the ring costs no more memory than one
 * MicroOpBatch::defaultSize block.
 */
constexpr size_t ringBlocks = 4;
constexpr size_t ringBlockOps = MicroOpBatch::defaultSize / ringBlocks;

/**
 * Stream a `total`-op trace to `tasks` long-lived pool tasks through
 * a ring of blocks the calling thread fills ahead of them. A task
 * that falls behind (say its thread is descheduled) delays the
 * others only once the ring is full, not at every block.
 *
 * @param consume consume(task, block, base) steps one task's lanes
 *        through the block whose first op is number `base`
 */
void
streamToTasks(
    SharedStream &stream, uint64_t total, size_t tasks, ThreadPool &pool,
    const std::function<void(size_t, const TraceBlock &, uint64_t)> &consume)
{
    const uint64_t blockCount = (total + ringBlockOps - 1) / ringBlockOps;
    std::vector<TraceBlock> ring(ringBlocks);

    std::mutex mutex;
    std::condition_variable blockPublished;
    std::condition_variable blockReleased;
    uint64_t published = 0;                 ///< blocks filled so far
    std::vector<uint64_t> done(tasks, 0);   ///< blocks each task finished
    bool abandoned = false;                 ///< the producer threw
    // The three above are guarded by mutex. A slot is refilled only
    // after every task has finished the block it held.

    for (size_t task = 0; task < tasks; ++task) {
        pool.submit([&, task] {
            for (uint64_t n = 0; n < blockCount; ++n) {
                {
                    std::unique_lock<std::mutex> lock(mutex);
                    blockPublished.wait(lock, [&] {
                        return published > n || abandoned;
                    });
                    if (published <= n)
                        return;
                }
                consume(task, ring[n % ringBlocks], n * ringBlockOps);
                {
                    std::lock_guard<std::mutex> lock(mutex);
                    done[task] = n + 1;
                }
                blockReleased.notify_one();
            }
        });
    }

    try {
        for (uint64_t n = 0; n < blockCount; ++n) {
            // Slot n % ringBlocks last held block n - ringBlocks;
            // every task must be past it before it is overwritten.
            if (n >= ringBlocks) {
                std::unique_lock<std::mutex> lock(mutex);
                blockReleased.wait(lock, [&] {
                    return *std::min_element(done.begin(), done.end()) >
                        n - ringBlocks;
                });
            }
            const uint64_t base = n * ringBlockOps;
            stream.fill(ring[n % ringBlocks],
                        blockOpsAt(base, total, ringBlockOps));
            {
                std::lock_guard<std::mutex> lock(mutex);
                published = n + 1;
            }
            blockPublished.notify_all();
        }
    } catch (...) {
        // The tasks reference this frame: release and drain them
        // before unwinding it.
        {
            std::lock_guard<std::mutex> lock(mutex);
            abandoned = true;
        }
        blockPublished.notify_all();
        pool.wait();
        throw;
    }
    pool.wait();
}

/**
 * std::lround for x >= 0, inline: truncate, then round a fraction of
 * one half or more up. x - trunc(x) is exact below 2^52, and every
 * double from 2^52 up is already an integer.
 */
uint64_t
roundNonNegative(double x)
{
    uint64_t q = static_cast<uint64_t>(x);
    if (x - static_cast<double>(q) >= 0.5)
        ++q;
    return q;
}

} // namespace

/**
 * One simulator's issue state over a shared stream: everything a
 * processor owns (caches via its PipelineSim, predictor, completion
 * ring, stall counters), nothing the stream determines.
 */
class PipelineSim::Lane
{
  public:
    Lane(PipelineSim &owner, const Benchmark &bench, uint64_t warmup_ops)
        : sim(owner), predictor(14), completion(ring, 0.0),
          wasLoad(ring, 0),
          // Mean useful dependence distance: how far apart
          // dependent instructions sit, which is what "exploitable
          // ILP" measures.
          meanDep(std::max(1.05, bench.ilp * owner.cfg.ilpExtraction)),
          // Sustained front-end delivery: issueWidth slots at the
          // front end's efficiency.
          slotsPerCycle(owner.cfg.issueWidth * owner.cfg.issueEfficiency),
          warmup(warmup_ops)
    {
    }

    /** Issue the block's ops, whose first is op number `base`. */
    void consume(const TraceBlock &block, uint64_t base);

    PipelineResult result(uint64_t instructions) const;

  private:
    static constexpr size_t ring = 1024;

    PipelineSim &sim;
    BimodalPredictor predictor;
    // Ring buffers of recent op state (completion time, was-load).
    std::vector<double> completion;
    std::vector<uint8_t> wasLoad;
    const double meanDep;
    const double slotsPerCycle;
    const uint64_t warmup;

    double frontEnd = 0.0;       // next front-end availability
    double memStall = 0.0;
    double branchStall = 0.0;
    double totalStall = 0.0;
    double lastCompletion = 0.0;
    double measureStartCycle = 0.0;
};

void
PipelineSim::Lane::consume(const TraceBlock &block, uint64_t base)
{
    const MicroOpBatch &batch = block.ops;
    // Work on locals: the ring stores could otherwise alias the
    // members and force a reload of every counter, every config
    // field and the front-end division per op.
    double frontEnd = this->frontEnd;
    double memStall = this->memStall;
    double branchStall = this->branchStall;
    double totalStall = this->totalStall;
    double lastCompletion = this->lastCompletion;
    const double slotCycles = 1.0 / slotsPerCycle;
    const double meanDep = this->meanDep;
    const uint64_t warmup = this->warmup;
    const auto window = static_cast<size_t>(sim.cfg.windowSize);
    const bool inOrder = sim.cfg.inOrder;
    const double branchPenalty = sim.cfg.branchPenalty;
    double *const completion = this->completion.data();
    uint8_t *const wasLoad = this->wasLoad.data();
    const double *const logDep = block.logDep.data();

    for (size_t j = 0; j < batch.size(); ++j) {
        const uint64_t i = base + j;
        if (i == warmup)
            measureStartCycle = frontEnd;

        frontEnd += slotCycles;

        // Dependence: this op consumes the value of an op `d`
        // earlier (exponential distances around the mean).
        const uint64_t dist =
            std::max<uint64_t>(1, roundNonNegative(-meanDep * logDep[j]));
        double ready = 0.0;
        bool depOnLoad = false;
        if (dist <= i && dist < ring) {
            ready = completion[(i - dist) % ring];
            depOnLoad = wasLoad[(i - dist) % ring];
        }

        // Window constraint: no more than windowSize ops in
        // flight (stall-on-use with a tiny window models
        // in-order issue).
        double windowReady = 0.0;
        bool windowOnLoad = false;
        if (i >= window) {
            windowReady = completion[(i - window) % ring];
            windowOnLoad = wasLoad[(i - window) % ring];
        }

        const double issue = std::max({frontEnd, ready, windowReady});

        // Attribute the stall beyond the front end. Out-of-order
        // machines keep fetching past a waiting op (only the
        // window limits them); an in-order machine serializes
        // issue behind it.
        const double stall = issue - frontEnd;
        if (stall > 0.0) {
            totalStall += stall;
            if ((ready >= windowReady && depOnLoad) ||
                (windowReady > ready && windowOnLoad)) {
                memStall += stall;
            }
            if (inOrder)
                frontEnd = issue;
        }

        double latency = 1.0;
        bool isLoad = false;
        switch (batch.kindAt(j)) {
          case MicroOp::Kind::Alu:
            break;
          case MicroOp::Kind::Store:
            // Write buffers hide store latency.
            sim.caches.access(batch.addr[j]);
            break;
          case MicroOp::Kind::Load:
            latency = sim.loadLatency(batch.addr[j]);
            isLoad = true;
            break;
          case MicroOp::Kind::Branch: {
            if (predictor.runInline(batch.pc[j], batch.taken[j] != 0)) {
                // Redirect after resolution.
                const double resolve = issue + 1.0;
                const double redirect = resolve + branchPenalty;
                if (redirect > frontEnd) {
                    branchStall += redirect - frontEnd;
                    totalStall += redirect - frontEnd;
                    frontEnd = redirect;
                }
            }
            break;
          }
        }

        const double done = issue + latency;
        completion[i % ring] = done;
        wasLoad[i % ring] = isLoad ? 1 : 0;
        lastCompletion = std::max(lastCompletion, done);
    }

    this->frontEnd = frontEnd;
    this->memStall = memStall;
    this->branchStall = branchStall;
    this->totalStall = totalStall;
    this->lastCompletion = lastCompletion;
}

PipelineResult
PipelineSim::Lane::result(uint64_t instructions) const
{
    PipelineResult result;
    result.instructions = instructions;
    result.cycles = std::max(1.0, lastCompletion - measureStartCycle);
    result.ipc = instructions / result.cycles;
    const double denom = std::max(1e-9, totalStall);
    result.memStallShare = memStall / denom;
    result.branchStallShare = branchStall / denom;
    return result;
}

PipelineResult
PipelineSim::run(const Benchmark &bench, uint64_t instructions,
                 uint64_t seed, uint64_t warmup)
{
    return runLanes({this}, bench, instructions, seed, warmup).front();
}

std::vector<PipelineResult>
PipelineSim::runLanes(const std::vector<PipelineSim *> &sims,
                      const Benchmark &bench, uint64_t instructions,
                      uint64_t seed, uint64_t warmup, ThreadPool *pool)
{
    if (instructions == 0)
        panic("PipelineSim: zero instructions");
    if (sims.empty())
        panic("PipelineSim::runLanes: no simulators");
    std::vector<Lane> lanes;
    lanes.reserve(sims.size());
    for (size_t k = 0; k < sims.size(); ++k) {
        if (std::find(sims.begin(), sims.begin() + k, sims[k]) !=
            sims.begin() + k)
            panic("PipelineSim::runLanes: a simulator appears twice");
        lanes.emplace_back(*sims[k], bench, warmup);
    }

    SharedStream stream(bench, seed);
    const uint64_t total = warmup + instructions;
    if (!pool) {
        // Lockstep: every lane walks a block before the next is
        // generated into the same buffer.
        TraceBlock block;
        for (uint64_t base = 0; base < total; base += block.ops.size()) {
            stream.fill(block, blockOpsAt(base, total,
                                          MicroOpBatch::defaultSize));
            for (Lane &lane : lanes)
                lane.consume(block, base);
        }
    } else {
        // Task t steps lanes t, t + tasks, ... through each block.
        const size_t tasks = std::min(
            lanes.size(), static_cast<size_t>(pool->threadCount()));
        streamToTasks(stream, total, tasks, *pool,
                      [&lanes, tasks](size_t task, const TraceBlock &block,
                                      uint64_t base) {
                          for (size_t k = task; k < lanes.size(); k += tasks)
                              lanes[k].consume(block, base);
                      });
    }

    std::vector<PipelineResult> results;
    results.reserve(lanes.size());
    for (const Lane &lane : lanes)
        results.push_back(lane.result(instructions));
    return results;
}

} // namespace lhr
