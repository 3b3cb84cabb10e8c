/**
 * @file
 * lhr::Lab — the public facade of lhrlab.
 *
 * A Lab owns an ExperimentRunner (the measurement harness) and the
 * ReferenceSet (the four-machine normalization baseline), and exposes
 * the operations a user needs to reproduce the paper or run their own
 * studies:
 *
 *   lhr::Lab lab;
 *   auto cfg = lhr::stockConfig(lhr::processorById("i7 (45)"));
 *   auto agg = lab.aggregate(cfg);   // Table 4 row
 *   auto m = lab.measure(cfg, lhr::benchmarkByName("mcf"));
 *
 * Everything is deterministic for a given seed and sensor backend,
 * both fixed when the Lab is constructed.
 */

#ifndef LHR_CORE_LAB_HH
#define LHR_CORE_LAB_HH

#include <memory>
#include <mutex>
#include <optional>

#include "analysis/features.hh"
#include "analysis/historical.hh"
#include "analysis/pareto_study.hh"
#include "harness/aggregate.hh"
#include "harness/reference.hh"
#include "harness/runner.hh"
#include "sweep/sweep.hh"
#include "util/env.hh"

namespace lhr
{

/** The measurement laboratory: harness + reference + analyses. */
class Lab
{
  public:
    /** See ExperimentRunner::ExperimentRunner for the two inputs. */
    explicit Lab(uint64_t seed = builtinSeed,
                 std::optional<SensorBackend> sensor = std::nullopt);

    Lab(const Lab &) = delete;
    Lab &operator=(const Lab &) = delete;

    /** The underlying experiment runner. */
    ExperimentRunner &runner() { return experimentRunner; }

    /** The seed this laboratory was constructed with. */
    uint64_t seed() const { return labSeed; }

    /** The four-machine reference set (built lazily, once). */
    const ReferenceSet &reference();

    /** Measure one benchmark on one configuration. */
    const Measurement &measure(const MachineConfig &cfg,
                               const Benchmark &bench);

    /** Reference-normalized result of one benchmark. */
    BenchResult result(const MachineConfig &cfg, const Benchmark &bench);

    /** Full Table 4-style aggregation of one configuration. */
    ConfigAggregate aggregate(const MachineConfig &cfg);

    /**
     * Measure a configuration x benchmark grid on the parallel
     * sweep engine (see sweep/sweep.hh). Bit-identical to measuring
     * the same grid serially; results land in the runner's cache,
     * so every later measure()/aggregate() call on the grid is a
     * cache hit.
     */
    SweepReport sweep(std::vector<MachineConfig> configs,
                      std::vector<Benchmark> benchmarks,
                      SweepOptions options = {});

    /**
     * Warm the measurement cache for a configuration set across all
     * benchmarks (plus the four reference machines, which nearly
     * every analysis normalizes against). Drivers call this once up
     * front so their serial result loops run entirely from cache.
     */
    void prewarm(const std::vector<MachineConfig> &configs,
                 SweepOptions options = {});

  private:
    const uint64_t labSeed;
    ExperimentRunner experimentRunner;
    std::once_flag referenceOnce;
    std::unique_ptr<ReferenceSet> referenceSet;
};

} // namespace lhr

#endif // LHR_CORE_LAB_HH
