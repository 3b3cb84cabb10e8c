#include "core/lab.hh"

#include <set>
#include <utility>

#include "util/logging.hh"

namespace lhr
{

Lab::Lab(uint64_t seed, std::optional<SensorBackend> sensor)
    : labSeed(seed), experimentRunner(seed, sensor)
{
}

const ReferenceSet &
Lab::reference()
{
    std::call_once(referenceOnce, [this] {
        referenceSet = std::make_unique<ReferenceSet>(experimentRunner);
    });
    return *referenceSet;
}

const Measurement &
Lab::measure(const MachineConfig &cfg, const Benchmark &bench)
{
    return experimentRunner.measure(cfg, bench);
}

BenchResult
Lab::result(const MachineConfig &cfg, const Benchmark &bench)
{
    return benchResult(experimentRunner, reference(), cfg, bench);
}

ConfigAggregate
Lab::aggregate(const MachineConfig &cfg)
{
    return aggregateConfig(experimentRunner, reference(), cfg);
}

SweepReport
Lab::sweep(std::vector<MachineConfig> configs,
           std::vector<Benchmark> benchmarks, SweepOptions options)
{
    SweepEngine engine(experimentRunner, options);
    return engine.run(std::move(configs), std::move(benchmarks));
}

void
Lab::prewarm(const std::vector<MachineConfig> &configs,
             SweepOptions options)
{
    // The reference machines back almost every normalized analysis,
    // so warm them alongside the requested set, deduplicated on
    // configKey: the stock reference configs usually appear in the
    // caller's grid, and a config a few MHz off stock shares their
    // label() but is a different experiment.
    std::vector<MachineConfig> grid = configs;
    std::set<std::string> seen;
    for (const auto &cfg : grid)
        seen.insert(configKey(cfg));
    for (const auto &id : ReferenceSet::referenceProcessorIds()) {
        MachineConfig cfg = stockConfig(processorById(id));
        if (seen.insert(configKey(cfg)).second)
            grid.push_back(cfg);
    }
    SweepEngine engine(experimentRunner, options);
    // Prewarm is run for its cache side effect, but the report is
    // still triaged: a cell that failed here will fail again (or
    // silently re-measure) inside a study's serial loop, and that is
    // worth a warning now instead of a mystery later.
    const SweepReport report = engine.run(grid, allBenchmarks());
    if (const size_t failed = report.failedCells(); failed > 0)
        warn(msgOf("prewarm: ", failed, " of ", report.experiments(),
                   " cells failed; dependent studies will re-measure "
                   "or degrade"));
}

} // namespace lhr
