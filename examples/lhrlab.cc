/**
 * @file
 * lhrlab — command-line front end to the measurement laboratory.
 *
 * Subcommands:
 *   list [--names]                  list the registered studies
 *   run <study>... | run --all      run studies (one prewarm pass)
 *   processors                      list the eight processors
 *   benchmarks [group]              list benchmarks (nn|ns|jn|js)
 *   configs [--45nm]                list experimental configurations
 *   measure <proc-id> <bench> [opts]   measure one benchmark
 *   aggregate <proc-id> [opts]         Table 4-style row
 *   counters <proc-id> <bench>         event-counter profile
 *
 * Options for run:
 *   --format text|csv|json   --out DIR   --jobs N   --no-prewarm
 * Options for measure/aggregate:
 *   --cores N   --smt on|off   --clock GHZ   --turbo on|off
 * Global options (before the command), passed to every Lab it builds:
 *   --seed N             experiment seed (default 0xC0FFEE)
 *   --sensor hall|rapl   force the measurement backend of every rig
 *                        (default per era, see `processors`)
 *
 * Examples:
 *   lhrlab run fig04 --format=json
 *   lhrlab run --all --jobs 8 --format=json --out artifacts/
 *   lhrlab measure "i7 (45)" mcf --cores 2 --smt off --clock 1.6
 *
 * Sharded sweep with checkpoint/resume (see DESIGN.md):
 *   lhrlab snapshot s1.csv --shard 1/3 --checkpoint 50 --resume
 *   lhrlab snapshot s2.csv --shard 2/3 --checkpoint 50 --resume
 *   lhrlab snapshot s3.csv --shard 3/3 --checkpoint 50 --resume
 *   lhrlab merge grid.csv s1.csv s2.csv s3.csv
 */

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <fstream>

#include "core/lab.hh"
#include "counters/hwcounters.hh"
#include "harness/corun.hh"
#include "harness/multiprog.hh"
#include "sensor/sensor.hh"
#include "serve/loadgen.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "store/results_store.hh"
#include "study/study.hh"
#include "util/env.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace
{

/** The global --seed and --sensor: every Lab this command builds. */
uint64_t gSeed = lhr::builtinSeed;
std::optional<lhr::SensorBackend> gSensor;

void
usage(std::ostream &os)
{
    os <<
        "usage: lhrlab [--seed N] [--sensor hall|rapl] <command> "
        "[args]\n"
        "  (--seed default 0xC0FFEE; --sensor default per era)\n"
        "  list [--names]\n"
        "  run <study>... | run --all  [--format text|csv|json]\n"
        "      [--out DIR] [--jobs N] [--no-prewarm]\n"
        "  processors\n"
        "  benchmarks [nn|ns|jn|js]\n"
        "  configs [--45nm]\n"
        "  measure <proc-id> <bench> [--cores N] [--smt on|off]\n"
        "          [--clock GHZ] [--turbo on|off]\n"
        "  aggregate <proc-id> [same options]\n"
        "  counters <proc-id> <bench>\n"
        "  rate <proc-id> <bench>\n"
        "  corun <proc-id> <bench-a> <bench-b>\n"
        "  snapshot <file.csv> [--45nm] [--shard I/N]\n"
        "           [--resume] [--checkpoint N]\n"
        "  merge <out.csv> <in.csv> [in.csv ...]\n"
        "  compare <before.csv> <after.csv> [tolerance]\n"
        "  serve --socket PATH [--workers N] [--queue N]\n"
        "  loadgen --socket PATH [--clients N[,N...]]\n"
        "          [--requests N] [--keys N] [--deadline MS]\n"
        "          [--stall MS] [--reps N] [--json FILE]\n";
}

/**
 * A command line we cannot act on: report why, show the usage text
 * on stderr, exit nonzero. Silent-success on garbage (the old atoi
 * behaviour) is how a typo in a flag wastes an hour of sweeping.
 */
[[noreturn]] void
usageError(const std::string &message)
{
    std::cerr << "lhrlab: " << message << "\n";
    usage(std::cerr);
    std::exit(2);
}

const lhr::ProcessorSpec &
procArg(const std::string &id)
{
    const lhr::ProcessorSpec *found = lhr::findProcessor(id);
    if (!found)
        lhr::fatal("unknown processor '" + id +
                   "' (see: lhrlab processors)");
    return *found;
}

const lhr::Benchmark &
benchArg(const std::string &name)
{
    const lhr::Benchmark *found = lhr::findBenchmark(name);
    if (!found)
        lhr::fatal("unknown benchmark '" + name +
                   "' (see: lhrlab benchmarks)");
    return *found;
}

/**
 * Parse --cores/--smt/--clock/--turbo into a config of `spec`: bad
 * flag syntax exits 2 here; a knob the part cannot take is refused
 * by resolveConfig(), the serve protocol's validator (exit 1).
 */
lhr::MachineConfig
applyOptions(const lhr::ProcessorSpec &spec,
             const std::vector<std::string> &args, size_t first)
{
    auto onOff = [](const std::string &opt, const std::string &value) {
        if (value != "on" && value != "off")
            usageError(opt + " takes on|off, got '" + value + "'");
        return value == "on";
    };
    lhr::ServeRequest knobs;
    knobs.proc = spec.id;
    for (size_t i = first; i < args.size(); i += 2) {
        if (i + 1 >= args.size())
            usageError("option " + args[i] + " needs a value");
        const std::string &opt = args[i];
        const std::string &value = args[i + 1];
        if (opt == "--cores") {
            const lhr::Expected<long> cores =
                lhr::parseInt(value, 1, spec.cores);
            if (!cores.ok())
                usageError("--cores must be 1.." +
                           std::to_string(spec.cores) + " for " +
                           spec.id + ": " + cores.status().message());
            knobs.cores = static_cast<int>(cores.value());
        } else if (opt == "--smt") {
            knobs.smt = onOff(opt, value);
        } else if (opt == "--clock") {
            const lhr::Expected<double> clock = lhr::parseReal(value);
            if (!clock.ok())
                usageError("--clock: " + clock.status().message());
            knobs.clockGhz = clock.value();
        } else if (opt == "--turbo") {
            knobs.turbo = onOff(opt, value);
        } else {
            usageError("unknown option " + opt);
        }
    }
    const lhr::Expected<lhr::MachineConfig> cfg =
        lhr::resolveConfig(knobs);
    if (!cfg.ok())
        lhr::fatal(cfg.status().message());
    return cfg.value();
}

int
cmdProcessors()
{
    lhr::TableWriter table;
    table.addColumn("Id", lhr::TableWriter::Align::Left);
    table.addColumn("Model", lhr::TableWriter::Align::Left);
    table.addColumn("uArch", lhr::TableWriter::Align::Left);
    table.addColumn("Era", lhr::TableWriter::Align::Left);
    table.addColumn("nm");
    table.addColumn("Config", lhr::TableWriter::Align::Left);
    table.addColumn("GHz");
    table.addColumn("TDP W");
    table.addColumn("Sensor", lhr::TableWriter::Align::Left);
    auto row = [&](const lhr::ProcessorSpec &spec) {
        table.beginRow();
        table.cell(spec.id);
        table.cell(spec.model);
        table.cell(lhr::familyName(spec.family));
        table.cell(lhr::eraName(spec.era));
        table.cell(static_cast<long>(spec.tech().featureNm));
        table.cell(lhr::msgOf(spec.cores, "C", spec.smtWays, "T"));
        table.cell(spec.stockClockGhz, 2);
        table.cell(spec.tdpW, 0);
        table.cell(lhr::sensorBackendName(
            gSensor.value_or(lhr::defaultSensorBackend(spec))));
    };
    for (const auto &spec : lhr::allProcessors())
        row(spec);
    for (const auto &spec : lhr::postPaperProcessors())
        row(spec);
    table.print(std::cout);
    return 0;
}

int
cmdBenchmarks(const std::vector<std::string> &args)
{
    std::optional<lhr::Group> filter;
    if (args.size() > 2) {
        const std::string &which = args[2];
        if (which == "nn")
            filter = lhr::Group::NativeNonScalable;
        else if (which == "ns")
            filter = lhr::Group::NativeScalable;
        else if (which == "jn")
            filter = lhr::Group::JavaNonScalable;
        else if (which == "js")
            filter = lhr::Group::JavaScalable;
        else
            lhr::fatal("unknown group " + which);
    }
    lhr::TableWriter table;
    table.addColumn("Name", lhr::TableWriter::Align::Left);
    table.addColumn("Group", lhr::TableWriter::Align::Left);
    table.addColumn("Suite", lhr::TableWriter::Align::Left);
    table.addColumn("Ref s");
    for (const auto &bench : lhr::allBenchmarks()) {
        if (filter && bench.group != *filter)
            continue;
        table.beginRow();
        table.cell(bench.name);
        table.cell(lhr::groupName(bench.group));
        table.cell(lhr::suiteName(bench.suite));
        table.cell(bench.refTimeSec, 1);
    }
    table.print(std::cout);
    return 0;
}

int
cmdConfigs(const std::vector<std::string> &args)
{
    const bool only45 = args.size() > 2 && args[2] == "--45nm";
    const auto configs = only45 ? lhr::configurations45nm()
                                : lhr::standardConfigurations();
    for (const auto &cfg : configs)
        std::cout << cfg.label() << "\n";
    std::cout << "(" << configs.size() << " configurations)\n";
    return 0;
}

int
cmdMeasure(const std::vector<std::string> &args)
{
    if (args.size() < 4)
        lhr::fatal("measure needs <proc-id> <bench>");
    auto cfg = applyOptions(procArg(args[2]), args, 4);
    const auto &bench = benchArg(args[3]);

    lhr::Lab lab(gSeed, gSensor);
    const auto &m = lab.measure(cfg, bench);
    const auto r = lab.result(cfg, bench);
    std::cout << bench.name << " on " << cfg.label() << ":\n"
              << "  time    " << lhr::formatFixed(m.timeSec, 3)
              << " s  (+-" << lhr::formatFixed(100 * m.timeCi95Rel, 2)
              << "%, " << m.invocations << " invocations)\n"
              << "  power   " << lhr::formatFixed(m.powerW, 2)
              << " W  (+-" << lhr::formatFixed(100 * m.powerCi95Rel, 2)
              << "%)\n"
              << "  energy  " << lhr::formatFixed(m.energyJ(), 1)
              << " J\n"
              << "  perf/ref    " << lhr::formatFixed(r.perf, 3) << "\n"
              << "  energy/ref  " << lhr::formatFixed(r.energy, 3)
              << "\n";
    return 0;
}

int
cmdAggregate(const std::vector<std::string> &args)
{
    if (args.size() < 3)
        lhr::fatal("aggregate needs <proc-id>");
    auto cfg = applyOptions(procArg(args[2]), args, 3);
    lhr::Lab lab(gSeed, gSensor);
    const auto agg = lab.aggregate(cfg);
    lhr::TableWriter table;
    table.addColumn("", lhr::TableWriter::Align::Left);
    table.addColumn("Perf/Ref");
    table.addColumn("Power W");
    table.addColumn("Energy/Ref");
    for (size_t gi = 0; gi < 4; ++gi) {
        table.beginRow();
        table.cell(lhr::groupName(lhr::allGroups()[gi]));
        table.cell(agg.byGroup[gi].perf, 2);
        table.cell(agg.byGroup[gi].powerW, 1);
        table.cell(agg.byGroup[gi].energy, 2);
    }
    table.beginRow();
    table.cell(std::string("Average (weighted)"));
    table.cell(agg.weighted.perf, 2);
    table.cell(agg.weighted.powerW, 1);
    table.cell(agg.weighted.energy, 2);
    std::cout << cfg.label() << ":\n";
    table.print(std::cout);
    return 0;
}

int
cmdCounters(const std::vector<std::string> &args)
{
    if (args.size() < 4)
        lhr::fatal("counters needs <proc-id> <bench>");
    const auto &spec = procArg(args[2]);
    const auto &bench = benchArg(args[3]);
    const auto profile =
        lhr::characterizeWorkload(bench, spec, 400000, 7);

    std::cout << "perf-stat-like profile of " << bench.name << " on "
              << spec.id << " (400k-instruction synthetic trace):\n";
    lhr::TableWriter table;
    table.addColumn("event", lhr::TableWriter::Align::Left);
    table.addColumn("count");
    table.addColumn("per Ki");
    for (const auto event :
         {lhr::HwEvent::Instructions, lhr::HwEvent::MemAccesses,
          lhr::HwEvent::L1dMisses, lhr::HwEvent::L2Misses,
          lhr::HwEvent::LlcMisses, lhr::HwEvent::BranchInstructions,
          lhr::HwEvent::BranchMispredicts, lhr::HwEvent::DtlbAccesses,
          lhr::HwEvent::DtlbMisses}) {
        table.beginRow();
        table.cell(lhr::hwEventName(event));
        table.cell(static_cast<long>(profile.counters.read(event)));
        table.cell(profile.counters.perKi(event), 2);
    }
    table.print(std::cout);
    return 0;
}

} // namespace

int
cmdRate(const std::vector<std::string> &args)
{
    if (args.size() < 4)
        lhr::fatal("rate needs <proc-id> <bench>");
    lhr::Lab lab(gSeed, gSensor);
    lhr::RateRunner rate(lab.runner());
    auto cfg = lhr::stockConfig(procArg(args[2]));
    if (cfg.spec->hasTurbo)
        cfg = lhr::withTurbo(cfg, false);
    const auto &bench = benchArg(args[3]);

    std::cout << "SPECrate-style sweep of " << bench.name << " on "
              << cfg.label() << ":\n";
    lhr::TableWriter table;
    table.addColumn("Copies");
    table.addColumn("Throughput");
    table.addColumn("Efficiency");
    table.addColumn("Power W");
    table.addColumn("J/copy");
    for (const auto &r : rate.sweep(cfg, bench)) {
        table.beginRow();
        table.cell(static_cast<long>(r.copies));
        table.cell(r.throughput, 2);
        table.cell(r.rateEfficiency, 2);
        table.cell(r.powerW, 1);
        table.cell(r.energyPerCopyJ, 0);
    }
    table.print(std::cout);
    return 0;
}

int
cmdCorun(const std::vector<std::string> &args)
{
    if (args.size() < 5)
        lhr::fatal("corun needs <proc-id> <bench-a> <bench-b>");
    lhr::Lab lab(gSeed, gSensor);
    lhr::CoRunner corunner(lab.runner());
    auto cfg = lhr::stockConfig(procArg(args[2]));
    if (cfg.spec->hasTurbo)
        cfg = lhr::withTurbo(cfg, false);
    if (cfg.smtPerCore > 1)
        cfg = lhr::withSmt(cfg, false);
    const auto r = corunner.run(cfg, benchArg(args[3]),
                                benchArg(args[4]));
    std::cout << args[3] << " + " << args[4] << " on " << cfg.label()
              << ":\n  slowdowns " << lhr::formatFixed(r.slowdownA, 3)
              << " / " << lhr::formatFixed(r.slowdownB, 3)
              << "\n  LLC share of " << args[3] << ": "
              << lhr::formatFixed(100.0 * r.llcShareA, 1)
              << "%\n  chip power "
              << lhr::formatFixed(r.powerW, 1) << " W\n";
    return 0;
}

namespace
{

/**
 * SIGINT/SIGTERM request a clean wind-down instead of killing the
 * process mid-write: snapshot flushes a final checkpoint, serve
 * drains its admitted work. The handler only sets flags (the only
 * async-signal-safe thing to do); the long-running loops poll them.
 */
std::atomic<bool> gStopRequested{false};
volatile std::sig_atomic_t gStopSignal = 0;

void
onStopSignal(int sig)
{
    gStopSignal = sig;
    gStopRequested.store(true);
}

void
installStopHandlers()
{
    std::signal(SIGINT, onStopSignal);
    std::signal(SIGTERM, onStopSignal);
}

} // namespace

/** Parse the `--shard I/N` contract (1-based I, 1 <= I <= N). */
void
parseShardSpec(const std::string &value, lhr::SweepOptions &options)
{
    const size_t slash = value.find('/');
    if (slash == std::string::npos)
        usageError("--shard takes I/N (e.g. 1/3), got '" + value +
                   "'");
    const lhr::Expected<long> index =
        lhr::parseInt(value.substr(0, slash), 1, 1 << 20);
    const lhr::Expected<long> count =
        lhr::parseInt(value.substr(slash + 1), 1, 1 << 20);
    if (!index.ok() || !count.ok() ||
        index.value() > count.value()) {
        usageError("--shard takes I/N with 1 <= I <= N, got '" +
                   value + "'");
    }
    options.shardIndex = static_cast<int>(index.value()) - 1;
    options.shardCount = static_cast<int>(count.value());
}

int
cmdSnapshot(const std::vector<std::string> &args)
{
    if (args.size() < 3)
        lhr::fatal("snapshot needs <file.csv>");
    const std::string &path = args[2];

    bool only45 = false;
    bool resume = false;
    lhr::SweepOptions options{.progress = true};
    for (size_t i = 3; i < args.size(); ++i) {
        const std::string &opt = args[i];
        if (opt == "--45nm") {
            only45 = true;
        } else if (opt == "--shard") {
            if (++i >= args.size())
                usageError("--shard needs a value (I/N)");
            parseShardSpec(args[i], options);
        } else if (opt == "--resume") {
            resume = true;
        } else if (opt == "--checkpoint") {
            if (++i >= args.size())
                usageError("--checkpoint needs a cell count");
            const lhr::Expected<long> every =
                lhr::parseInt(args[i], 1, 1L << 30);
            if (!every.ok())
                usageError("--checkpoint: " +
                           every.status().message());
            options.checkpointEvery =
                static_cast<size_t>(every.value());
            options.checkpointPath = path;
        } else {
            usageError("unknown snapshot option " + opt);
        }
    }

    // --resume warm-starts from the output file itself: the last
    // checkpoint (or completed run) of the same command. A missing
    // file is simply a cold start — the first attempt and a resumed
    // one use the identical command line.
    lhr::ResultStore prior;
    if (resume) {
        lhr::Expected<lhr::ResultStore> loaded =
            lhr::ResultStore::tryLoadFile(path);
        if (loaded.ok()) {
            prior = std::move(loaded).value();
            options.warmStart = &prior;
            std::cerr << "resuming from " << path << " ("
                      << prior.size() << " rows)\n";
        } else if (loaded.status().code() !=
                   lhr::StatusCode::IoError) {
            // A present-but-corrupt checkpoint is an error; silently
            // recomputing would mask it.
            lhr::fatal("snapshot --resume: " +
                       loaded.status().toString());
        }
    }

    // SIGINT/SIGTERM stop the sweep at the next cell boundary; the
    // rows completed by then are still flushed below, so a resumed
    // run restarts from the last completed cell rather than the
    // last --checkpoint interval.
    installStopHandlers();
    options.stopFlag = &gStopRequested;

    lhr::Lab lab(gSeed, gSensor);
    // Snapshot through the parallel sweep engine: bit-identical to
    // a serial sweep, but grid cells fan out across cores (thread
    // count via LHR_THREADS).
    const auto report =
        lab.sweep(only45 ? lhr::configurations45nm()
                         : lhr::standardConfigurations(),
                  lhr::allBenchmarks(), options);
    const bool interrupted = gStopRequested.load();
    auto store = lhr::toStore(report);
    if (interrupted && options.warmStart != nullptr) {
        // Cancelled cells carry no measurement, so fold the resumed
        // rows back in — the final checkpoint must never shrink
        // below the store it was resumed from.
        const lhr::Status merged = store.merge(prior);
        if (!merged.ok())
            lhr::fatal("snapshot: resumed rows conflict with "
                       "re-measured ones: " + merged.toString());
    }
    // Atomic temp-then-rename write: an interrupted snapshot never
    // clobbers the previous good file with a truncated one.
    const lhr::Status saved = store.saveToFile(path);
    if (!saved.ok())
        lhr::fatal("snapshot: " + saved.toString());
    if (interrupted) {
        std::cerr << "snapshot: interrupted by signal " << gStopSignal
                  << "; checkpointed " << store.size() << " rows to "
                  << path << " (rerun with --resume to continue)\n";
        return 128 + static_cast<int>(gStopSignal);
    }
    std::cout << "wrote " << store.size() << " measurements to "
              << path;
    if (options.shardCount > 1)
        std::cout << " (shard " << (options.shardIndex + 1) << "/"
                  << options.shardCount << ")";
    if (report.seededCells > 0)
        std::cout << " (" << report.seededCells
                  << " resumed, cache hits " << report.cache.hits
                  << ", misses " << report.cache.misses << ")";
    std::cout << "\n";
    return 0;
}

int
cmdMerge(const std::vector<std::string> &args)
{
    if (args.size() < 4)
        lhr::fatal("merge needs <out.csv> and at least one <in.csv>");
    lhr::ResultStore merged;
    for (size_t i = 3; i < args.size(); ++i) {
        lhr::Expected<lhr::ResultStore> shard =
            lhr::ResultStore::tryLoadFile(args[i]);
        if (!shard.ok())
            lhr::fatal("merge: " + shard.status().toString());
        const lhr::Status ok = merged.merge(shard.value());
        if (!ok.ok())
            lhr::fatal("merge: " + args[i] + ": " + ok.toString());
    }
    const lhr::Status saved = merged.saveToFile(args[2]);
    if (!saved.ok())
        lhr::fatal("merge: " + saved.toString());
    std::cout << "merged " << (args.size() - 3) << " stores, "
              << merged.size() << " rows, into " << args[2] << "\n";
    return 0;
}

int
cmdCompare(const std::vector<std::string> &args)
{
    if (args.size() < 4)
        lhr::fatal("compare needs <before.csv> <after.csv>");
    double tolerance = 0.02;
    if (args.size() > 4) {
        const lhr::Expected<double> parsed = lhr::parseReal(args[4]);
        if (!parsed.ok() || parsed.value() < 0.0)
            usageError("tolerance must be a non-negative number, "
                       "got '" + args[4] + "'");
        tolerance = parsed.value();
    }
    auto loadOrDie = [](const std::string &path) {
        lhr::Expected<lhr::ResultStore> store =
            lhr::ResultStore::tryLoadFile(path);
        if (!store.ok())
            lhr::fatal("compare: " + store.status().toString());
        return std::move(store).value();
    };
    const auto before = loadOrDie(args[2]);
    const auto after = loadOrDie(args[3]);
    const auto cmp = lhr::compareStores(before, after, tolerance);

    std::cout << "compared " << cmp.compared << " rows at +-"
              << lhr::formatFixed(100.0 * tolerance, 1) << "%\n";
    if (cmp.clean()) {
        std::cout << "no regressions\n";
        return 0;
    }
    if (!cmp.regressions.empty()) {
        lhr::TableWriter table;
        table.addColumn("Config key", lhr::TableWriter::Align::Left);
        table.addColumn("Benchmark", lhr::TableWriter::Align::Left);
        table.addColumn("Time x");
        table.addColumn("Power x");
        table.addColumn("Energy x");
        for (const auto &delta : cmp.regressions) {
            table.beginRow();
            table.cell(delta.config);
            table.cell(delta.benchmark);
            table.cell(delta.timeRatio, 3);
            table.cell(delta.powerRatio, 3);
            table.cell(delta.energyRatio, 3);
        }
        table.print(std::cout);
    }
    for (const auto &missing : cmp.onlyInBefore)
        std::cout << "only in before: " << missing << "\n";
    for (const auto &missing : cmp.onlyInAfter)
        std::cout << "only in after: " << missing << "\n";
    return 1;
}

/** A `--deadline` value: milliseconds within 0..maxDeadlineMs. */
double
deadlineArg(const std::string &value)
{
    const lhr::Expected<double> ms = lhr::parseReal(value);
    if (!ms.ok() || ms.value() < 0.0 || ms.value() > lhr::maxDeadlineMs)
        usageError(lhr::msgOf("--deadline takes milliseconds 0..",
                              static_cast<long>(lhr::maxDeadlineMs),
                              ", got '", value, "'"));
    return ms.value();
}

int
cmdServe(const std::vector<std::string> &args)
{
    lhr::ServeOptions options;
    for (size_t i = 2; i < args.size(); i += 2) {
        if (i + 1 >= args.size())
            usageError("option " + args[i] + " needs a value");
        const std::string &opt = args[i];
        const std::string &value = args[i + 1];
        if (opt == "--socket") {
            options.socketPath = value;
        } else if (opt == "--workers") {
            const lhr::Expected<long> workers =
                lhr::parseInt(value, 1, 256);
            if (!workers.ok())
                usageError("--workers: " +
                           workers.status().message());
            options.workers = static_cast<int>(workers.value());
        } else if (opt == "--queue") {
            const lhr::Expected<long> depth =
                lhr::parseInt(value, 1, 1 << 20);
            if (!depth.ok())
                usageError("--queue: " + depth.status().message());
            options.queueDepth = static_cast<size_t>(depth.value());
        } else {
            usageError("unknown serve option " + opt);
        }
    }
    if (options.socketPath.empty())
        usageError("serve needs --socket PATH");

    // SIGINT/SIGTERM drain: stop accepting, flush admitted work,
    // then exit 0 — a supervisor restarting the daemon never sees
    // a truncated reply or lost admitted request.
    installStopHandlers();
    options.stopFlag = &gStopRequested;

    lhr::Lab lab(gSeed, gSensor);
    lhr::LabServer server(lab.runner(), options);
    const lhr::Status status = server.serve();
    if (!status.ok())
        lhr::fatal("serve: " + status.toString());
    const lhr::ServeStatsSnapshot stats = server.statsSnapshot();
    std::cout << "serve: drained; " << stats.served << " served ("
              << stats.answeredInline << " inline), "
              << stats.overloaded << " overloaded, "
              << stats.deadlineShed << " shed, "
              << stats.refusedDraining << " refused while draining\n";
    return 0;
}

/** One `--clients` entry of a loadgen run, with its rep statistics. */
struct LoadgenSeries
{
    int clients = 0;
    std::vector<lhr::LoadgenReport> reps; ///< sorted by throughput
};

int
cmdLoadgen(const std::vector<std::string> &args)
{
    lhr::LoadgenOptions options;
    std::vector<int> clientCounts;
    int repsPerPoint = 1;
    std::string jsonPath;
    for (size_t i = 2; i < args.size(); i += 2) {
        if (i + 1 >= args.size())
            usageError("option " + args[i] + " needs a value");
        const std::string &opt = args[i];
        const std::string &value = args[i + 1];
        if (opt == "--socket") {
            options.socketPath = value;
        } else if (opt == "--clients") {
            std::stringstream list(value);
            std::string item;
            while (std::getline(list, item, ',')) {
                const lhr::Expected<long> n =
                    lhr::parseInt(item, 1, 4096);
                if (!n.ok())
                    usageError("--clients: " + n.status().message());
                clientCounts.push_back(static_cast<int>(n.value()));
            }
        } else if (opt == "--requests") {
            const lhr::Expected<long> n =
                lhr::parseInt(value, 1, 1L << 30);
            if (!n.ok())
                usageError("--requests: " + n.status().message());
            options.requestsPerClient = static_cast<int>(n.value());
        } else if (opt == "--keys") {
            const lhr::Expected<long> n = lhr::parseInt(value, 1, 32);
            if (!n.ok())
                usageError("--keys: " + n.status().message());
            options.keys = static_cast<int>(n.value());
        } else if (opt == "--deadline") {
            options.deadlineMs = deadlineArg(value);
        } else if (opt == "--stall") {
            const lhr::Expected<double> ms = lhr::parseReal(value);
            if (!ms.ok() || ms.value() < 0.0)
                usageError("--stall takes milliseconds >= 0, got '" +
                           value + "'");
            options.stallMs = ms.value();
        } else if (opt == "--reps") {
            const lhr::Expected<long> n = lhr::parseInt(value, 1, 64);
            if (!n.ok())
                usageError("--reps: " + n.status().message());
            repsPerPoint = static_cast<int>(n.value());
        } else if (opt == "--json") {
            jsonPath = value;
        } else {
            usageError("unknown loadgen option " + opt);
        }
    }
    if (options.socketPath.empty())
        usageError("loadgen needs --socket PATH");
    if (clientCounts.empty())
        clientCounts.push_back(options.clients);

    std::vector<LoadgenSeries> series;
    for (const int clients : clientCounts) {
        LoadgenSeries point;
        point.clients = clients;
        options.clients = clients;
        for (int rep = 0; rep < repsPerPoint; ++rep) {
            lhr::Expected<lhr::LoadgenReport> run =
                lhr::runLoadgen(options);
            if (!run.ok())
                lhr::fatal("loadgen: " + run.status().toString());
            point.reps.push_back(run.value());
        }
        std::sort(point.reps.begin(), point.reps.end(),
                  [](const lhr::LoadgenReport &a,
                     const lhr::LoadgenReport &b) {
                      return a.requestsPerSec < b.requestsPerSec;
                  });
        series.push_back(std::move(point));
    }

    lhr::TableWriter table;
    table.addColumn("Clients");
    table.addColumn("Req/s");
    table.addColumn("p50 ms");
    table.addColumn("p95 ms");
    table.addColumn("p99 ms");
    table.addColumn("ok");
    table.addColumn("degr");
    table.addColumn("over");
    table.addColumn("shed");
    table.addColumn("err");
    for (const LoadgenSeries &point : series) {
        // Median-throughput repetition: the gate compares medians,
        // so the human report shows the same numbers.
        const lhr::LoadgenReport &median =
            point.reps[point.reps.size() / 2];
        table.beginRow();
        table.cell(static_cast<long>(point.clients));
        table.cell(median.requestsPerSec, 1);
        table.cell(median.p50Ms, 2);
        table.cell(median.p95Ms, 2);
        table.cell(median.p99Ms, 2);
        table.cell(static_cast<long>(median.okCount));
        table.cell(static_cast<long>(median.degradedCount));
        table.cell(static_cast<long>(median.overloadedCount));
        table.cell(static_cast<long>(median.shedCount));
        table.cell(static_cast<long>(median.errorCount));
    }
    table.print(std::cout);

    if (jsonPath.empty())
        return 0;
    // One bench record per client count, in the BENCH_*.json shape
    // bench/bench_compare.cc gates: requests_per_sec is the median
    // over --reps, *_spread_rel keeps the gate noise-aware.
    std::ofstream jsonOut(jsonPath);
    if (!jsonOut)
        lhr::fatal("loadgen: cannot write " + jsonPath);
    lhr::JsonWriter json(jsonOut);
    json.beginArray();
    for (const LoadgenSeries &point : series) {
        const lhr::LoadgenReport &median =
            point.reps[point.reps.size() / 2];
        const double best = point.reps.back().requestsPerSec;
        const double worst = point.reps.front().requestsPerSec;
        const double spread =
            median.requestsPerSec > 0.0
                ? (best - worst) / median.requestsPerSec
                : 0.0;
        json.beginObject();
        json.key("name").value(lhr::msgOf("serve_c", point.clients));
        json.key("config").beginObject();
        json.key("clients").value(static_cast<long>(point.clients));
        json.key("requests_per_client")
            .value(static_cast<long>(options.requestsPerClient));
        json.key("keys").value(static_cast<long>(options.keys));
        json.key("reps").value(static_cast<long>(repsPerPoint));
        json.key("deadline_ms").value(options.deadlineMs, 3);
        json.key("stall_ms").value(options.stallMs, 3);
        json.endObject();
        json.key("metrics").beginObject();
        json.key("requests_per_sec").value(median.requestsPerSec, 1);
        json.key("requests_per_sec_best").value(best, 1);
        json.key("requests_per_sec_spread_rel").value(spread, 4);
        json.key("p50_ms").value(median.p50Ms, 3);
        json.key("p95_ms").value(median.p95Ms, 3);
        json.key("p99_ms").value(median.p99Ms, 3);
        json.key("ok").value(median.okCount);
        json.key("degraded").value(median.degradedCount);
        json.key("overloaded").value(median.overloadedCount);
        json.key("deadline_shed").value(median.shedCount);
        json.key("refused").value(median.refusedCount);
        json.key("errors").value(median.errorCount);
        json.endObject();
        json.key("wall_sec").value(median.wallSec, 6);
        json.endObject();
    }
    json.endArray();
    std::cout << "wrote " << series.size() << " records to "
              << jsonPath << "\n";
    return 0;
}

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv, argv + argc);

    // Global options come before the command.
    size_t first = 1;
    while (first < args.size() &&
           (args[first] == "--seed" || args[first] == "--sensor")) {
        if (first + 1 >= args.size())
            usageError("option " + args[first] + " needs a value");
        if (args[first] == "--seed") {
            const auto seed = lhr::parseSeed(args[first + 1]);
            if (!seed)
                usageError("malformed --seed '" + args[first + 1] +
                           "'");
            gSeed = *seed;
        } else {
            gSensor = lhr::parseSensorBackend(args[first + 1]);
            if (!gSensor)
                usageError("--sensor takes hall|rapl, got '" +
                           args[first + 1] + "'");
        }
        args.erase(args.begin() + first, args.begin() + first + 2);
    }

    if (args.size() < 2) {
        usage(std::cerr);
        return 2;
    }
    const std::string &command = args[1];
    if (command == "help" || command == "--help" || command == "-h") {
        usage(std::cout);
        return 0;
    }
    if (command == "list") {
        lhr::listStudies(std::cout,
                         args.size() > 2 && args[2] == "--names");
        return 0;
    }
    if (command == "run") {
        return lhr::runStudyCommand(
            std::vector<std::string>(args.begin() + 2, args.end()),
            gSeed, gSensor);
    }
    if (command == "processors")
        return cmdProcessors();
    if (command == "benchmarks")
        return cmdBenchmarks(args);
    if (command == "configs")
        return cmdConfigs(args);
    if (command == "measure")
        return cmdMeasure(args);
    if (command == "aggregate")
        return cmdAggregate(args);
    if (command == "counters")
        return cmdCounters(args);
    if (command == "rate")
        return cmdRate(args);
    if (command == "corun")
        return cmdCorun(args);
    if (command == "snapshot")
        return cmdSnapshot(args);
    if (command == "merge")
        return cmdMerge(args);
    if (command == "compare")
        return cmdCompare(args);
    if (command == "serve")
        return cmdServe(args);
    if (command == "loadgen")
        return cmdLoadgen(args);
    usageError("unknown command '" + command + "'");
}
