/**
 * @file
 * lhrlab — command-line front end to the measurement laboratory.
 *
 * Every command is one entry of the `commands` table below: its name,
 * usage text, flags, positional-argument count and body; `lhrlab
 * help` prints the table. One parser, parseArgs(), reads every
 * command line against it, so all commands share one grammar:
 * `--flag value` or `--flag=value`, flags and positional arguments
 * in any order, and the global options (--seed, --sensor) before
 * the command. A command line that breaks the grammar (unknown
 * command or flag, missing or malformed value, wrong number of
 * arguments) exits 2 with the usage text; a failed lookup or run
 * (unknown study, processor or benchmark, a configuration the part
 * cannot take, an unwritable file) exits 1 with a `fatal:` line.
 *
 * Sharded sweep with checkpoint/resume (see DESIGN.md §7):
 *   lhrlab snapshot s1.csv --shard 1/3 --checkpoint 50 --resume
 *   lhrlab snapshot s2.csv --shard 2/3 --checkpoint 50 --resume
 *   lhrlab snapshot s3.csv --shard 3/3 --checkpoint 50 --resume
 *   lhrlab merge grid.csv s1.csv s2.csv s3.csv
 */

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <malloc.h>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

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

void usage(std::ostream &os);

/**
 * A command line we cannot act on: report why, show the usage text
 * on stderr, exit 2. Silent-success on garbage (the old atoi
 * behaviour) is how a typo in a flag wastes an hour of sweeping.
 */
[[noreturn]] void
usageError(const std::string &message)
{
    std::cerr << "lhrlab: " << message << "\n";
    usage(std::cerr);
    std::exit(2);
}

/** `text` as an integer in [min, max], or a usage error naming `what`. */
long
intArg(const std::string &what, const std::string &text, long min,
       long max)
{
    const lhr::Expected<long> n = lhr::parseInt(text, min, max);
    if (!n.ok())
        usageError(what + ": " + n.status().message());
    return n.value();
}

/**
 * `text` as a real in [min, max], or a usage error saying that `what`
 * takes `takes` (e.g. "milliseconds >= 0").
 */
double
realArg(const std::string &what, const std::string &text,
        const std::string &takes, double min, double max)
{
    const lhr::Expected<double> x = lhr::parseReal(text);
    if (!x.ok() || x.value() < min || x.value() > max)
        usageError(what + " takes " + takes + ", got '" + text + "'");
    return x.value();
}

constexpr double unbounded = std::numeric_limits<double>::max();

/** A command line as parseArgs() read it. */
struct Args
{
    std::vector<std::string> positional;
    /** Flag name -> value ("" for a switch); a repeated flag's last wins. */
    std::map<std::string, std::string> flags;

    bool has(const std::string &flag) const { return flags.count(flag) > 0; }

    /** The value given for `flag`, or `fallback`. */
    std::string
    text(const std::string &flag, const std::string &fallback = "") const
    {
        const auto it = flags.find(flag);
        return it == flags.end() ? fallback : it->second;
    }

    std::optional<long>
    integer(const std::string &flag, long min, long max) const
    {
        if (!has(flag))
            return std::nullopt;
        return intArg(flag, text(flag), min, max);
    }

    std::optional<double>
    real(const std::string &flag, const std::string &takes, double min,
         double max) const
    {
        if (!has(flag))
            return std::nullopt;
        return realArg(flag, text(flag), takes, min, max);
    }

    std::optional<bool>
    onOff(const std::string &flag) const
    {
        if (!has(flag))
            return std::nullopt;
        const std::string value = text(flag);
        if (value != "on" && value != "off")
            usageError(flag + " takes on|off, got '" + value + "'");
        return value == "on";
    }
};

/** Whether the space-separated `words` include `word`. */
bool
declares(const std::string &words, const std::string &word)
{
    std::istringstream in(words);
    std::string each;
    while (in >> each) {
        if (each == word)
            return true;
    }
    return false;
}

/**
 * Read tokens[next...] against `flags`, space-separated names where
 * a trailing '=' marks a flag that takes a value (`--out=` reads
 * `--out DIR` and `--out=DIR`). Every token not starting with "--" is
 * positional. With `leading`, stop at the first token `flags` does
 * not declare (the global options end at the command); otherwise an
 * undeclared flag is a usage error. `next` is left at the stop.
 */
Args
parseArgs(const std::vector<std::string> &tokens, size_t &next,
          const std::string &flags, bool leading)
{
    Args args;
    for (; next < tokens.size(); ++next) {
        const std::string &token = tokens[next];
        const size_t eq = token.find('=');
        const std::string name = token.substr(0, eq);
        const bool isSwitch = declares(flags, name);
        const bool takesValue = declares(flags, name + "=");
        if (leading && !isSwitch && !takesValue)
            break;
        if (token.rfind("--", 0) != 0) {
            args.positional.push_back(token);
        } else if (takesValue) {
            if (eq == std::string::npos && next + 1 >= tokens.size())
                usageError("option " + name + " needs a value");
            args.flags[name] = eq == std::string::npos
                                   ? tokens[++next]
                                   : token.substr(eq + 1);
        } else if (isSwitch && eq == std::string::npos) {
            args.flags[name] = "";
        } else {
            usageError(isSwitch ? "option " + name + " takes no value"
                                : "unknown option " + name);
        }
    }
    return args;
}

uint64_t
seedArg(const std::string &text)
{
    const auto seed = lhr::parseSeed(text);
    if (!seed)
        usageError("malformed --seed '" + text + "'");
    return *seed;
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
 * The --cores/--smt/--clock/--turbo knobs as a config of `spec`: bad
 * flag syntax exits 2; a knob the part cannot take is refused by
 * resolveConfig(), the serve protocol's validator (exit 1).
 */
lhr::MachineConfig
configArg(const lhr::ProcessorSpec &spec, const Args &args)
{
    lhr::ServeRequest knobs;
    knobs.proc = spec.id;
    if (const auto cores = args.integer("--cores", 1, spec.cores))
        knobs.cores = static_cast<int>(*cores);
    knobs.smt = args.onOff("--smt");
    knobs.clockGhz = args.real("--clock", "GHz", -unbounded, unbounded);
    knobs.turbo = args.onOff("--turbo");
    const lhr::Expected<lhr::MachineConfig> cfg =
        lhr::resolveConfig(knobs);
    if (!cfg.ok())
        lhr::fatal(cfg.status().message());
    return cfg.value();
}

int
cmdList(const Args &args)
{
    const auto studies = lhr::StudyRegistry::instance().all();
    if (args.has("--names")) {
        for (const lhr::Study *study : studies)
            std::cout << study->name() << "\n";
        return 0;
    }
    lhr::TableWriter table;
    table.addColumn("Study", lhr::TableWriter::Align::Left);
    table.addColumn("Grid");
    table.addColumn("Description", lhr::TableWriter::Align::Left);
    for (const lhr::Study *study : studies) {
        table.beginRow();
        table.cell(study->name());
        table.cell(static_cast<long>(study->grid().size()));
        table.cell(study->description());
    }
    table.print(std::cout);
    std::cout << "(" << studies.size() << " studies)\n";
    return 0;
}

int
cmdRun(const Args &args)
{
    const std::string format = args.text("--format", "text");
    lhr::StudyOptions options;
    if (const auto parsed = lhr::parseOutputFormat(format))
        options.format = *parsed;
    else
        usageError("unknown format '" + format + "' (text|csv|json)");
    options.outDir = args.text("--out");
    // Strict parse: atoi would quietly turn "banana" into 0 (= the
    // hardware concurrency), hiding the typo.
    options.threads =
        static_cast<int>(args.integer("--jobs", 0, 1024).value_or(0));
    options.prewarm = !args.has("--no-prewarm");
    const uint64_t seed =
        args.has("--seed") ? seedArg(args.text("--seed")) : gSeed;

    const auto &registry = lhr::StudyRegistry::instance();
    std::vector<const lhr::Study *> studies;
    if (args.has("--all")) {
        if (!args.positional.empty())
            usageError("--all does not combine with study names");
        studies = registry.all();
    } else if (args.positional.empty()) {
        usageError("run needs study names or --all (see: lhrlab list)");
    }
    for (const std::string &name : args.positional) {
        const lhr::Study *study = registry.find(name);
        if (!study)
            lhr::fatal("unknown study '" + name +
                       "' (see: lhrlab list)");
        studies.push_back(study);
    }
    if (options.outDir.empty() && studies.size() > 1 &&
        options.format != lhr::OutputFormat::Text)
        usageError("csv/json output of multiple studies needs --out DIR");

    // One malloc arena for every study worker: each thread would
    // otherwise grow an arena of its own, and the run's peak RSS
    // with it. Only `run` sets it; serve keeps glibc's default.
    mallopt(M_ARENA_MAX, 1);
    lhr::Lab lab(seed, gSensor);
    const lhr::Status ran = lhr::runStudies(lab, studies, options);
    if (!ran.ok())
        lhr::fatal(ran.message());
    return 0;
}

int
cmdProcessors(const Args &)
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
cmdBenchmarks(const Args &args)
{
    std::optional<lhr::Group> filter;
    if (!args.positional.empty()) {
        const std::string &which = args.positional[0];
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
cmdConfigs(const Args &args)
{
    const auto configs = args.has("--45nm")
                             ? lhr::configurations45nm()
                             : lhr::standardConfigurations();
    for (const auto &cfg : configs)
        std::cout << cfg.label() << "\n";
    std::cout << "(" << configs.size() << " configurations)\n";
    return 0;
}

int
cmdMeasure(const Args &args)
{
    const auto cfg = configArg(procArg(args.positional[0]), args);
    const auto &bench = benchArg(args.positional[1]);

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
cmdAggregate(const Args &args)
{
    const auto cfg = configArg(procArg(args.positional[0]), args);
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
cmdCounters(const Args &args)
{
    const auto &spec = procArg(args.positional[0]);
    const auto &bench = benchArg(args.positional[1]);
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

int
cmdRate(const Args &args)
{
    lhr::Lab lab(gSeed, gSensor);
    lhr::RateRunner rate(lab.runner());
    auto cfg = lhr::stockConfig(procArg(args.positional[0]));
    if (cfg.spec->hasTurbo)
        cfg = lhr::withTurbo(cfg, false);
    const auto &bench = benchArg(args.positional[1]);

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
cmdCorun(const Args &args)
{
    const std::string &benchA = args.positional[1];
    const std::string &benchB = args.positional[2];
    lhr::Lab lab(gSeed, gSensor);
    lhr::CoRunner corunner(lab.runner());
    auto cfg = lhr::stockConfig(procArg(args.positional[0]));
    if (cfg.spec->hasTurbo)
        cfg = lhr::withTurbo(cfg, false);
    if (cfg.smtPerCore > 1)
        cfg = lhr::withSmt(cfg, false);
    const auto r = corunner.run(cfg, benchArg(benchA), benchArg(benchB));
    std::cout << benchA << " + " << benchB << " on " << cfg.label()
              << ":\n  slowdowns " << lhr::formatFixed(r.slowdownA, 3)
              << " / " << lhr::formatFixed(r.slowdownB, 3)
              << "\n  LLC share of " << benchA << ": "
              << lhr::formatFixed(100.0 * r.llcShareA, 1)
              << "%\n  chip power "
              << lhr::formatFixed(r.powerW, 1) << " W\n";
    return 0;
}

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
cmdSnapshot(const Args &args)
{
    const std::string &path = args.positional[0];
    lhr::SweepOptions options{.progress = true};
    options.threads =
        static_cast<int>(args.integer("--jobs", 0, 1024).value_or(0));
    if (args.has("--shard"))
        parseShardSpec(args.text("--shard"), options);
    if (const auto every = args.integer("--checkpoint", 1, 1L << 30)) {
        options.checkpointEvery = static_cast<size_t>(*every);
        options.checkpointPath = path;
    }

    // --resume warm-starts from the output file itself: the last
    // checkpoint (or completed run) of the same command. A missing
    // file is simply a cold start — the first attempt and a resumed
    // one use the identical command line.
    lhr::ResultStore prior;
    if (args.has("--resume")) {
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
    // a serial sweep at any --jobs, but grid cells fan out across
    // cores.
    const auto report =
        lab.sweep(args.has("--45nm") ? lhr::configurations45nm()
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
cmdMerge(const Args &args)
{
    const std::vector<std::string> &paths = args.positional;
    lhr::ResultStore merged;
    for (size_t i = 1; i < paths.size(); ++i) {
        lhr::Expected<lhr::ResultStore> shard =
            lhr::ResultStore::tryLoadFile(paths[i]);
        if (!shard.ok())
            lhr::fatal("merge: " + shard.status().toString());
        const lhr::Status ok = merged.merge(shard.value());
        if (!ok.ok())
            lhr::fatal("merge: " + paths[i] + ": " + ok.toString());
    }
    const lhr::Status saved = merged.saveToFile(paths[0]);
    if (!saved.ok())
        lhr::fatal("merge: " + saved.toString());
    std::cout << "merged " << (paths.size() - 1) << " stores, "
              << merged.size() << " rows, into " << paths[0] << "\n";
    return 0;
}

int
cmdCompare(const Args &args)
{
    const double tolerance =
        args.positional.size() > 2
            ? realArg("tolerance", args.positional[2],
                      "a non-negative number", 0.0, unbounded)
            : 0.02;
    auto loadOrDie = [](const std::string &path) {
        lhr::Expected<lhr::ResultStore> store =
            lhr::ResultStore::tryLoadFile(path);
        if (!store.ok())
            lhr::fatal("compare: " + store.status().toString());
        return std::move(store).value();
    };
    const auto before = loadOrDie(args.positional[0]);
    const auto after = loadOrDie(args.positional[1]);
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

int
cmdServe(const Args &args)
{
    lhr::ServeOptions options;
    options.socketPath = args.text("--socket");
    if (options.socketPath.empty())
        usageError("serve needs --socket PATH");
    if (const auto workers = args.integer("--workers", 1, 256))
        options.workers = static_cast<int>(*workers);
    if (const auto depth = args.integer("--queue", 1, 1 << 20))
        options.queueDepth = static_cast<size_t>(*depth);

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
cmdLoadgen(const Args &args)
{
    lhr::LoadgenOptions options;
    options.socketPath = args.text("--socket");
    if (options.socketPath.empty())
        usageError("loadgen needs --socket PATH");
    std::vector<int> clientCounts;
    std::stringstream items(args.text("--clients"));
    std::string item;
    while (std::getline(items, item, ','))
        clientCounts.push_back(
            static_cast<int>(intArg("--clients", item, 1, 4096)));
    if (clientCounts.empty())
        clientCounts.push_back(options.clients);
    if (const auto n = args.integer("--requests", 1, 1L << 30))
        options.requestsPerClient = static_cast<int>(*n);
    options.deadlineMs =
        args.real("--deadline",
                  lhr::msgOf("milliseconds 0..",
                             static_cast<long>(lhr::maxDeadlineMs)),
                  0.0, lhr::maxDeadlineMs)
            .value_or(0.0);
    options.stallMs =
        args.real("--stall", "milliseconds >= 0", 0.0, unbounded)
            .value_or(0.0);
    const int repsPerPoint =
        static_cast<int>(args.integer("--reps", 1, 64).value_or(1));
    const std::string jsonPath = args.text("--json");

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
        json.key("keys").value(static_cast<long>(lhr::loadgenMixKeys));
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

/** One command: its grammar, its usage text and its body. */
struct Command
{
    const char *name;
    const char *synopsis; ///< usage text after the name
    const char *flags;    ///< parseArgs() flags: "--names --out="
    size_t minArgs;       ///< positional arguments
    size_t maxArgs;
    int (*run)(const Args &);
};

constexpr size_t many = SIZE_MAX;

const Command commands[] = {
    {"list", "[--names]", "--names", 0, 0, cmdList},
    {"run",
     "<study>... | run --all  [--format text|csv|json]\n"
     "      [--out DIR] [--jobs N] [--no-prewarm] [--seed N]",
     "--all --format= --out= --jobs= --no-prewarm --seed=", 0, many,
     cmdRun},
    {"processors", "", "", 0, 0, cmdProcessors},
    {"benchmarks", "[nn|ns|jn|js]", "", 0, 1, cmdBenchmarks},
    {"configs", "[--45nm]", "--45nm", 0, 0, cmdConfigs},
    {"measure",
     "<proc-id> <bench> [--cores N] [--smt on|off]\n"
     "          [--clock GHZ] [--turbo on|off]",
     "--cores= --smt= --clock= --turbo=", 2, 2, cmdMeasure},
    {"aggregate", "<proc-id> [same options]",
     "--cores= --smt= --clock= --turbo=", 1, 1, cmdAggregate},
    {"counters", "<proc-id> <bench>", "", 2, 2, cmdCounters},
    {"rate", "<proc-id> <bench>", "", 2, 2, cmdRate},
    {"corun", "<proc-id> <bench-a> <bench-b>", "", 3, 3, cmdCorun},
    {"snapshot",
     "<file.csv> [--45nm] [--shard I/N] [--jobs N]\n"
     "           [--resume] [--checkpoint N]",
     "--45nm --shard= --jobs= --resume --checkpoint=", 1, 1,
     cmdSnapshot},
    {"merge", "<out.csv> <in.csv> [in.csv ...]", "", 2, many, cmdMerge},
    {"compare", "<before.csv> <after.csv> [tolerance]", "", 2, 3,
     cmdCompare},
    {"serve", "--socket PATH [--workers N] [--queue N]",
     "--socket= --workers= --queue=", 0, 0, cmdServe},
    {"loadgen",
     "--socket PATH [--clients N[,N...]]\n"
     "          [--requests N] [--deadline MS] [--stall MS]\n"
     "          [--reps N] [--json FILE]",
     "--socket= --clients= --requests= --deadline= --stall= --reps= "
     "--json=",
     0, 0, cmdLoadgen},
};

void
usage(std::ostream &os)
{
    os << "usage: lhrlab [--seed N] [--sensor hall|rapl] <command> "
          "[args]\n"
          "  (--seed default 0xC0FFEE; --sensor default per era)\n";
    for (const Command &command : commands) {
        os << "  " << command.name;
        if (*command.synopsis != '\0')
            os << " " << command.synopsis;
        os << "\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> tokens(argv + 1, argv + argc);
    size_t next = 0;
    const Args global = parseArgs(tokens, next, "--seed= --sensor=", true);
    if (global.has("--seed"))
        gSeed = seedArg(global.text("--seed"));
    if (global.has("--sensor")) {
        gSensor = lhr::parseSensorBackend(global.text("--sensor"));
        if (!gSensor)
            usageError("--sensor takes hall|rapl, got '" +
                       global.text("--sensor") + "'");
    }

    if (next == tokens.size()) {
        usage(std::cerr);
        return 2;
    }
    const std::string &name = tokens[next++];
    if (name == "help" || name == "--help" || name == "-h") {
        usage(std::cout);
        return 0;
    }
    for (const Command &command : commands) {
        if (name != command.name)
            continue;
        const Args args = parseArgs(tokens, next, command.flags, false);
        const size_t given = args.positional.size();
        if (given < command.minArgs)
            usageError(lhr::msgOf(name, " needs ",
                                  command.minArgs, " argument(s), got ",
                                  given));
        if (given > command.maxArgs)
            usageError(name + ": unexpected argument '" +
                       args.positional[command.maxArgs] + "'");
        return command.run(args);
    }
    usageError("unknown command '" + name + "'");
}
