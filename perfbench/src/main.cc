/**
 * @file
 * perfbench — runs one workload of the lhrlab benchmark and
 * prints its metrics. perfbench/run.py builds it and passes the
 * lhrlab binary, a scratch directory and the benchmark's contract:
 *
 *   perfbench --workload studies|grid|serve --seed N
 *             --seconds S --trace 0|1
 *             --lhrlab PATH --work DIR --golden DIR
 *             --contract BENCHMARK.json
 *
 * The last line of stdout is one JSON object:
 *   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
 * with every end-to-end metric (--trace 0) or every per-layer metric
 * (--trace 1) that the contract lists, in its order and with its
 * units. A per-layer metric of a layer the workload does not exercise
 * reads 0. Lines before it are a human-readable summary.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hh"
#include "util/json.hh"

namespace perfbench
{

namespace
{

struct MetricDef
{
    std::string name;
    std::string unit;
};

/** The `end_to_end` or `per_layer` list of BENCHMARK.json. */
std::vector<MetricDef>
contractMetrics(const std::string &path, const char *list)
{
    const lhr::Expected<lhr::JsonValue> contract =
        lhr::parseJson(readFile(path));
    if (!contract.ok())
        throw std::runtime_error(path + ": " + contract.status().toString());
    const lhr::JsonValue *metrics = contract.value().find(list);
    if (metrics == nullptr || !metrics->isArray() || metrics->size() == 0)
        throw std::runtime_error(path + " has no " + list + " metrics");
    std::vector<MetricDef> defs;
    for (const lhr::JsonValue &metric : metrics->items())
        defs.push_back({metric.stringOr("name", ""),
                        metric.stringOr("unit", "")});
    return defs;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload studies|grid|serve "
                 "--seed N --seconds S --trace 0|1 --lhrlab PATH "
                 "--work DIR --golden DIR --contract FILE\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool seeded = false;
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string value = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0' || value[0] == '-')
                usage("--seed takes a non-negative integer");
            seeded = true;
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(opt.seconds > 0.0))
                usage("--seconds takes a positive number");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            opt.trace = value == "1";
        } else if (flag == "--lhrlab") {
            opt.lhrlab = value;
        } else if (flag == "--work") {
            opt.work = value;
        } else if (flag == "--golden") {
            opt.golden = value;
        } else if (flag == "--contract") {
            opt.contract = value;
        } else {
            usage("unknown option " + flag);
        }
    }
    if (!seeded || opt.lhrlab.empty() || opt.work.empty() ||
        opt.golden.empty() || opt.contract.empty())
        usage("--seed, --lhrlab, --work, --golden and --contract are "
              "required");
    return opt;
}

void
printResult(const Report &report, const std::vector<MetricDef> &defs)
{
    for (const std::string &line : report.notes)
        std::cout << "  " << line << "\n";
    for (const std::string &line : report.problems)
        std::cout << "  CHECK FAILED: " << line << "\n";

    bool correct = report.correct();
    std::string json;
    char buf[256];
    for (const MetricDef &def : defs) {
        const auto found = report.metrics.find(def.name);
        double value = found == report.metrics.end() ? 0.0 : found->second;
        if (!std::isfinite(value)) {
            std::cout << "  CHECK FAILED: " << def.name << " is not finite\n";
            correct = false;
            value = 0.0;
        }
        std::printf("  %-30s %16.6g %s\n", def.name.c_str(), value,
                    def.unit.c_str());
        std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                      "\"unit\": \"%s\"}",
                      json.empty() ? "" : ", ", def.name.c_str(), value,
                      def.unit.c_str());
        json += buf;
    }
    std::fflush(stdout);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed), json.c_str());
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Options opt = parseArgs(argc, argv);

    // The lab reads these; the benchmark passes its inputs explicitly.
    for (const char *var : {"LHR_SEED", "LHR_SENSOR", "LHR_THREADS"})
        unsetenv(var);
    std::error_code ec;
    std::filesystem::create_directories(opt.work, ec);
    if (ec) {
        std::cerr << "perfbench: cannot create " << opt.work << "\n";
        return 1;
    }

    Report report;
    std::vector<MetricDef> defs;
    try {
        defs = contractMetrics(opt.contract,
                               opt.trace ? "per_layer" : "end_to_end");
        if (opt.workload == "studies")
            report = runStudies(opt);
        else if (opt.workload == "grid")
            report = runGrid(opt);
        else if (opt.workload == "serve")
            report = runServe(opt);
        else
            usage("unknown workload '" + opt.workload + "'");
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << opt.workload << ": " << e.what()
                  << "\n";
        return 1;
    }
    if (!opt.trace) {
        for (const MetricDef &def : defs) {
            if (!report.metrics.count(def.name)) {
                std::cerr << "perfbench: " << opt.workload
                          << " did not measure " << def.name << "\n";
                return 1;
            }
        }
    }
    std::cout << opt.workload << " (seed " << opt.seed << ", "
              << (opt.trace ? "traced" : "end to end") << "):\n";
    printResult(report, defs);
    return 0;
}
