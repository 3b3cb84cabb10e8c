/**
 * @file
 * The CI perf regression gate: diff freshly measured perf baselines
 * (BENCH_sweep.json / BENCH_trace.json) against the previous run's
 * artifacts and fail on a real regression.
 *
 * Usage:
 *   bench_compare [--tolerance R] [--summary FILE]
 *                 BEFORE.json AFTER.json [BEFORE2 AFTER2 ...]
 *
 *   --tolerance R   relative drop a throughput metric may take
 *                   before failing (default 0.15 = 15%); per-metric
 *                   repetition spreads widen it (see perf_compare.hh)
 *   --summary FILE  append the markdown A/B table to FILE as well
 *                   (point it at $GITHUB_STEP_SUMMARY in CI) — the
 *                   table is written whether or not the gate fails
 *
 * Exit status: 0 pass, 1 regression, 2 usage or unreadable input.
 * A missing BEFORE file is a pass with a note (first run on a
 * branch has no prior artifact to compare against). Likewise a
 * record name present on only one side is reported ("new" /
 * "removed") but never gated: only metrics matched by name on both
 * sides can regress.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "perf_compare.hh"

namespace
{

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    out = buffer.str();
    return true;
}

int
usage()
{
    std::cerr << "usage: bench_compare [--tolerance R] "
                 "[--summary FILE] "
                 "BEFORE.json AFTER.json [BEFORE2 AFTER2 ...]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    double tolerance = 0.15;
    std::string summaryPath;
    std::vector<std::string> files;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
            char *end = nullptr;
            tolerance = std::strtod(argv[++i], &end);
            if (end == argv[i] || *end != '\0' || tolerance < 0.0)
                return usage();
        } else if (std::strcmp(argv[i], "--summary") == 0 &&
                   i + 1 < argc) {
            summaryPath = argv[++i];
        } else if (argv[i][0] == '-') {
            return usage();
        } else {
            files.push_back(argv[i]);
        }
    }
    if (files.empty() || files.size() % 2 != 0)
        return usage();

    std::string report;
    bool failed = false;
    size_t compared = 0;
    for (size_t pair = 0; pair < files.size(); pair += 2) {
        const std::string &beforePath = files[pair];
        const std::string &afterPath = files[pair + 1];
        const std::string title = beforePath + " vs " + afterPath;

        std::string beforeText;
        if (!readFile(beforePath, beforeText)) {
            // First run on this branch: nothing to gate against.
            report += "### " + title + "\n\nno prior baseline at `" +
                beforePath + "` — gate skipped for this pair\n\n";
            continue;
        }
        std::string afterText;
        if (!readFile(afterPath, afterText)) {
            std::cerr << "bench_compare: cannot read " << afterPath
                      << "\n";
            return 2;
        }

        const auto before = lhr::parsePerfRecords(beforeText);
        if (!before.ok()) {
            std::cerr << "bench_compare: " << beforePath << ": "
                      << before.status().toString() << "\n";
            return 2;
        }
        const auto after = lhr::parsePerfRecords(afterText);
        if (!after.ok()) {
            std::cerr << "bench_compare: " << afterPath << ": "
                      << after.status().toString() << "\n";
            return 2;
        }

        const lhr::PerfComparison cmp = lhr::comparePerfRecords(
            before.value(), after.value(), tolerance);
        report += lhr::perfTableMarkdown(cmp, title);
        ++compared;
        // Record kinds present on only one side are reported, never
        // gated: a record's first introduction (a new bench suite
        // landing in AFTER) must not fail the comparison it debuts in.
        for (const std::string &name : cmp.onlyAfter)
            std::cout << "bench_compare: note: " << name
                      << " is new in " << afterPath
                      << " (not gated on first introduction)\n";
        for (const std::string &name : cmp.onlyBefore)
            std::cout << "bench_compare: note: " << name
                      << " is gone from " << afterPath
                      << " (was only in the baseline; not gated)\n";
        for (const lhr::PerfDelta *delta : cmp.regressions()) {
            std::fprintf(stderr,
                         "bench_compare: REGRESSION %s %s: %.4g -> "
                         "%.4g (%+.1f%%, tolerance -%.1f%%)\n",
                         delta->record.c_str(), delta->metric.c_str(),
                         delta->before, delta->after,
                         100.0 * delta->deltaRel(),
                         100.0 * delta->tolerance);
            failed = true;
        }
    }

    std::cout << report;
    if (!summaryPath.empty()) {
        std::ofstream summary(summaryPath, std::ios::app);
        if (!summary) {
            std::cerr << "bench_compare: cannot append to "
                      << summaryPath << "\n";
            return 2;
        }
        summary << report;
    }

    if (failed) {
        std::cerr << "bench_compare: FAIL — throughput regressed "
                     "beyond tolerance\n";
        return 1;
    }
    std::cout << "bench_compare: pass (" << compared
              << " baseline pair(s) gated, tolerance "
              << 100.0 * tolerance << "%)\n";
    return 0;
}
