/**
 * @file
 * Tests for the CI perf regression gate: the JSON value parser, the
 * baseline-record parser, the noise-aware comparison logic (spread
 * widening, direction classification), the markdown A/B table, and
 * the real bench_compare binary (path baked in by CMake as
 * LHR_BENCH_COMPARE_BIN) — including the required demonstration that
 * an intentionally slowed run fires the gate.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include <sys/wait.h>

#include "analysis/perf_compare.hh"
#include "util/json.hh"

namespace lhr
{

namespace
{

struct CliResult
{
    int exitCode = -1;
    std::string output; ///< stdout and stderr, interleaved
};

CliResult
runGate(const std::string &args)
{
    const std::string cmd =
        std::string(LHR_BENCH_COMPARE_BIN) + " " + args + " 2>&1";
    FILE *pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << cmd;
    CliResult result;
    char buf[4096];
    size_t n;
    while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0)
        result.output.append(buf, n);
    const int status = pclose(pipe);
    result.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return result;
}

bool
mentions(const CliResult &r, const std::string &needle)
{
    return r.output.find(needle) != std::string::npos;
}

/** Write a fixture under gtest's temp dir, return its path. */
std::string
writeFile(const std::string &name, const std::string &text)
{
    const std::string path = testing::TempDir() + name;
    std::ofstream os(path, std::ios::trunc);
    os << text;
    EXPECT_TRUE(os.good()) << path;
    return path;
}

/** A one-record baseline with the given throughput and spread. */
std::string
baseline(double perSec, double spreadRel)
{
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "[{\"name\": \"sweep_serial\", \"metrics\": "
        "{\"experiments_per_sec\": %.1f, "
        "\"experiments_per_sec_spread_rel\": %.4f}, "
        "\"wall_sec\": 1.0}]",
        perSec, spreadRel);
    return buf;
}

} // namespace

TEST(Json, ParsesScalarsContainersAndEscapes)
{
    const auto doc = parseJson(
        " { \"a\": [1, -2.5e2, true, false, null], "
        "\"s\": \"q\\u00e9\\n\\\"\", \"o\": {\"k\": 3} } ");
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    const JsonValue &root = doc.value();
    ASSERT_TRUE(root.isObject());
    const JsonValue *a = root.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->size(), 5u);
    EXPECT_EQ(a->items()[0].asNumber(), 1.0);
    EXPECT_EQ(a->items()[1].asNumber(), -250.0);
    EXPECT_TRUE(a->items()[2].asBoolean());
    EXPECT_FALSE(a->items()[3].asBoolean());
    EXPECT_TRUE(a->items()[4].isNull());
    const JsonValue *s = root.find("s");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->asString(), "q\xc3\xa9\n\"");
    const JsonValue *o = root.find("o");
    ASSERT_NE(o, nullptr);
    EXPECT_EQ(o->numberOr("k", 0.0), 3.0);
    EXPECT_EQ(root.find("missing"), nullptr);
}

TEST(Json, RejectsMalformedDocumentsWithPosition)
{
    EXPECT_FALSE(parseJson("").ok());
    EXPECT_FALSE(parseJson("{\"a\": }").ok());
    EXPECT_FALSE(parseJson("[1, 2").ok());
    EXPECT_FALSE(parseJson("[1] trailing").ok());
    EXPECT_FALSE(parseJson("{\"a\": 01}").ok());
    EXPECT_FALSE(parseJson("\"\\u12\"").ok());

    const auto err = parseJson("{\n  \"a\": nope\n}");
    ASSERT_FALSE(err.ok());
    EXPECT_NE(err.status().message().find("line 2"),
              std::string::npos)
        << err.status().toString();
}

TEST(Json, RejectsRunawayNesting)
{
    std::string deep;
    for (int i = 0; i < 100; ++i)
        deep += "[";
    EXPECT_FALSE(parseJson(deep).ok());
}

TEST(PerfCompare, ParsesRecordsAndFlattensMetrics)
{
    const auto records = parsePerfRecords(
        "[{\"name\": \"r\", \"config\": {\"grid\": \"full\"}, "
        "\"metrics\": {\"experiments_per_sec\": 100.0, "
        "\"note\": \"skipped\"}, \"wall_sec\": 2.5}]");
    ASSERT_TRUE(records.ok()) << records.status().toString();
    ASSERT_EQ(records.value().size(), 1u);
    const PerfRecord &r = records.value()[0];
    EXPECT_EQ(r.name, "r");
    EXPECT_EQ(r.metricOr("experiments_per_sec", 0.0), 100.0);
    EXPECT_EQ(r.metricOr("wall_sec", 0.0), 2.5);
    EXPECT_FALSE(r.hasMetric("note"));

    EXPECT_FALSE(parsePerfRecords("{}").ok());
    EXPECT_FALSE(parsePerfRecords("[{\"metrics\": {}}]").ok());
}

TEST(PerfCompare, OnlyThroughputMetricsGate)
{
    EXPECT_EQ(metricDirection("experiments_per_sec"),
              MetricDirection::HigherIsBetter);
    EXPECT_EQ(metricDirection("samples_per_sec"),
              MetricDirection::HigherIsBetter);
    EXPECT_EQ(metricDirection("experiments_per_sec_spread_rel"),
              MetricDirection::Informational);
    EXPECT_EQ(metricDirection("wall_sec"),
              MetricDirection::Informational);
    EXPECT_EQ(metricDirection("cache_misses"),
              MetricDirection::Informational);
}

TEST(PerfCompare, FlagsRegressionBeyondTolerance)
{
    const auto before =
        parsePerfRecords(baseline(1000.0, 0.0)).value();
    const auto ok = parsePerfRecords(baseline(900.0, 0.0)).value();
    const auto bad = parsePerfRecords(baseline(700.0, 0.0)).value();

    EXPECT_FALSE(
        comparePerfRecords(before, ok, 0.15).hasRegression());
    const PerfComparison cmp =
        comparePerfRecords(before, bad, 0.15);
    ASSERT_TRUE(cmp.hasRegression());
    const PerfDelta &delta = *cmp.regressions()[0];
    EXPECT_EQ(delta.record, "sweep_serial");
    EXPECT_EQ(delta.metric, "experiments_per_sec");
    EXPECT_NEAR(delta.deltaRel(), -0.3, 1e-12);

    // A faster run never regresses, whatever the tolerance.
    const auto faster =
        parsePerfRecords(baseline(2000.0, 0.0)).value();
    EXPECT_FALSE(
        comparePerfRecords(before, faster, 0.0).hasRegression());
}

TEST(PerfCompare, RepetitionSpreadWidensTheTolerance)
{
    // A 30% drop fails a 15% gate on a quiet host ...
    const auto quietBefore =
        parsePerfRecords(baseline(1000.0, 0.01)).value();
    const auto quietAfter =
        parsePerfRecords(baseline(700.0, 0.01)).value();
    EXPECT_TRUE(comparePerfRecords(quietBefore, quietAfter, 0.15)
                    .hasRegression());

    // ... but not on a host whose own repetitions spread 40%: the
    // spread metric widens the tolerance past the observed drop.
    const auto noisyBefore =
        parsePerfRecords(baseline(1000.0, 0.40)).value();
    const auto noisyAfter =
        parsePerfRecords(baseline(700.0, 0.01)).value();
    const PerfComparison cmp =
        comparePerfRecords(noisyBefore, noisyAfter, 0.15);
    EXPECT_FALSE(cmp.hasRegression());
    ASSERT_FALSE(cmp.deltas.empty());
    EXPECT_NEAR(cmp.deltas[0].tolerance, 0.40, 1e-12);
}

TEST(PerfCompare, TracksRecordChurn)
{
    const auto before = parsePerfRecords(
        "[{\"name\": \"gone\", \"metrics\": {}}]").value();
    const auto after = parsePerfRecords(
        "[{\"name\": \"new\", \"metrics\": {}}]").value();
    const PerfComparison cmp =
        comparePerfRecords(before, after, 0.15);
    ASSERT_EQ(cmp.onlyBefore.size(), 1u);
    EXPECT_EQ(cmp.onlyBefore[0], "gone");
    ASSERT_EQ(cmp.onlyAfter.size(), 1u);
    EXPECT_EQ(cmp.onlyAfter[0], "new");

    const std::string table = perfTableMarkdown(cmp, "t");
    EXPECT_NE(table.find("record removed"), std::string::npos);
    EXPECT_NE(table.find("new record"), std::string::npos);
    EXPECT_NE(table.find("not gated"), std::string::npos);
}

// A record kind present on only one side never gates, even when it
// carries a gating-suffixed metric: there is nothing to diff a first
// introduction (or a retirement) against.
TEST(PerfCompare, OneSidedRecordsNeverGate)
{
    const auto before = parsePerfRecords(
        "[{\"name\": \"sweep_serial\", \"metrics\": "
        "{\"experiments_per_sec\": 1000.0}}]").value();
    const auto after = parsePerfRecords(
        "[{\"name\": \"sweep_serial\", \"metrics\": "
        "{\"experiments_per_sec\": 1000.0}}, "
        "{\"name\": \"serve_c8\", \"metrics\": "
        "{\"requests_per_sec\": 50.0}}]").value();

    // Zero tolerance: any gated delta would fail; the new record
    // contributes no delta at all.
    const PerfComparison cmp = comparePerfRecords(before, after, 0.0);
    EXPECT_FALSE(cmp.hasRegression());
    ASSERT_EQ(cmp.onlyAfter.size(), 1u);
    EXPECT_EQ(cmp.onlyAfter[0], "serve_c8");
    for (const PerfDelta &delta : cmp.deltas)
        EXPECT_EQ(delta.record, "sweep_serial");

    // The reverse direction (record retired) is just as silent.
    const PerfComparison gone = comparePerfRecords(after, before, 0.0);
    EXPECT_FALSE(gone.hasRegression());
    ASSERT_EQ(gone.onlyBefore.size(), 1u);
    EXPECT_EQ(gone.onlyBefore[0], "serve_c8");
}

TEST(PerfCompare, MarkdownTableMarksPassAndFail)
{
    const auto before =
        parsePerfRecords(baseline(1000.0, 0.0)).value();
    const auto after =
        parsePerfRecords(baseline(700.0, 0.0)).value();
    const std::string table = perfTableMarkdown(
        comparePerfRecords(before, after, 0.15), "A vs B");
    EXPECT_NE(table.find("### A vs B"), std::string::npos);
    EXPECT_NE(table.find("**FAIL**"), std::string::npos);
    EXPECT_NE(table.find("-30.0%"), std::string::npos);

    const std::string passing = perfTableMarkdown(
        comparePerfRecords(before, before, 0.15), "A vs A");
    EXPECT_EQ(passing.find("FAIL"), std::string::npos);
    EXPECT_NE(passing.find("ok (tol"), std::string::npos);
}

// ---- the real gate binary ------------------------------------------

TEST(BenchCompareCli, PassesOnIdenticalBaselines)
{
    const std::string a =
        writeFile("bc_same_a.json", baseline(1000.0, 0.05));
    const std::string b =
        writeFile("bc_same_b.json", baseline(1000.0, 0.05));
    const CliResult r = runGate(a + " " + b);
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_TRUE(mentions(r, "bench_compare: pass"));
    // The A/B table is printed even when the gate passes.
    EXPECT_TRUE(mentions(r, "| record | metric |"));
}

// The acceptance demonstration: an intentionally slowed run (here a
// 40% throughput drop against the stored baseline) must fire the
// gate — nonzero exit, REGRESSION diagnostic, FAIL row in the table.
TEST(BenchCompareCli, IntentionallySlowedRunFiresTheGate)
{
    const std::string fast =
        writeFile("bc_fast.json", baseline(1000.0, 0.02));
    const std::string slowed =
        writeFile("bc_slowed.json", baseline(600.0, 0.02));
    const CliResult r = runGate(fast + " " + slowed);
    EXPECT_EQ(r.exitCode, 1) << r.output;
    EXPECT_TRUE(mentions(r, "REGRESSION sweep_serial "
                            "experiments_per_sec"));
    EXPECT_TRUE(mentions(r, "**FAIL**"));
}

TEST(BenchCompareCli, SpreadKeepsNoisyDropFromFiring)
{
    const std::string noisy =
        writeFile("bc_noisy.json", baseline(1000.0, 0.45));
    const std::string after =
        writeFile("bc_noisy_after.json", baseline(600.0, 0.02));
    const CliResult r = runGate(noisy + " " + after);
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_TRUE(mentions(r, "bench_compare: pass"));
}

TEST(BenchCompareCli, MissingBaselineIsAPassWithANote)
{
    const std::string after =
        writeFile("bc_first_run.json", baseline(1000.0, 0.0));
    const CliResult r =
        runGate(testing::TempDir() + "bc_never_written.json " + after);
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_TRUE(mentions(r, "no prior baseline"));
}

// First introduction of a new record kind (a serve baseline landing
// next to an existing sweep baseline): the run must pass, with the
// newcomer reported but not gated.
TEST(BenchCompareCli, NewRecordKindPassesOnFirstIntroduction)
{
    const std::string before =
        writeFile("bc_intro_before.json", baseline(1000.0, 0.02));
    const std::string after = writeFile(
        "bc_intro_after.json",
        "[{\"name\": \"sweep_serial\", \"metrics\": "
        "{\"experiments_per_sec\": 1000.0, "
        "\"experiments_per_sec_spread_rel\": 0.02}, "
        "\"wall_sec\": 1.0}, "
        "{\"name\": \"serve_c8\", \"metrics\": "
        "{\"requests_per_sec\": 42.0, "
        "\"requests_per_sec_spread_rel\": 0.10}, "
        "\"wall_sec\": 2.0}]");
    const CliResult r = runGate(before + " " + after);
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_TRUE(mentions(r, "bench_compare: pass"));
    EXPECT_TRUE(mentions(r, "serve_c8 is new in"));
    EXPECT_TRUE(mentions(r, "not gated"));
}

TEST(BenchCompareCli, RemovedRecordKindIsANoteNotAFailure)
{
    const std::string before = writeFile(
        "bc_gone_before.json",
        "[{\"name\": \"sweep_serial\", \"metrics\": "
        "{\"experiments_per_sec\": 1000.0}}, "
        "{\"name\": \"serve_c8\", \"metrics\": "
        "{\"requests_per_sec\": 42.0}}]");
    const std::string after =
        writeFile("bc_gone_after.json", baseline(1000.0, 0.0));
    const CliResult r = runGate(before + " " + after);
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_TRUE(mentions(r, "serve_c8 is gone from"));
}

TEST(BenchCompareCli, BadInputsExitTwo)
{
    EXPECT_EQ(runGate("").exitCode, 2);
    EXPECT_EQ(runGate("only_one.json").exitCode, 2);
    EXPECT_EQ(runGate("--tolerance banana a.json b.json").exitCode, 2);

    const std::string good =
        writeFile("bc_good.json", baseline(1000.0, 0.0));
    const std::string broken = writeFile("bc_broken.json", "[{");
    const CliResult r = runGate(broken + " " + good);
    EXPECT_EQ(r.exitCode, 2) << r.output;
}

TEST(BenchCompareCli, SummaryFileReceivesTheTable)
{
    const std::string a =
        writeFile("bc_sum_a.json", baseline(1000.0, 0.0));
    const std::string b =
        writeFile("bc_sum_b.json", baseline(1100.0, 0.0));
    const std::string summary = testing::TempDir() + "bc_summary.md";
    std::remove(summary.c_str());
    const CliResult r =
        runGate("--summary " + summary + " " + a + " " + b);
    EXPECT_EQ(r.exitCode, 0) << r.output;

    std::ifstream in(summary);
    ASSERT_TRUE(in.good()) << summary;
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("| record | metric |"), std::string::npos);
    EXPECT_NE(text.find("+10.0%"), std::string::npos);
}

} // namespace lhr
