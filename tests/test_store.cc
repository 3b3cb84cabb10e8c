/**
 * @file
 * Tests for measurement persistence and run comparison.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>
#include <set>
#include <sstream>

#include "store/results_store.hh"
#include "study/study.hh"
#include "sweep/sweep.hh"
#include "util/status.hh"

namespace lhr
{

namespace
{

StoredResult
row(const std::string &cfg, const std::string &bench, double t,
    double w)
{
    return {cfg, bench, t, 0.01, w, 0.01};
}

/** save() into a string; the store must be serializable. */
std::string
savedText(const ResultStore &store)
{
    std::ostringstream os;
    const Status saved = store.save(os);
    EXPECT_TRUE(saved.ok()) << saved.toString();
    return os.str();
}

} // namespace

TEST(Store, PutFindOverwrite)
{
    ResultStore store;
    store.put(row("cfgA", "mcf", 10.0, 40.0));
    EXPECT_EQ(store.size(), 1u);
    const StoredResult *found = store.find("cfgA", "mcf");
    ASSERT_NE(found, nullptr);
    EXPECT_DOUBLE_EQ(found->timeSec, 10.0);
    EXPECT_DOUBLE_EQ(found->energyJ(), 400.0);

    store.put(row("cfgA", "mcf", 12.0, 40.0)); // overwrite
    EXPECT_EQ(store.size(), 1u);
    EXPECT_DOUBLE_EQ(store.find("cfgA", "mcf")->timeSec, 12.0);

    EXPECT_EQ(store.find("cfgA", "gcc"), nullptr);
    EXPECT_EQ(store.find("cfgB", "mcf"), nullptr);
}

TEST(Store, ConfigsSharingALabelKeepTheirOwnRows)
{
    // The display label rounds the clock to 0.1GHz: i7 (45) at 1.66
    // and at 1.70 GHz both read "@1.7GHz" but are two experiments.
    const MachineConfig stock = stockConfig(processorById("i7 (45)"));
    const MachineConfig low = withClock(stock, 1.66);
    const MachineConfig high = withClock(stock, 1.70);
    ASSERT_EQ(low.label(), high.label());
    const Benchmark &bench = benchmarkByName("mcf");
    Measurement atLow, atHigh;
    atLow.powerW = 11.0;
    atHigh.powerW = 12.0;

    ResultStore store;
    store.put(low, bench, atLow);
    store.put(high, bench, atHigh);
    ASSERT_EQ(store.size(), 2u);
    EXPECT_DOUBLE_EQ(store.find(configKey(low), "mcf")->powerW, 11.0);
    EXPECT_DOUBLE_EQ(store.find(configKey(high), "mcf")->powerW, 12.0);

    // Every configuration the studies declare keeps its own row,
    // although several of them share a label.
    const std::vector<MachineConfig> grid =
        unionGrid(StudyRegistry::instance().all());
    std::set<std::string> labels;
    ResultStore all;
    for (const MachineConfig &cfg : grid) {
        labels.insert(cfg.label());
        all.put(cfg, bench, atLow);
    }
    ASSERT_LT(labels.size(), grid.size());
    EXPECT_EQ(all.size(), grid.size());
}

TEST(Store, SaveLoadRoundTrip)
{
    ResultStore store;
    store.put(row("i7 (45) 4C2T@2.7GHz", "mcf", 1805.25, 48.39));
    store.put(row("Atom (45) 1C2T@1.7GHz", "xalan", 14.0, 2.5));
    // A label with a comma exercises quoting.
    store.put(row("cfg,with,commas", "b\"quoted\"", 1.5, 2.5));

    std::ostringstream os;
    ASSERT_TRUE(store.save(os).ok());
    std::istringstream is(os.str());
    const Expected<ResultStore> parsed = ResultStore::tryLoad(is);
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    const ResultStore &loaded = parsed.value();

    EXPECT_EQ(loaded.size(), store.size());
    for (const auto *original : store.all()) {
        const StoredResult *copy = loaded.find(
            original->config, original->benchmark);
        ASSERT_NE(copy, nullptr) << original->config;
        EXPECT_NEAR(copy->timeSec, original->timeSec, 1e-5);
        EXPECT_NEAR(copy->powerW, original->powerW, 1e-5);
        EXPECT_NEAR(copy->timeCi95Rel, original->timeCi95Rel, 1e-5);
    }
}

TEST(Store, LoadAcceptsCrlfLineEndings)
{
    // Regression: a store file written or edited on Windows carries
    // CRLF line ends; getline used to leave the '\r' in the last
    // field and parseDouble fatal()ed on it.
    std::istringstream is(
        "config_key,benchmark,time_s,time_ci95,power_w,power_ci95\r\n"
        "cfg,mcf,1.500000,0.010000,40.250000,0.020000\r\n"
        "\r\n"
        "cfg,xalan,2.000000,0.010000,30.000000,0.010000\r\n");
    const Expected<ResultStore> loaded = ResultStore::tryLoad(is);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    EXPECT_EQ(loaded.value().size(), 2u);
    const StoredResult *found = loaded.value().find("cfg", "mcf");
    ASSERT_NE(found, nullptr);
    EXPECT_DOUBLE_EQ(found->timeSec, 1.5);
    EXPECT_DOUBLE_EQ(found->powerW, 40.25);
    EXPECT_DOUBLE_EQ(found->powerCi95Rel, 0.02);
}

TEST(Store, LoadToleratesPaddedNumericFields)
{
    // Hand-edited files often pick up stray spaces around numbers.
    std::istringstream is(
        "config_key,benchmark,time_s,time_ci95,power_w,power_ci95\n"
        "cfg,mcf, 1.5 ,0.01, 40.25\t,0.02\n");
    const Expected<ResultStore> loaded = ResultStore::tryLoad(is);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    const StoredResult *found = loaded.value().find("cfg", "mcf");
    ASSERT_NE(found, nullptr);
    EXPECT_DOUBLE_EQ(found->timeSec, 1.5);
    EXPECT_DOUBLE_EQ(found->powerW, 40.25);
}

TEST(Store, TryLoadReportsTypedLineNumberedErrors)
{
    const std::string header =
        "config_key,benchmark,time_s,time_ci95,power_w,power_ci95\n";

    struct Case
    {
        const char *label;
        std::string input;
        std::string expectInMessage;
    };
    const Case cases[] = {
        {"wrong header", "not,a,store\n", "header"},
        {"label-keyed header",
         "config,benchmark,time_s,time_ci95,power_w,power_ci95\n"
         "cfg,mcf,1.0,0.01,40.0,0.01\n",
         "line 1: expected header 'config_key,"},
        {"truncated row", header + "cfg,mcf,1.0,0.01\n",
         "line 2 has 4 fields"},
        {"extra fields", header + "cfg,mcf,1.0,0.01,40.0,0.01,9\n",
         "line 2 has 7 fields"},
        {"non-numeric", header + "cfg,mcf,banana,0.01,40.0,0.01\n",
         "line 2: bad number"},
        {"whitespace-only number", header + "cfg,mcf,  ,0.01,40.0,0.01\n",
         "line 2: bad number"},
        {"nan field", header + "cfg,mcf,nan,0.01,40.0,0.01\n",
         "line 2"},
        {"inf field", header + "cfg,mcf,1.0,0.01,inf,0.01\n",
         "line 2"},
        {"duplicate key",
         header + "cfg,mcf,1.0,0.01,40.0,0.01\n"
                  "cfg,mcf,2.0,0.01,41.0,0.01\n",
         "line 3: duplicate row"},
        {"error after good rows",
         header + "cfg,mcf,1.0,0.01,40.0,0.01\n"
                  "cfg,gcc,oops,0.01,40.0,0.01\n",
         "line 3"},
    };

    for (const Case &c : cases) {
        std::istringstream is(c.input);
        const Expected<ResultStore> loaded = ResultStore::tryLoad(is);
        ASSERT_FALSE(loaded.ok()) << c.label;
        EXPECT_EQ(loaded.status().code(), StatusCode::ParseError)
            << c.label;
        EXPECT_NE(loaded.status().message().find(c.expectInMessage),
                  std::string::npos)
            << c.label << ": " << loaded.status().message();
    }

    // The same matrix through tryLoad never kills the process — the
    // paper's 45-config sweep must shrug off one corrupt snapshot.
    std::istringstream good(header + "cfg,mcf,1.0,0.01,40.0,0.01\n");
    const Expected<ResultStore> loaded = ResultStore::tryLoad(good);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded.value().size(), 1u);
}

TEST(Store, TryLoadFileReportsMissingPath)
{
    const Expected<ResultStore> loaded =
        ResultStore::tryLoadFile("/no/such/dir/store.csv");
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::IoError);
    EXPECT_NE(loaded.status().message().find("cannot open"),
              std::string::npos);
}

TEST(Store, SaveToFileRoundTripsAtomically)
{
    ResultStore store;
    store.put(row("cfgA", "mcf", 10.0, 40.0));
    store.put(row("cfg,with,commas", "db", 1.5, 2.5));

    const std::string path =
        testing::TempDir() + "store_roundtrip.csv";
    const Status saved = store.saveToFile(path);
    ASSERT_TRUE(saved.ok()) << saved.toString();
    // The temp file must be gone after the rename.
    EXPECT_FALSE(std::ifstream(path + ".tmp").good());

    const Expected<ResultStore> loaded =
        ResultStore::tryLoadFile(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    EXPECT_EQ(loaded.value().size(), store.size());
    ASSERT_NE(loaded.value().find("cfgA", "mcf"), nullptr);
    std::remove(path.c_str());
}

TEST(Store, SaveToFileOverwriteKeepsOldFileOnFailure)
{
    const std::string path = testing::TempDir() + "store_keep.csv";
    ResultStore store;
    store.put(row("cfg", "mcf", 10.0, 40.0));
    ASSERT_TRUE(store.saveToFile(path).ok());

    // Writing into a directory that does not exist fails without
    // touching the good file written above.
    const Status bad = store.saveToFile("/no/such/dir/store.csv");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.code(), StatusCode::IoError);
    const Expected<ResultStore> still =
        ResultStore::tryLoadFile(path);
    ASSERT_TRUE(still.ok());
    EXPECT_EQ(still.value().size(), 1u);
    std::remove(path.c_str());
}

TEST(Store, LoadSkipsBlankLines)
{
    std::istringstream is(
        "config_key,benchmark,time_s,time_ci95,power_w,power_ci95\n"
        "cfg,mcf,1.000000,0.010000,40.000000,0.010000\n"
        "\n");
    const Expected<ResultStore> loaded = ResultStore::tryLoad(is);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    EXPECT_EQ(loaded.value().size(), 1u);
}

TEST(Store, CompareCleanWhenIdentical)
{
    ResultStore a;
    a.put(row("cfg", "mcf", 10.0, 40.0));
    a.put(row("cfg", "gcc", 5.0, 35.0));
    const auto cmp = compareStores(a, a, 0.01);
    EXPECT_TRUE(cmp.clean());
    EXPECT_EQ(cmp.compared, 2u);
}

TEST(Store, CompareFlagsTimeRegression)
{
    ResultStore before, after;
    before.put(row("cfg", "mcf", 10.0, 40.0));
    after.put(row("cfg", "mcf", 11.0, 40.0)); // +10% time
    const auto cmp = compareStores(before, after, 0.05);
    ASSERT_EQ(cmp.regressions.size(), 1u);
    EXPECT_NEAR(cmp.regressions[0].timeRatio, 1.1, 1e-9);
    EXPECT_NEAR(cmp.regressions[0].powerRatio, 1.0, 1e-9);
    EXPECT_NEAR(cmp.regressions[0].energyRatio, 1.1, 1e-9);
    EXPECT_FALSE(cmp.clean());
}

TEST(Store, CompareWithinToleranceIsClean)
{
    ResultStore before, after;
    before.put(row("cfg", "mcf", 10.0, 40.0));
    after.put(row("cfg", "mcf", 10.3, 40.8)); // 3% / 2%
    EXPECT_TRUE(compareStores(before, after, 0.05).clean());
    EXPECT_FALSE(compareStores(before, after, 0.01).clean());
    EXPECT_DEATH(compareStores(before, after, -0.1), "tolerance");
}

TEST(Store, CompareReportsMissingRows)
{
    ResultStore before, after;
    before.put(row("cfg", "mcf", 10.0, 40.0));
    before.put(row("cfg", "gcc", 5.0, 35.0));
    after.put(row("cfg", "mcf", 10.0, 40.0));
    after.put(row("cfg", "xalan", 2.0, 50.0));
    const auto cmp = compareStores(before, after, 0.05);
    ASSERT_EQ(cmp.onlyInBefore.size(), 1u);
    ASSERT_EQ(cmp.onlyInAfter.size(), 1u);
    EXPECT_NE(cmp.onlyInBefore[0].find("gcc"), std::string::npos);
    EXPECT_NE(cmp.onlyInAfter[0].find("xalan"), std::string::npos);
}

TEST(Store, SnapshotMatchesRunner)
{
    ExperimentRunner runner(0xFACE);
    const std::vector<MachineConfig> configs = {
        stockConfig(processorById("Atom (45)")),
    };
    const ResultStore store =
        toStore(SweepEngine(runner).run(configs, allBenchmarks()));
    EXPECT_EQ(store.size(), allBenchmarks().size());
    const auto &bench = benchmarkByName("jess");
    const StoredResult *found =
        store.find(configKey(configs[0]), bench.name);
    ASSERT_NE(found, nullptr);
    EXPECT_DOUBLE_EQ(found->timeSec,
                     runner.measure(configs[0], bench).timeSec);
}

TEST(Store, SnapshotsAreReproducible)
{
    const std::vector<MachineConfig> configs = {
        stockConfig(processorById("Atom (45)")),
    };
    ExperimentRunner a(0xF00D), b(0xF00D);
    const auto storeA = toStore(SweepEngine(a).run(configs, allBenchmarks()));
    const auto storeB = toStore(SweepEngine(b).run(configs, allBenchmarks()));
    EXPECT_TRUE(compareStores(storeA, storeB, 1e-12).clean());
}

TEST(Store, SnapshotBitIdenticalToSerialLoop)
{
    // A store built from a parallel SweepEngine run must be
    // bit-identical to the serial double loop, by the engine's
    // determinism contract.
    const std::vector<MachineConfig> configs = {
        stockConfig(processorById("Atom (45)")),
        stockConfig(processorById("i7 (45)")),
    };
    ExperimentRunner parallel(0xFACE);
    const ResultStore store =
        toStore(SweepEngine(parallel).run(configs, allBenchmarks()));

    ExperimentRunner serial(0xFACE);
    ResultStore byHand;
    for (const auto &cfg : configs)
        for (const auto &bench : allBenchmarks())
            byHand.put(cfg, bench, serial.measure(cfg, bench));

    EXPECT_EQ(savedText(store), savedText(byHand));
}

TEST(Store, SnapshotTakesAnExplicitGrid)
{
    // A snapshot of any benchmark subset holds exactly that subset.
    const std::vector<MachineConfig> configs = {
        stockConfig(processorById("Atom (45)")),
    };
    const std::vector<Benchmark> benchmarks = {
        benchmarkByName("mcf"), benchmarkByName("xalan")};
    ExperimentRunner runner(0xFACE);
    const ResultStore store =
        toStore(SweepEngine(runner).run(configs, benchmarks));
    EXPECT_EQ(store.size(), 2u);
    EXPECT_NE(store.find(configKey(configs[0]), "mcf"), nullptr);
    EXPECT_NE(store.find(configKey(configs[0]), "xalan"), nullptr);
}

TEST(Store, CompareFlagsZeroBaselineAsRegression)
{
    // A zero baseline makes the after/before ratio inf (or NaN for
    // 0/0); NaN fails the `> tolerance` check, so the old compare
    // reported a real regression as clean.
    ResultStore before, after;
    before.put(row("cfg", "mcf", 0.0, 40.0));
    after.put(row("cfg", "mcf", 11.0, 40.0));
    const auto cmp = compareStores(before, after, 0.05);
    ASSERT_EQ(cmp.regressions.size(), 1u);
    EXPECT_FALSE(cmp.clean());
    EXPECT_FALSE(std::isfinite(cmp.regressions[0].timeRatio));
}

TEST(Store, CompareFlagsNanBaselineAsRegression)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    ResultStore before, after;
    before.put(row("cfg", "mcf", nan, 40.0));
    after.put(row("cfg", "mcf", 10.0, 40.0));
    EXPECT_EQ(compareStores(before, after, 0.05).regressions.size(),
              1u);

    // NaN power in the after store is just as poisonous.
    ResultStore before2, after2;
    before2.put(row("cfg", "mcf", 10.0, 40.0));
    after2.put(row("cfg", "mcf", 10.0, nan));
    EXPECT_EQ(compareStores(before2, after2, 0.05).regressions.size(),
              1u);
}

TEST(Store, CompareFlagsZeroOnZeroBaseline)
{
    // 0/0 is NaN: two zero rows are a nonsense comparison, not a
    // clean one.
    ResultStore a;
    a.put(row("cfg", "mcf", 0.0, 40.0));
    EXPECT_FALSE(compareStores(a, a, 0.05).clean());
}

TEST(Store, SaveRejectsNonFiniteValues)
{
    // The load path rejects nan/inf fields, so the save path must
    // refuse to produce such a file instead of poisoning it.
    const double inf = std::numeric_limits<double>::infinity();
    ResultStore store;
    store.put(row("cfg", "mcf", 1.0, 40.0));
    store.put(row("cfg", "gcc", inf, 40.0));

    std::ostringstream os;
    const Status saved = store.save(os);
    ASSERT_FALSE(saved.ok());
    EXPECT_EQ(saved.code(), StatusCode::InvalidArgument);
    EXPECT_NE(saved.message().find("gcc"), std::string::npos);
    // Nothing was emitted — not even the header or the good row.
    EXPECT_TRUE(os.str().empty());
}

TEST(Store, SaveToFileRejectsNonFiniteAndKeepsOldFile)
{
    const std::string path = testing::TempDir() + "store_finite.csv";
    ResultStore good;
    good.put(row("cfg", "mcf", 1.0, 40.0));
    ASSERT_TRUE(good.saveToFile(path).ok());

    ResultStore bad;
    bad.put(row("cfg", "mcf",
                std::numeric_limits<double>::quiet_NaN(), 40.0));
    const Status saved = bad.saveToFile(path);
    ASSERT_FALSE(saved.ok());
    EXPECT_EQ(saved.code(), StatusCode::InvalidArgument);
    // The temp file is cleaned up and the good snapshot survives.
    EXPECT_FALSE(std::ifstream(path + ".tmp").good());
    const Expected<ResultStore> still = ResultStore::tryLoadFile(path);
    ASSERT_TRUE(still.ok());
    EXPECT_EQ(still.value().size(), 1u);
    std::remove(path.c_str());
}

TEST(Store, HostileLabelsRoundTrip)
{
    // Labels a hand-edited or adversarial file can carry: commas,
    // quotes, leading/trailing whitespace, and combinations. Each
    // must survive save -> tryLoad -> save byte-identically.
    const std::string labels[] = {
        "plain",
        "a,b",
        "\"quoted\"",
        " leading space",
        "trailing space ",
        " \"a,b\" ",
        "tab\tinside",
        "  ",
        "comma, \"and quote\"",
    };
    ResultStore store;
    int n = 0;
    for (const std::string &label : labels)
        store.put(row(label, "bench" + std::to_string(n++), 1.5, 2.5));

    const std::string first = savedText(store);
    std::istringstream is(first);
    const Expected<ResultStore> loaded = ResultStore::tryLoad(is);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    ASSERT_EQ(loaded.value().size(), store.size());
    for (const auto *original : store.all()) {
        EXPECT_NE(loaded.value().find(original->config,
                                      original->benchmark),
                  nullptr)
            << "'" << original->config << "'";
    }
    EXPECT_EQ(savedText(loaded.value()), first);
}

TEST(Store, QuotedFieldAfterStrayWhitespaceStaysOneField)
{
    // Regression: splitCsvLine only entered quoted mode when the
    // quote was the first character of the field, so a hand-edited
    // ` "a,b"` split at the embedded comma.
    std::istringstream is(
        "config_key,benchmark,time_s,time_ci95,power_w,power_ci95\n"
        " \"a,b\" ,mcf,1.500000,0.010000,40.000000,0.010000\n");
    const Expected<ResultStore> loaded = ResultStore::tryLoad(is);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    EXPECT_NE(loaded.value().find("a,b", "mcf"), nullptr);
}

TEST(Store, HostileLabelsSurviveCrlfFiles)
{
    // The same hostile labels written through a CRLF file (the
    // loader strips the '\r' the line reader leaves behind).
    ResultStore store;
    store.put(row("a,b", "mcf", 1.5, 2.5));
    store.put(row(" padded ", "gcc", 2.5, 3.5));
    std::string text = savedText(store);
    std::string crlf;
    for (char ch : text)
        crlf += (ch == '\n') ? std::string("\r\n") : std::string(1, ch);
    std::istringstream is(crlf);
    const Expected<ResultStore> loaded = ResultStore::tryLoad(is);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    EXPECT_NE(loaded.value().find("a,b", "mcf"), nullptr);
    EXPECT_NE(loaded.value().find(" padded ", "gcc"), nullptr);
}

TEST(Store, PropertyRoundTripIsByteStable)
{
    // Property-style: generated stores with hostile labels and
    // random finite values must satisfy save -> tryLoad -> save
    // byte-identity. Seeded mt19937, so a failure reproduces.
    std::mt19937 rng(0xC0FFEE);
    const std::string alphabet =
        "abcXYZ059 ,\"\t_-()/";
    std::uniform_int_distribution<size_t> lenDist(0, 12);
    std::uniform_int_distribution<size_t> chDist(
        0, alphabet.size() - 1);
    std::uniform_real_distribution<double> valDist(0.0, 5000.0);
    std::uniform_int_distribution<int> rowsDist(1, 12);

    auto randomLabel = [&] {
        std::string label;
        const size_t len = lenDist(rng);
        for (size_t i = 0; i < len; ++i)
            label += alphabet[chDist(rng)];
        return label;
    };

    for (int iter = 0; iter < 50; ++iter) {
        ResultStore store;
        const int n = rowsDist(rng);
        for (int i = 0; i < n; ++i) {
            store.put({randomLabel(),
                       randomLabel() + std::to_string(i),
                       valDist(rng), valDist(rng) / 1000.0,
                       valDist(rng), valDist(rng) / 1000.0});
        }
        const std::string first = savedText(store);
        std::istringstream is(first);
        const Expected<ResultStore> loaded = ResultStore::tryLoad(is);
        ASSERT_TRUE(loaded.ok())
            << "iter " << iter << ": " << loaded.status().toString()
            << "\n" << first;
        EXPECT_EQ(savedText(loaded.value()), first) << "iter " << iter;
    }
}

TEST(Store, MergeDisjointStores)
{
    ResultStore a, b;
    a.put(row("cfg", "mcf", 10.0, 40.0));
    a.put(row("cfg", "gcc", 5.0, 35.0));
    b.put(row("cfg", "xalan", 2.0, 50.0));
    b.put(row("other", "mcf", 3.0, 20.0));

    ASSERT_TRUE(a.merge(b).ok());
    EXPECT_EQ(a.size(), 4u);
    EXPECT_NE(a.find("cfg", "mcf"), nullptr);
    EXPECT_NE(a.find("other", "mcf"), nullptr);
}

TEST(Store, MergeToleratesOverlappingIdenticalRows)
{
    ResultStore a, b;
    a.put(row("cfg", "mcf", 10.0, 40.0));
    a.put(row("cfg", "gcc", 5.0, 35.0));
    b.put(row("cfg", "gcc", 5.0, 35.0)); // same bits
    b.put(row("cfg", "xalan", 2.0, 50.0));

    ASSERT_TRUE(a.merge(b).ok());
    EXPECT_EQ(a.size(), 3u);
}

TEST(Store, MergeConflictOnDivergentRowsLeavesStoreUntouched)
{
    ResultStore a, b;
    a.put(row("cfg", "mcf", 10.0, 40.0));
    b.put(row("cfg", "xalan", 2.0, 50.0));   // new row
    b.put(row("cfg", "mcf", 10.0, 40.0001)); // differing bits

    const Status merged = a.merge(b);
    ASSERT_FALSE(merged.ok());
    EXPECT_EQ(merged.code(), StatusCode::Conflict);
    EXPECT_NE(merged.message().find("mcf"), std::string::npos);
    // Validate-then-apply: nothing from b landed, not even the
    // non-conflicting row.
    EXPECT_EQ(a.size(), 1u);
    EXPECT_EQ(a.find("cfg", "xalan"), nullptr);
    EXPECT_DOUBLE_EQ(a.find("cfg", "mcf")->powerW, 40.0);
}

TEST(Store, MergeEmptyAndSelf)
{
    ResultStore a, empty;
    a.put(row("cfg", "mcf", 10.0, 40.0));
    ASSERT_TRUE(a.merge(empty).ok());
    EXPECT_EQ(a.size(), 1u);
    ASSERT_TRUE(empty.merge(a).ok());
    EXPECT_EQ(empty.size(), 1u);
    // Self-merge: every row identical to itself.
    ASSERT_TRUE(a.merge(a).ok());
    EXPECT_EQ(a.size(), 1u);
}

} // namespace lhr
