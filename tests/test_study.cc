/**
 * @file
 * Tests for the study framework (src/study/): registry integrity,
 * the declared-grid contract (prewarming a study's grid makes its
 * run() execute entirely from the memo cache), and golden-output
 * byte identity for representative text reports.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/lab.hh"
#include "study/study.hh"

#ifndef LHR_GOLDEN_DIR
#error "LHR_GOLDEN_DIR must point at tests/golden"
#endif

namespace lhr
{

namespace
{

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

std::string
goldenFile(const std::string &name)
{
    return readFile(std::string(LHR_GOLDEN_DIR) + "/" + name + ".txt");
}

/** The data rows of a one-table study's CSV rendering, as cells. */
std::vector<std::vector<std::string>>
csvRows(Lab &lab, const std::string &name)
{
    const Study *study = StudyRegistry::instance().find(name);
    EXPECT_NE(study, nullptr);
    std::ostringstream out;
    CsvSink sink(out);
    runStudy(lab, *study, sink, OutputFormat::Csv);

    std::vector<std::vector<std::string>> rows;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::vector<std::string> cells;
        std::istringstream fields(line);
        std::string cell;
        while (std::getline(fields, cell, ','))
            cells.push_back(cell);
        rows.push_back(std::move(cells));
    }
    if (!rows.empty())
        rows.erase(rows.begin()); // the column header
    return rows;
}

std::string
renderText(Lab &lab, const std::string &name)
{
    const Study *study = StudyRegistry::instance().find(name);
    EXPECT_NE(study, nullptr);
    std::ostringstream out;
    TextSink sink(out);
    runStudy(lab, *study, sink, OutputFormat::Text);
    return out.str();
}

/** The registered studies named in `names`, in registry order. */
std::vector<const Study *>
inRegistryOrder(const std::set<std::string> &names)
{
    std::vector<const Study *> studies;
    for (const Study *study : StudyRegistry::instance().all()) {
        if (names.count(study->name()))
            studies.push_back(study);
    }
    EXPECT_EQ(studies.size(), names.size());
    return studies;
}

} // namespace

TEST(StudyRegistry, HoldsEveryConvertedDriver)
{
    const auto &all = StudyRegistry::instance().all();
    EXPECT_GE(all.size(), 30u);

    std::set<std::string> names;
    for (const Study *study : all) {
        ASSERT_NE(study, nullptr);
        EXPECT_FALSE(study->name().empty());
        EXPECT_FALSE(study->description().empty());
        EXPECT_TRUE(names.insert(study->name()).second)
            << "duplicate study name " << study->name();
    }

    // The paper's figures and tables are all present.
    for (const char *name :
         {"fig01", "fig04", "fig07", "fig12", "table1", "table3",
          "table5", "findings", "dataset", "ablation_pipesim",
          "pareto_history"})
        EXPECT_NE(StudyRegistry::instance().find(name), nullptr)
            << "study " << name << " not registered";
}

TEST(StudyRegistry, ParetoHistoryGridSpansEveryEra)
{
    const Study *study =
        StudyRegistry::instance().find("pareto_history");
    ASSERT_NE(study, nullptr);
    const auto grid = study->grid();
    // The 45 paper configurations plus a ten-point ladder for each
    // of the four server eras.
    EXPECT_EQ(grid.size(), 85u);
    std::set<Era> eras;
    for (const auto &cfg : grid)
        eras.insert(cfg.spec->era);
    EXPECT_EQ(eras.size(), allEras().size());
}

TEST(StudyRegistry, FindIsExactMatch)
{
    auto &registry = StudyRegistry::instance();
    EXPECT_EQ(registry.find("no_such_study"), nullptr);
    EXPECT_EQ(registry.find("fig0"), nullptr);
    const Study *fig04 = registry.find("fig04");
    ASSERT_NE(fig04, nullptr);
    EXPECT_EQ(fig04->name(), "fig04");
}

TEST(StudyGrid, DeclaredGridCoversEveryMeasurement)
{
    // Prewarm the union of two studies' grids, then run both: every
    // measure() they issue must be a cache hit. This is the contract
    // `lhrlab run --all` relies on for its single prewarm pass.
    auto &registry = StudyRegistry::instance();
    const std::vector<const Study *> studies = {
        registry.find("fig04"), registry.find("fig05")};
    ASSERT_NE(studies[0], nullptr);
    ASSERT_NE(studies[1], nullptr);

    Lab lab;
    lab.prewarm(unionGrid(studies));
    const CacheStats before = lab.runner().cacheStats();

    std::ostringstream out;
    TextSink sink(out);
    for (const Study *study : studies)
        runStudy(lab, *study, sink);

    const CacheStats after = lab.runner().cacheStats();
    EXPECT_GT(after.hits, before.hits);
    EXPECT_EQ(after.misses, before.misses)
        << "a study measured outside its declared grid";
}

TEST(StudyGrid, PrewarmWarmsStockReferencesNextToOffClockVariants)
{
    // A reference part 5MHz below stock shares the stock config's
    // display label but is a different experiment: prewarm must
    // still warm the stock reference every normalized analysis uses.
    const MachineConfig stock = stockConfig(processorById("i5 (32)"));
    const MachineConfig offClock =
        withClock(stock, stock.clockGhz - 0.005);
    ASSERT_EQ(offClock.label(), stock.label());

    Lab lab;
    lab.prewarm({offClock});
    const uint64_t missesBefore = lab.runner().cacheStats().misses;
    for (const Benchmark &bench : allBenchmarks())
        (void)lab.runner().measure(stock, bench);
    EXPECT_EQ(lab.runner().cacheStats().misses, missesBefore)
        << "the stock reference was not prewarmed";
}

TEST(StudyGrid, UnionGridDeduplicates)
{
    auto &registry = StudyRegistry::instance();
    const Study *fig04 = registry.find("fig04");
    ASSERT_NE(fig04, nullptr);
    const auto once = unionGrid({fig04});
    const auto twice = unionGrid({fig04, fig04});
    EXPECT_EQ(once.size(), fig04->grid().size());
    EXPECT_EQ(twice.size(), once.size());
}

TEST(StudyGolden, Fig04MatchesGoldenBytes)
{
    Lab lab;
    EXPECT_EQ(renderText(lab, "fig04"), goldenFile("fig04"));
}

TEST(StudyGolden, Fig05MatchesGoldenBytes)
{
    Lab lab;
    EXPECT_EQ(renderText(lab, "fig05"), goldenFile("fig05"));
}

TEST(StudyGolden, Table3MatchesGoldenBytes)
{
    Lab lab;
    EXPECT_EQ(renderText(lab, "table3"), goldenFile("table3"));
}

TEST(StudySchedule, SameFilesAndProgressOrderAtOneAndFourThreads)
{
    // Memo-free studies (run before the prewarm) and grid studies
    // (run after it), interleaved in registry order. No
    // ablation_pipesim, so a race-checking build runs this quickly.
    const auto studies = inRegistryOrder(
        {"fig04", "fig05", "table1", "table2", "table3",
         "ablation_os_scaling", "ablation_faults"});
    const std::string root = testing::TempDir() + "lhr_schedule";
    std::filesystem::remove_all(root);
    for (const int threads : {1, 4}) {
        StudyOptions options;
        options.outDir = root + "/j" + std::to_string(threads);
        options.threads = threads;
        Lab lab;
        testing::internal::CaptureStderr();
        const Status ran = runStudies(lab, studies, options);
        const std::string progress = testing::internal::GetCapturedStderr();
        ASSERT_TRUE(ran.ok()) << ran.message();

        // One progress line per study, in registry order, whatever
        // order the studies finished in.
        std::ostringstream expected;
        for (size_t i = 0; i < studies.size(); ++i)
            expected << "[" << i + 1 << "/" << studies.size() << "] "
                     << studies[i]->name() << " -> " << options.outDir
                     << "/" << studies[i]->name() << ".txt\n";
        EXPECT_EQ(progress, expected.str()) << threads << " threads";
    }
    for (const Study *study : studies) {
        const std::string file = "/" + study->name() + ".txt";
        const std::string serial = readFile(root + "/j1" + file);
        EXPECT_FALSE(serial.empty()) << file;
        EXPECT_EQ(readFile(root + "/j4" + file), serial) << file;
    }
    EXPECT_EQ(readFile(root + "/j4/fig05.txt"), goldenFile("fig05"));
    std::filesystem::remove_all(root);
}

TEST(StudySchedule, UnwritableFileNamesTheFirstInRegistryOrder)
{
    // A directory stands where fig05's and table3's reports go, so
    // neither file opens. table3 reads no grid and fails first in
    // time; fig05 comes first in registry order and is the one
    // reported, and no progress line follows fig04's.
    const auto studies =
        inRegistryOrder({"fig04", "fig05", "table1", "table3"});
    const std::string dir = testing::TempDir() + "lhr_unwritable";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir + "/fig05.txt");
    std::filesystem::create_directories(dir + "/table3.txt");

    StudyOptions options;
    options.outDir = dir;
    options.threads = 4;
    Lab lab;
    testing::internal::CaptureStderr();
    const Status ran = runStudies(lab, studies, options);
    const std::string progress = testing::internal::GetCapturedStderr();
    EXPECT_EQ(ran.code(), StatusCode::IoError);
    EXPECT_EQ(ran.message(), "cannot write " + dir + "/fig05.txt");
    EXPECT_EQ(progress, "[1/4] fig04 -> " + dir + "/fig04.txt\n");
    std::filesystem::remove_all(dir);
}

TEST(StudySeed, LabSeedIsConfigurable)
{
    Lab stock;
    EXPECT_EQ(stock.seed(), 0xC0FFEEu);

    Lab other(12345);
    EXPECT_EQ(other.seed(), 12345u);

    // A different seed perturbs measured values; the same seed
    // reproduces them exactly.
    const auto &bench = allBenchmarks().front();
    const auto cfg = stockConfig(processorById("i7 (45)"));
    Lab again(12345);
    EXPECT_EQ(other.measure(cfg, bench).timeSec,
              again.measure(cfg, bench).timeSec);
    EXPECT_NE(stock.measure(cfg, bench).timeSec,
              other.measure(cfg, bench).timeSec);
}

TEST(Study, ForcedSensorReachesEveryRunner)
{
    // ablation_faults measures its faulted rows on runners of its
    // own: "True W" comes from the Lab's runner, "Raw W" and "Rec W"
    // from the study's. Those two columns move with a forced backend
    // only if the backend reaches the study's runners too.
    Lab byEra(builtinSeed);
    Lab rapl(builtinSeed, SensorBackend::Rapl);
    const auto eraRows = csvRows(byEra, "ablation_faults");
    const auto raplRows = csvRows(rapl, "ablation_faults");
    ASSERT_FALSE(eraRows.empty());
    ASSERT_EQ(eraRows.size(), raplRows.size());

    constexpr size_t rawW = 4, recW = 7;
    size_t moved = 0;
    for (size_t r = 0; r < eraRows.size(); ++r) {
        ASSERT_GT(eraRows[r].size(), recW);
        ASSERT_GT(raplRows[r].size(), recW);
        if (eraRows[r][rawW] != raplRows[r][rawW] &&
            eraRows[r][recW] != raplRows[r][recW])
            ++moved;
    }
    EXPECT_GT(moved, eraRows.size() / 2);
}

} // namespace lhr
