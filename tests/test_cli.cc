/**
 * @file
 * Exit-code and error-path tests of the lhrlab command-line front
 * end and the quickstart example, run against the real binaries (their
 * directory baked in by CMake as LHR_EXAMPLE_DIR). The contract under
 * test: a command line that breaks lhrlab's one grammar (unknown
 * command or flag, missing or malformed value, wrong number of
 * arguments) exits 2 with the usage text; a failed lookup or run
 * exits 1 with a `fatal:` line — never the old atoi-style silent
 * success where "--jobs banana" quietly meant something else.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

namespace
{

struct CliResult
{
    int exitCode = -1;
    std::string output; ///< stdout and stderr, interleaved
};

/**
 * Run the example program `name` with `args`; `env` prefixes
 * VAR=value assignments.
 */
CliResult
runExample(const std::string &name, const std::string &args,
           const std::string &env = "")
{
    const std::string cmd = env + " " + std::string(LHR_EXAMPLE_DIR) +
        "/" + name + " " + args + " 2>&1";
    FILE *pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << cmd;
    CliResult result;
    char buf[4096];
    size_t n;
    while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0)
        result.output.append(buf, n);
    const int status = pclose(pipe);
    result.exitCode =
        WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return result;
}

CliResult
runCli(const std::string &args, const std::string &env = "")
{
    return runExample("lhrlab", args, env);
}

bool
mentions(const CliResult &r, const std::string &needle)
{
    return r.output.find(needle) != std::string::npos;
}

/** Write a small fixture file under gtest's temp dir, return path. */
std::string
writeFile(const std::string &name, const std::string &text)
{
    const std::string path = testing::TempDir() + name;
    std::ofstream os(path, std::ios::trunc);
    os << text;
    EXPECT_TRUE(os.good()) << path;
    return path;
}

/** The golden text report of one study (tests/golden/<name>.txt). */
std::string
goldenText(const std::string &name)
{
    const std::string path =
        std::string(LHR_GOLDEN_DIR) + "/" + name + ".txt";
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing golden file " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

const char *const storeHeader =
    "config_key,benchmark,time_s,time_ci95,power_w,power_ci95\n";

} // namespace

TEST(Cli, HelpExitsZeroWithUsage)
{
    const CliResult r = runCli("help");
    EXPECT_EQ(r.exitCode, 0);
    EXPECT_TRUE(mentions(r, "usage: lhrlab"));
}

TEST(Cli, NoArgumentsExitsTwoWithUsage)
{
    const CliResult r = runCli("");
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_TRUE(mentions(r, "usage: lhrlab"));
}

TEST(Cli, UnknownCommandExitsTwoWithUsage)
{
    const CliResult r = runCli("frobnicate");
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_TRUE(mentions(r, "unknown command"));
    EXPECT_TRUE(mentions(r, "frobnicate"));
    EXPECT_TRUE(mentions(r, "usage: lhrlab"));
}

TEST(Cli, MalformedSeedExitsTwo)
{
    const CliResult r = runCli("--seed banana list");
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_TRUE(mentions(r, "--seed"));
    EXPECT_TRUE(mentions(r, "banana"));
}

TEST(Cli, MissingSeedValueExitsTwo)
{
    const CliResult r = runCli("--seed");
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_TRUE(mentions(r, "--seed needs a value"));
}

TEST(Cli, EnvironmentDoesNotChooseSeedOrSensor)
{
    // The seed and the sensor backend are command-line inputs only:
    // a stray variable in the environment can neither abort the CLI
    // nor move a single recorded byte.
    const CliResult sensor = runCli("processors", "LHR_SENSOR=bogus");
    EXPECT_EQ(sensor.exitCode, 0) << sensor.output;

    const CliResult seed =
        runCli("run table3 --format=json", "LHR_SEED=42");
    EXPECT_EQ(seed.exitCode, 0) << seed.output;
    EXPECT_TRUE(mentions(seed, "\"seed\": 12648430")) << seed.output;
}

TEST(Cli, SensorFlagForcesEveryRig)
{
    const CliResult r = runCli("--sensor rapl processors");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    const size_t row = r.output.find("Pentium4 (130)");
    ASSERT_NE(row, std::string::npos) << r.output;
    const std::string line =
        r.output.substr(row, r.output.find('\n', row) - row);
    EXPECT_NE(line.find("rapl"), std::string::npos) << line;
    EXPECT_FALSE(mentions(r, "hall")) << r.output;

    const CliResult bogus = runCli("--sensor bogus processors");
    EXPECT_EQ(bogus.exitCode, 2) << bogus.output;
    EXPECT_TRUE(mentions(bogus, "hall|rapl")) << bogus.output;
}

TEST(Cli, UnknownRunFormatExitsNonzero)
{
    const CliResult r = runCli("run fig04 --format=yaml");
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_TRUE(mentions(r, "unknown format"));
}

TEST(Cli, NonNumericJobsExitsNonzero)
{
    const CliResult r = runCli("run fig04 --jobs banana");
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_TRUE(mentions(r, "--jobs"));
}

TEST(Cli, UnknownRunOptionExitsNonzero)
{
    const CliResult r = runCli("run fig04 --frobnicate");
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_TRUE(mentions(r, "unknown option"));
}

TEST(Cli, UnknownStudyExitsNonzero)
{
    const CliResult r = runCli("run no_such_study");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_TRUE(mentions(r, "unknown study"));
}

TEST(Cli, UnwritableOutDirExitsNonzero)
{
    // /dev/null is a file: creating a directory under it must fail
    // before any artifact write is attempted.
    const CliResult r =
        runCli("run ablation_faults --format=json --out /dev/null/x");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_TRUE(mentions(r, "cannot create"));
}

TEST(Cli, MultiStudyJsonWithoutOutDirExitsNonzero)
{
    const CliResult r = runCli("run --all --format=json");
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_TRUE(mentions(r, "--out"));
}

TEST(Cli, MultiStudyTextIsTheSameAtAnyJobCount)
{
    // Several studies on stdout run concurrently, but each report
    // comes out under its banner in the order named: the bytes of a
    // serial run, which for these three are their goldens. Nothing
    // reaches stderr.
    std::string expected;
    for (const char *name : {"fig04", "table3", "fig05"})
        expected += std::string("=== ") + name + " ===\n" +
            goldenText(name);
    for (const char *jobs : {"1", "4"}) {
        const CliResult r =
            runCli(std::string("run fig04 table3 fig05 --jobs ") + jobs);
        EXPECT_EQ(r.exitCode, 0) << "--jobs " << jobs;
        EXPECT_EQ(r.output, expected) << "--jobs " << jobs;
    }
}

TEST(Cli, EveryCommandRejectsUnknownFlagsAndSurplusArguments)
{
    // A valid command line per command, and one positional argument
    // too many (none for merge, which takes any number of inputs).
    struct Case
    {
        std::string command;
        std::string line;
        std::string surplus;
    };
    const std::string csv = testing::TempDir() + "cli_grammar.csv";
    const std::vector<Case> cases = {
        {"list", "list", "extra"},
        {"run", "run --all", "fig04"},
        {"processors", "processors", "extra"},
        {"benchmarks", "benchmarks nn", "extra"},
        {"configs", "configs", "extra"},
        {"measure", "measure \"i7 (45)\" mcf", "extra"},
        {"aggregate", "aggregate \"i7 (45)\"", "extra"},
        {"counters", "counters \"i7 (45)\" mcf", "extra"},
        {"rate", "rate \"i7 (45)\" mcf", "extra"},
        {"corun", "corun \"i7 (45)\" mcf gcc", "extra"},
        {"snapshot", "snapshot " + csv, "extra"},
        {"merge", "merge " + csv + " /no/such/in.csv", ""},
        {"compare", "compare /no/such/a.csv /no/such/b.csv 0.1", "extra"},
        {"serve", "serve --socket /nonexistent/s.sock", "extra"},
        {"loadgen", "loadgen --socket /nonexistent/s.sock", "extra"},
        {"power-trace", "power-trace gcc --csv", "extra"},
        {"calibrate", "calibrate 42", "extra"},
        {"throttle", "throttle 100 10", "extra"},
        {"machine", "machine /no/such/machine.def", "extra"},
        {"colocate", "colocate", "extra"},
    };

    // The cases cover every command the usage text lists.
    const CliResult help = runCli("help");
    std::istringstream lines(help.output);
    std::string line;
    size_t listed = 0;
    while (std::getline(lines, line)) {
        if (line.size() < 3 || line.rfind("  ", 0) != 0 ||
            !std::islower(static_cast<unsigned char>(line[2])))
            continue;
        const std::string name = line.substr(2, line.find(' ', 2) - 2);
        ++listed;
        EXPECT_TRUE(std::any_of(cases.begin(), cases.end(),
                                [&](const Case &c) {
                                    return c.command == name;
                                }))
            << "no case for " << name;
    }
    EXPECT_EQ(listed, cases.size()) << help.output;

    for (const Case &c : cases) {
        const CliResult flag = runCli(c.line + " --bogus");
        EXPECT_EQ(flag.exitCode, 2) << c.line << "\n" << flag.output;
        EXPECT_TRUE(mentions(flag, "unknown option --bogus"))
            << flag.output;
        if (c.surplus.empty())
            continue;
        const CliResult extra = runCli(c.line + " " + c.surplus);
        EXPECT_EQ(extra.exitCode, 2) << c.line << "\n" << extra.output;
        EXPECT_TRUE(mentions(extra, "usage: lhrlab")) << extra.output;
    }
    std::remove(csv.c_str());
}

TEST(Cli, FlagEqualsValueReadsLikeFlagSpaceValue)
{
    const CliResult spaced =
        runCli("measure \"i7 (45)\" mcf --cores 2 --smt off --clock 1.6");
    const CliResult joined =
        runCli("measure \"i7 (45)\" mcf --cores=2 --smt=off --clock=1.6");
    EXPECT_EQ(spaced.exitCode, 0) << spaced.output;
    EXPECT_EQ(joined.exitCode, 0) << joined.output;
    EXPECT_EQ(joined.output, spaced.output);

    const std::string path = testing::TempDir() + "cli_eq_snapshot.csv";
    const CliResult snapshot =
        runCli("snapshot " + path + " --45nm --shard=1/64 --jobs=1");
    EXPECT_EQ(snapshot.exitCode, 0) << snapshot.output;
    EXPECT_TRUE(mentions(snapshot, "(shard 1/64)")) << snapshot.output;
    std::remove(path.c_str());

    // Nothing can bind or answer at these paths: with the flags read,
    // serve and loadgen fail at run time (exit 1), not in the grammar.
    const CliResult serve = runCli(
        "serve --socket=/nonexistent/dir/s.sock --workers=2 --queue=4");
    EXPECT_EQ(serve.exitCode, 1) << serve.output;
    EXPECT_TRUE(mentions(serve, "fatal: serve:")) << serve.output;
    const CliResult loadgen = runCli(
        "loadgen --socket=/nonexistent/s.sock --clients=1 --requests=1");
    EXPECT_EQ(loadgen.exitCode, 1) << loadgen.output;
    EXPECT_TRUE(mentions(loadgen, "fatal: loadgen:")) << loadgen.output;
}

TEST(Cli, BadMeasureCoresExitsTwo)
{
    const CliResult r =
        runCli("measure \"i7 (45)\" mcf --cores banana");
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_TRUE(mentions(r, "--cores"));
}

TEST(Cli, OutOfRangeMeasureCoresExitsTwo)
{
    const CliResult r =
        runCli("measure \"i7 (45)\" mcf --cores 99");
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_TRUE(mentions(r, "--cores"));
}

TEST(Cli, BadSmtValueExitsTwo)
{
    const CliResult r =
        runCli("measure \"i7 (45)\" mcf --smt maybe");
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_TRUE(mentions(r, "on|off"));
}

TEST(Cli, BadClockValueExitsTwo)
{
    const CliResult r =
        runCli("measure \"i7 (45)\" mcf --clock fast");
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_TRUE(mentions(r, "--clock"));
}

TEST(Cli, DanglingOptionValueExitsTwo)
{
    const CliResult r = runCli("measure \"i7 (45)\" mcf --cores");
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_TRUE(mentions(r, "needs a value"));
}

TEST(Cli, ListNamesIncludesTheFaultStudy)
{
    const CliResult r = runCli("list --names");
    EXPECT_EQ(r.exitCode, 0);
    EXPECT_TRUE(mentions(r, "ablation_faults"));
}

TEST(Cli, CompareRejectsNegativeTolerance)
{
    const CliResult r = runCli("compare a.csv b.csv -0.5");
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_TRUE(mentions(r, "tolerance"));
}

TEST(Cli, CompareMissingFileExitsNonzero)
{
    const CliResult r =
        runCli("compare /no/such/before.csv /no/such/after.csv");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_TRUE(mentions(r, "cannot open"));
}

TEST(Cli, SnapshotRejectsMalformedShardSpec)
{
    const CliResult r = runCli("snapshot out.csv --shard banana");
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_TRUE(mentions(r, "--shard"));
    EXPECT_TRUE(mentions(r, "banana"));
}

TEST(Cli, SnapshotRejectsShardIndexOutOfRange)
{
    const CliResult r = runCli("snapshot out.csv --shard 4/3");
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_TRUE(mentions(r, "--shard"));
    EXPECT_TRUE(mentions(r, "4/3"));
}

TEST(Cli, SnapshotRejectsZeroShardIndex)
{
    const CliResult r = runCli("snapshot out.csv --shard 0/3");
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_TRUE(mentions(r, "1 <= I <= N"));
}

TEST(Cli, SnapshotRejectsMissingShardValue)
{
    const CliResult r = runCli("snapshot out.csv --shard");
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_TRUE(mentions(r, "--shard needs a value"));
}

TEST(Cli, SnapshotRejectsNonNumericCheckpoint)
{
    const CliResult r = runCli("snapshot out.csv --checkpoint banana");
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_TRUE(mentions(r, "--checkpoint"));
}

TEST(Cli, MergeWithoutInputsExitsNonzero)
{
    const CliResult r = runCli("merge out.csv");
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_TRUE(mentions(r, "merge needs"));
}

TEST(Cli, MergeMissingInputExitsNonzero)
{
    const std::string out = testing::TempDir() + "cli_merge_out.csv";
    const CliResult r =
        runCli("merge " + out + " /no/such/shard.csv");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_TRUE(mentions(r, "cannot open"));
}

TEST(Cli, MergeCombinesDisjointShards)
{
    const std::string a = writeFile(
        "cli_merge_a.csv",
        std::string(storeHeader) +
            "atom,gcc,1.000000,0.010000,4.000000,0.100000\n");
    const std::string b = writeFile(
        "cli_merge_b.csv",
        std::string(storeHeader) +
            "i7,gcc,0.500000,0.005000,45.000000,0.900000\n");
    const std::string out = testing::TempDir() + "cli_merge_ab.csv";
    const CliResult r = runCli("merge " + out + " " + a + " " + b);
    EXPECT_EQ(r.exitCode, 0);
    EXPECT_TRUE(mentions(r, "merged 2 stores"));
    EXPECT_TRUE(mentions(r, "2 rows"));
    std::ifstream is(out);
    EXPECT_TRUE(is.good()) << out;
    std::remove(a.c_str());
    std::remove(b.c_str());
    std::remove(out.c_str());
}

TEST(Cli, MergeConflictingShardsExitsNonzero)
{
    const std::string a = writeFile(
        "cli_conflict_a.csv",
        std::string(storeHeader) +
            "atom,gcc,1.000000,0.010000,4.000000,0.100000\n");
    const std::string b = writeFile(
        "cli_conflict_b.csv",
        std::string(storeHeader) +
            "atom,gcc,2.000000,0.010000,4.000000,0.100000\n");
    const std::string out =
        testing::TempDir() + "cli_conflict_out.csv";
    const CliResult r = runCli("merge " + out + " " + a + " " + b);
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_TRUE(mentions(r, "conflict"));
    std::ifstream is(out);
    EXPECT_FALSE(is.good()) << "conflicting merge must not write "
                            << out;
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(Cli, ResumeRefusesALabelKeyedStore)
{
    // A store keyed by the rounded display label can never match a
    // config key: resuming from it must fail loudly, not quietly
    // re-measure the whole grid over it.
    const std::string labelKeyed =
        "config,benchmark,time_s,time_ci95,power_w,power_ci95\n"
        "Atom (45) 1C2T@1.7GHz,gcc,1.000000,0.010000,4.000000,"
        "0.100000\n";
    const std::string path = writeFile("cli_label_keyed.csv", labelKeyed);
    const CliResult r = runCli("snapshot " + path + " --45nm --resume");
    EXPECT_NE(r.exitCode, 0) << r.output;
    EXPECT_TRUE(mentions(r, "config_key")) << r.output;
    std::ifstream is(path);
    const std::string kept((std::istreambuf_iterator<char>(is)),
                           std::istreambuf_iterator<char>());
    EXPECT_EQ(kept, labelKeyed);
    std::remove(path.c_str());
}

TEST(Cli, DeadlineBeyondTheCapExitsTwo)
{
    // 1e13 ms would overflow the daemon's clock arithmetic and shed
    // every request unrun; the CLI refuses it like the wire does.
    const CliResult r =
        runCli("loadgen --socket /nonexistent/s.sock --deadline 1e13");
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_TRUE(mentions(r, "--deadline takes milliseconds")) << r.output;
}

TEST(Cli, ExamplesRejectMistypedArgumentsWithFatal)
{
    // A typo'd argument to the example is a user error, not a bug: it
    // must exit 1 with a fatal: line, neither abort with a panic nor
    // run on a silently substituted default.
    for (const char *args : {"mcf junk", "nosuch"}) {
        const CliResult r = runExample("quickstart", args);
        EXPECT_EQ(r.exitCode, 1) << args << "\n" << r.output;
        EXPECT_TRUE(mentions(r, "fatal: ")) << args << "\n" << r.output;
    }
}

TEST(Cli, MistypedValuesExitTwoAndFailedLookupsExitOne)
{
    // A malformed value breaks the grammar (exit 2 with usage); a
    // well-formed name the lab does not know, or a file it cannot
    // read, is a failed lookup (exit 1 with a fatal: line).
    const struct
    {
        const char *args;
        int exitCode;
        const char *says;
    } cases[] = {
        {"throttle banana", 2, "watts takes a number in 0..1000"},
        {"throttle 100 -1", 2, "seconds: "},
        {"calibrate xyz", 2, "malformed device-seed 'xyz'"},
        {"power-trace nosuch", 1, "fatal: unknown benchmark 'nosuch'"},
        {"machine /nonexistent", 1, "fatal: cannot read /nonexistent"},
    };
    for (const auto &c : cases) {
        const CliResult r = runCli(c.args);
        EXPECT_EQ(r.exitCode, c.exitCode) << c.args << "\n" << r.output;
        EXPECT_TRUE(mentions(r, c.says)) << c.args << "\n" << r.output;
    }
}
