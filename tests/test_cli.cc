/**
 * @file
 * Exit-code and error-path tests of the lhrlab command-line front
 * end, run against the real binary (path baked in by CMake as
 * LHR_LHRLAB_BIN). The contract under test: a command line lhrlab
 * cannot act on exits nonzero with a diagnostic — never the old
 * atoi-style silent success where "--jobs banana" quietly meant
 * something else.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include <sys/wait.h>

namespace
{

struct CliResult
{
    int exitCode = -1;
    std::string output; ///< stdout and stderr, interleaved
};

/** Run lhrlab with `args`; `env` prefixes VAR=value assignments. */
CliResult
runCli(const std::string &args, const std::string &env = "")
{
    const std::string cmd = env + " " + std::string(LHR_LHRLAB_BIN) +
        " " + args + " 2>&1";
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
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_TRUE(mentions(r, "unknown format"));
}

TEST(Cli, NonNumericJobsExitsNonzero)
{
    const CliResult r = runCli("run fig04 --jobs banana");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_TRUE(mentions(r, "--jobs"));
}

TEST(Cli, UnknownRunOptionExitsNonzero)
{
    const CliResult r = runCli("run fig04 --frobnicate");
    EXPECT_EQ(r.exitCode, 1);
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
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_TRUE(mentions(r, "--out"));
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
    EXPECT_EQ(r.exitCode, 1);
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
