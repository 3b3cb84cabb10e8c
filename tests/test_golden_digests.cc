/**
 * @file
 * Byte pins of the lab's outputs: reruns the real lhrlab or
 * quickstart binary for each output named in tests/golden/digests.txt
 * and compares the FNV-1a 64 digest and byte length with the recorded
 * ones. The sampled outputs cover both sensor backends — the
 * Hall-sampled paper grid, the same grid forced onto RAPL, and
 * pareto_history, whose server eras sample through RAPL by default —
 * so a sampler change that moves one bit of either backend fails
 * here. The rest pin the default output of every lhrlab command that
 * was once an example program of its own, quickstart's two ways into
 * the library, and the studies that print what three deleted examples
 * printed. On a mismatch the output is kept and its path printed,
 * ready to diff against a checkout that still matches.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>

#include "util/hash.hh"

#ifndef LHR_EXAMPLE_DIR
#error "LHR_EXAMPLE_DIR must point at the built examples"
#endif
#ifndef LHR_GOLDEN_DIR
#error "LHR_GOLDEN_DIR must point at tests/golden"
#endif

namespace
{

struct Digest
{
    uint64_t fnv = 0;
    size_t bytes = 0;
};

/** name -> digest, from digests.txt ('#' starts a comment). */
std::map<std::string, Digest>
recordedDigests()
{
    std::ifstream in(std::string(LHR_GOLDEN_DIR) + "/digests.txt");
    EXPECT_TRUE(in.good()) << "missing tests/golden/digests.txt";
    std::map<std::string, Digest> digests;
    std::string line;
    while (std::getline(in, line)) {
        line = line.substr(0, line.find('#'));
        std::istringstream fields(line);
        std::string name, hex;
        Digest d;
        if (!(fields >> name))
            continue;
        EXPECT_TRUE(fields >> hex >> d.bytes) << "malformed: " << line;
        d.fnv = std::stoull(hex, nullptr, 16);
        digests[name] = d;
    }
    return digests;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

TEST(GoldenDigests, SampledOutputsMatchTheRecordedBytes)
{
    // How each recorded output is produced: a binary and its
    // arguments. With toStdout false the output file's path is the
    // last argument; otherwise stdout is redirected to it.
    const struct
    {
        const char *name;
        const char *command;
        bool toStdout;
    } outputs[] = {
        {"snapshot", "lhrlab snapshot", false},
        {"snapshot_rapl", "lhrlab --sensor rapl snapshot", false},
        {"pareto_history", "lhrlab run pareto_history --format json",
         true},
        {"power_trace", "lhrlab power-trace", true},
        {"power_trace_csv", "lhrlab power-trace gcc --csv", true},
        {"calibrate", "lhrlab calibrate", true},
        {"throttle", "lhrlab throttle", true},
        {"machine", "lhrlab machine", true},
        {"colocate", "lhrlab colocate", true},
        {"quickstart", "quickstart", true},
        {"quickstart_analytics", "quickstart my-analytics", true},
        {"fig07", "lhrlab run fig07 --format json", true},
        {"fig12", "lhrlab run fig12 --format json", true},
        {"table5", "lhrlab run table5 --format json", true},
        {"ablation_meters", "lhrlab run ablation_meters --format json",
         true},
    };

    const auto digests = recordedDigests();
    ASSERT_EQ(digests.size(), std::size(outputs));
    for (const auto &o : outputs) {
        const auto it = digests.find(o.name);
        ASSERT_NE(it, digests.end()) << o.name << " not in digests.txt";

        const std::string out =
            testing::TempDir() + "golden_digest_" + o.name;
        const std::string cmd = std::string(LHR_EXAMPLE_DIR) + "/" +
            o.command + (o.toStdout ? " > " : " ") + out +
            (o.toStdout ? " 2>/dev/null" : " > /dev/null 2>&1");
        ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

        const std::string bytes = readFile(out);
        const Digest got{lhr::fnv1a(bytes), bytes.size()};
        const bool same = got.fnv == it->second.fnv &&
            got.bytes == it->second.bytes;
        EXPECT_TRUE(same)
            << o.name << " (" << o.command << ") changed: "
            << hex64(got.fnv) << " " << got.bytes << " bytes, recorded "
            << hex64(it->second.fnv) << " " << it->second.bytes
            << " bytes; output kept at " << out;
        if (same)
            std::remove(out.c_str());
    }
}
