/**
 * @file
 * What every workload of the benchmark shares: its options, the
 * report it fills, and the timing helpers.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench
{

/** Load threads and connections: the load of a 4-vCPU host. */
inline constexpr int loadThreads = 4;

/** The benchmark's command line, resolved. */
struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;  ///< measured time of one run
    bool trace = false;     ///< per-layer run instead of end to end
    std::string lhrlab;     ///< path of the lhrlab binary under test
    std::string work;       ///< scratch directory for outputs and logs
    std::string golden;     ///< the repo's tests/golden (read only)
    std::string contract;   ///< BENCHMARK.json: the metrics to print
};

/** What one run measured and whether the program's outputs held. */
struct Report
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::map<std::string, double> metrics;
    std::vector<std::string> problems; ///< failed output checks
    std::vector<std::string> notes;    ///< human-readable detail lines

    void set(const std::string &name, double value)
    {
        metrics[name] = value;
    }

    /** A failed output check: the run is reported as not correct. */
    void problem(const std::string &what) { problems.push_back(what); }

    void note(const std::string &line) { notes.push_back(line); }

    bool correct() const { return problems.empty(); }
};

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** A whole file's bytes; empty when it cannot be read. */
inline std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

Report runStudies(const Options &options);
Report runGrid(const Options &options);
Report runServe(const Options &options);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
