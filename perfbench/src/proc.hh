/**
 * @file
 * Child processes of the benchmark: `lhrlab run` and the serve
 * daemon. A Child is owned by exactly one object; destroying a
 * running one terminates and reaps it, so an early return or an
 * exception never leaves a daemon behind.
 */

#ifndef PERFBENCH_PROC_HH
#define PERFBENCH_PROC_HH

#include <sys/types.h>

#include <optional>
#include <string>
#include <vector>

namespace perfbench
{

/** How a child ended, with its own resource usage (from wait4). */
struct ExitInfo
{
    bool exitedNormally = false;
    int exitCode = -1;    ///< valid when exitedNormally
    double maxRssMb = 0;  ///< the child's peak resident set
    double cpuSec = 0;    ///< user + system CPU time

    bool ok() const { return exitedNormally && exitCode == 0; }
};

class Child
{
  public:
    /**
     * Start argv[0] (a path) with stdin from /dev/null and stdout and
     * stderr appended to `log_path`. Throws std::runtime_error when
     * the process cannot be created. The child is killed if the
     * benchmark dies first.
     */
    static Child spawn(const std::vector<std::string> &argv,
                       const std::string &log_path);

    Child() = default;
    ~Child();
    Child(Child &&other) noexcept;
    Child &operator=(Child &&other) noexcept;
    Child(const Child &) = delete;
    Child &operator=(const Child &) = delete;

    bool running() const { return pid > 0; }

    /** Block until the child exits and reap it. */
    ExitInfo wait();

    /** Reap the child if it exits within `seconds`; nullopt otherwise. */
    std::optional<ExitInfo> waitFor(double seconds);

    /** SIGTERM, then SIGKILL after a grace period; always reaps. */
    ExitInfo terminate();

  private:
    explicit Child(pid_t id) : pid(id) {}

    pid_t pid = -1;
};

/** Spawn, wait, and return how the child ended. */
ExitInfo runToCompletion(const std::vector<std::string> &argv,
                         const std::string &log_path);

/** This process's user + system CPU seconds so far. */
double selfCpuSec();

/** This process's peak resident set so far, in MB. */
double selfMaxRssMb();

} // namespace perfbench

#endif // PERFBENCH_PROC_HH
