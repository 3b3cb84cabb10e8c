#include "proc.hh"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace perfbench
{

namespace
{

double
seconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
}

ExitInfo
describe(int status, const rusage &usage)
{
    ExitInfo info;
    info.exitedNormally = WIFEXITED(status);
    if (info.exitedNormally)
        info.exitCode = WEXITSTATUS(status);
    info.maxRssMb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    info.cpuSec = seconds(usage.ru_utime) + seconds(usage.ru_stime);
    return info;
}

} // namespace

Child
Child::spawn(const std::vector<std::string> &argv,
             const std::string &log_path)
{
    if (argv.empty())
        throw std::invalid_argument("Child::spawn: empty argv");
    // Everything the child touches is prepared before fork: after it,
    // only async-signal-safe calls are allowed.
    std::vector<char *> args;
    for (const std::string &arg : argv)
        args.push_back(const_cast<char *>(arg.c_str()));
    args.push_back(nullptr);
    const pid_t parent = getpid();

    const pid_t pid = fork();
    if (pid < 0)
        throw std::runtime_error(std::string("fork: ") +
                                 std::strerror(errno));
    if (pid == 0) {
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (getppid() != parent)
            _exit(127);
        const int in = open("/dev/null", O_RDONLY);
        const int out =
            open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (in < 0 || out < 0)
            _exit(127);
        dup2(in, STDIN_FILENO);
        dup2(out, STDOUT_FILENO);
        dup2(out, STDERR_FILENO);
        execv(args[0], args.data());
        _exit(127);
    }
    return Child(pid);
}

Child::~Child()
{
    if (!running())
        return;
    try {
        terminate();
    } catch (...) {
        // A destructor cannot report a failed reap; the child was
        // already sent SIGKILL, and dies with the benchmark anyway.
    }
}

Child::Child(Child &&other) noexcept : pid(other.pid)
{
    other.pid = -1;
}

Child &
Child::operator=(Child &&other) noexcept
{
    if (this != &other) {
        Child old(pid);
        pid = other.pid;
        other.pid = -1;
    }
    return *this;
}

ExitInfo
Child::wait()
{
    if (!running())
        throw std::logic_error("Child::wait: no child");
    int status = 0;
    rusage usage{};
    while (wait4(pid, &status, 0, &usage) < 0) {
        if (errno != EINTR)
            throw std::runtime_error(std::string("wait4: ") +
                                     std::strerror(errno));
    }
    pid = -1;
    return describe(status, usage);
}

std::optional<ExitInfo>
Child::waitFor(double limit_sec)
{
    if (!running())
        throw std::logic_error("Child::waitFor: no child");
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration<double>(limit_sec);
    for (;;) {
        int status = 0;
        rusage usage{};
        const pid_t done = wait4(pid, &status, WNOHANG, &usage);
        if (done == pid) {
            pid = -1;
            return describe(status, usage);
        }
        if (done < 0 && errno != EINTR)
            throw std::runtime_error(std::string("wait4: ") +
                                     std::strerror(errno));
        if (std::chrono::steady_clock::now() >= deadline)
            return std::nullopt;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

ExitInfo
Child::terminate()
{
    kill(pid, SIGTERM);
    if (auto info = waitFor(5.0))
        return *info;
    kill(pid, SIGKILL);
    return wait();
}

ExitInfo
runToCompletion(const std::vector<std::string> &argv,
                const std::string &log_path)
{
    return Child::spawn(argv, log_path).wait();
}

double
selfCpuSec()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
selfMaxRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace perfbench
