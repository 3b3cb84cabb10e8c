#include "util/thread_pool.hh"

#include <cstdlib>
#include <string>

#include "util/logging.hh"

namespace lhr
{

namespace
{

/** The pool whose worker is running on this thread, if any. */
thread_local const ThreadPool *currentPool = nullptr;

} // namespace

int
ThreadPool::defaultThreadCount()
{
    if (const char *env = std::getenv("LHR_THREADS")) {
        char *end = nullptr;
        const long n = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && n > 0 && n <= 1024)
            return static_cast<int>(n);
        warn("LHR_THREADS='" + std::string(env) +
             "' is not a positive integer; ignoring");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int threads)
{
    if (threads < 0)
        panic(msgOf("ThreadPool: negative thread count ", threads));
    if (threads == 0)
        threads = defaultThreadCount();

    workers.reserve(threads);
    for (int i = 0; i < threads; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    drain();
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (firstError) {
            // A task failed and nobody called wait() to collect the
            // error; surface it rather than swallowing it silently
            // (throwing from a destructor is not an option).
            try {
                std::rethrow_exception(firstError);
            } catch (const std::exception &e) {
                warn(std::string("ThreadPool: uncollected task "
                                 "error: ") + e.what());
            } catch (...) {
                warn("ThreadPool: uncollected non-standard task "
                     "exception");
            }
            firstError = nullptr;
        }
        shuttingDown = true;
    }
    workAvailable.notify_all();
    for (auto &worker : workers)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        tasks.push_back(std::move(task));
        ++pendingTasks;
    }
    workAvailable.notify_one();
}

bool
ThreadPool::trySubmit(std::function<void()> task, size_t max_queued)
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (tasks.size() >= max_queued)
            return false;
        tasks.push_back(std::move(task));
        ++pendingTasks;
    }
    workAvailable.notify_one();
    return true;
}

size_t
ThreadPool::queued() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return tasks.size();
}

void
ThreadPool::workerLoop()
{
    currentPool = this;
    for (;;) {
        std::exception_ptr error;
        {
            std::function<void()> task;
            {
                std::unique_lock<std::mutex> lock(mutex);
                workAvailable.wait(lock, [this] {
                    return shuttingDown || !tasks.empty();
                });
                if (tasks.empty())
                    return; // shutting down, nothing left to run
                task = std::move(tasks.front());
                tasks.pop_front();
            }
            // A throwing task must neither kill this worker
            // (std::terminate) nor stall the batch: capture the
            // first exception for wait() to rethrow and keep
            // draining, so sibling tasks still complete.
            try {
                task();
            } catch (...) {
                error = std::current_exception();
            }
        } // the task and its captures die before it counts as done
        std::lock_guard<std::mutex> lock(mutex);
        if (error && !firstError)
            firstError = error;
        if (--pendingTasks == 0)
            allDone.notify_all();
    }
}

void
ThreadPool::drain()
{
    std::unique_lock<std::mutex> lock(mutex);
    allDone.wait(lock, [this] { return pendingTasks == 0; });
}

void
ThreadPool::wait()
{
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(mutex);
        allDone.wait(lock, [this] { return pendingTasks == 0; });
        error = firstError;
        firstError = nullptr;
    }
    if (error)
        std::rethrow_exception(error);
}

void
ThreadPool::parallelFor(size_t n, const std::function<void(size_t)> &fn)
{
    if (currentPool == this) {
        // Called from one of our own tasks: wait() would count that
        // task as pending and never return, so run the iterations
        // here, with wait()'s run-all-then-rethrow-first contract.
        std::exception_ptr error;
        for (size_t i = 0; i < n; ++i) {
            try {
                fn(i);
            } catch (...) {
                if (!error)
                    error = std::current_exception();
            }
        }
        if (error)
            std::rethrow_exception(error);
        return;
    }
    for (size_t i = 0; i < n; ++i)
        submit([&fn, i] { fn(i); });
    wait();
}

} // namespace lhr
