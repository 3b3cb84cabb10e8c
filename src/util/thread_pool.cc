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

    queues.reserve(threads);
    for (int i = 0; i < threads; ++i)
        queues.push_back(std::make_unique<WorkerQueue>());
    workers.reserve(threads);
    for (int i = 0; i < threads; ++i)
        workers.emplace_back(
            [this, i] { workerLoop(static_cast<size_t>(i)); });
}

ThreadPool::~ThreadPool()
{
    drain();
    {
        std::lock_guard<std::mutex> lock(sleepMutex);
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
    }
    {
        std::lock_guard<std::mutex> lock(sleepMutex);
        shuttingDown = true;
    }
    workAvailable.notify_all();
    for (auto &worker : workers)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    const size_t slot =
        nextQueue.fetch_add(1, std::memory_order_relaxed) %
        queues.size();
    {
        std::lock_guard<std::mutex> lock(queues[slot]->mutex);
        queues[slot]->tasks.push_back(std::move(task));
    }
    {
        std::lock_guard<std::mutex> lock(sleepMutex);
        ++queuedTasks;
        ++pendingTasks;
    }
    workAvailable.notify_one();
}

bool
ThreadPool::popTask(size_t index, std::function<void()> &task)
{
    // Own queue first (front: oldest local work), then steal from the
    // back of the others, starting at the right-hand neighbour so
    // thieves spread out instead of all raiding worker 0.
    const size_t n = queues.size();
    for (size_t k = 0; k < n; ++k) {
        WorkerQueue &q = *queues[(index + k) % n];
        std::lock_guard<std::mutex> lock(q.mutex);
        if (q.tasks.empty())
            continue;
        if (k == 0) {
            task = std::move(q.tasks.front());
            q.tasks.pop_front();
        } else {
            task = std::move(q.tasks.back());
            q.tasks.pop_back();
        }
        return true;
    }
    return false;
}

void
ThreadPool::workerLoop(size_t index)
{
    currentPool = this;
    for (;;) {
        std::function<void()> task;
        if (popTask(index, task)) {
            {
                std::lock_guard<std::mutex> lock(sleepMutex);
                --queuedTasks;
            }
            // A throwing task must neither kill this worker
            // (std::terminate) nor stall the batch: capture the
            // first exception for wait() to rethrow and keep
            // draining, so sibling tasks still complete.
            try {
                task();
            } catch (...) {
                std::lock_guard<std::mutex> lock(sleepMutex);
                if (!firstError)
                    firstError = std::current_exception();
            }
            size_t left;
            {
                std::lock_guard<std::mutex> lock(sleepMutex);
                left = --pendingTasks;
            }
            if (left == 0)
                allDone.notify_all();
            continue;
        }
        std::unique_lock<std::mutex> lock(sleepMutex);
        // queuedTasks can be momentarily stale (another worker popped
        // but has not decremented yet); the predicate re-checks after
        // every wakeup, so the worst case is one extra scan.
        workAvailable.wait(lock, [this] {
            return shuttingDown || queuedTasks > 0;
        });
        if (shuttingDown && queuedTasks == 0)
            return;
    }
}

void
ThreadPool::drain()
{
    std::unique_lock<std::mutex> lock(sleepMutex);
    allDone.wait(lock, [this] { return pendingTasks == 0; });
}

void
ThreadPool::wait()
{
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(sleepMutex);
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
