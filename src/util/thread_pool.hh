/**
 * @file
 * A small work-stealing thread pool.
 *
 * Each worker owns a deque of tasks; submission distributes tasks
 * round-robin across the workers, a worker pops from the front of
 * its own deque and, when empty, steals from the back of a
 * neighbour's. The pool exists to fan the (configuration, benchmark)
 * experiment grid out across cores: tasks are coarse (one experiment
 * each, milliseconds of model evaluation), so a mutex per deque is
 * cheap relative to the work and keeps the implementation obviously
 * correct under ThreadSanitizer.
 *
 * Determinism contract: the pool schedules work in a nondeterministic
 * order, so anything executed on it must be order-independent. The
 * experiment harness guarantees this by deriving every experiment's
 * random stream from its own key (see ExperimentRunner).
 */

#ifndef LHR_UTIL_THREAD_POOL_HH
#define LHR_UTIL_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace lhr
{

/** A fixed-size work-stealing thread pool. */
class ThreadPool
{
  public:
    /**
     * Start the workers.
     *
     * @param threads worker count; 0 means defaultThreadCount()
     */
    explicit ThreadPool(int threads = 0);

    /** Drains outstanding work, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one task. Thread-safe. */
    void submit(std::function<void()> task);

    /**
     * Block until every submitted task has finished, then rethrow
     * the first exception any of them raised (if one did). A
     * throwing task never takes down a worker or loses its
     * siblings' work: the remaining tasks all still run, and the
     * pool stays usable after the rethrow.
     */
    void wait();

    /** Number of worker threads. */
    [[nodiscard]] int threadCount() const { return static_cast<int>(workers.size()); }

    /**
     * The pool size used when none is requested: the LHR_THREADS
     * environment variable when set to a positive integer, otherwise
     * std::thread::hardware_concurrency() (at least 1).
     */
    [[nodiscard]] static int defaultThreadCount();

    /**
     * Run fn(0) .. fn(n-1) across the pool and wait for all of them.
     * Iterations must be independent; they run in arbitrary order on
     * arbitrary workers. Rethrows like wait() if an iteration threw.
     * Called from inside one of this pool's own tasks, it runs the
     * iterations inline on that worker instead (waiting on the pool
     * from a task it is running would never return).
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn);

  private:
    struct WorkerQueue
    {
        std::mutex mutex;
        std::deque<std::function<void()>> tasks;
    };

    void workerLoop(size_t index);
    bool popTask(size_t index, std::function<void()> &task);
    void drain(); ///< wait() without the rethrow (used by ~ThreadPool)

    std::vector<std::unique_ptr<WorkerQueue>> queues;
    std::vector<std::thread> workers;

    std::mutex sleepMutex;
    std::condition_variable workAvailable;
    std::condition_variable allDone;
    size_t queuedTasks = 0;    ///< tasks sitting in deques
    size_t pendingTasks = 0;   ///< submitted but not yet finished
    bool shuttingDown = false; ///< all three guarded by sleepMutex
    std::exception_ptr firstError; ///< guarded by sleepMutex
    std::atomic<size_t> nextQueue{0};
};

} // namespace lhr

#endif // LHR_UTIL_THREAD_POOL_HH
