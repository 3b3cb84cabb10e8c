/**
 * @file
 * The lab's one worker pool: a fixed set of threads draining one
 * mutex-guarded FIFO of tasks.
 *
 * Sweeps hand it runs of cells, pipesim its lanes, and `lhrlab
 * serve` its cold requests (admitted through the bounded,
 * non-blocking trySubmit). Every task is coarse — milliseconds of
 * model evaluation, a simulator lane, or a served request — so one
 * lock around one deque costs nothing next to the work and keeps the
 * pool obviously correct under ThreadSanitizer.
 *
 * Determinism contract: the pool schedules work in a nondeterministic
 * order, so anything executed on it must be order-independent. The
 * experiment harness guarantees this by deriving every experiment's
 * random stream from its own key (see ExperimentRunner).
 */

#ifndef LHR_UTIL_THREAD_POOL_HH
#define LHR_UTIL_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lhr
{

/** A fixed-size FIFO thread pool. */
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
     * Enqueue one task unless `max_queued` tasks are already waiting
     * for a worker (tasks being run do not count). Never blocks: a
     * false return is backpressure the caller must handle, not a
     * condition to wait out. Thread-safe.
     */
    [[nodiscard]] bool trySubmit(std::function<void()> task,
                                 size_t max_queued);

    /**
     * Block until every submitted task has finished, then rethrow
     * the first exception any of them raised (if one did). A
     * throwing task never takes down a worker or loses its
     * siblings' work: the remaining tasks all still run, and the
     * pool stays usable after the rethrow.
     */
    void wait();

    /** Tasks waiting for a worker (racy by nature; observability). */
    [[nodiscard]] size_t queued() const;

    /** Number of worker threads. */
    [[nodiscard]] int threadCount() const { return static_cast<int>(workers.size()); }

    /**
     * The pool size used when none is requested:
     * std::thread::hardware_concurrency() (at least 1). Front ends
     * take an explicit count as a flag (`lhrlab run/snapshot --jobs`).
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
    void workerLoop();
    void drain(); ///< wait() without the rethrow (used by ~ThreadPool)

    mutable std::mutex mutex;
    std::condition_variable workAvailable;
    std::condition_variable allDone;
    std::deque<std::function<void()>> tasks; ///< waiting for a worker
    size_t pendingTasks = 0;   ///< submitted but not yet finished
    bool shuttingDown = false;
    std::exception_ptr firstError; ///< these four guarded by mutex

    std::vector<std::thread> workers; ///< last: they use the above
};

} // namespace lhr

#endif // LHR_UTIL_THREAD_POOL_HH
