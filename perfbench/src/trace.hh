/**
 * @file
 * In-memory spans for the traced benchmark run.
 *
 * A span records one call the benchmark makes into a module of the
 * lab: its name, start and end (seconds on the steady clock since the
 * tracer was created), the span that caused it, and the run it
 * belongs to (a round, a client). Spans stay in memory while the
 * workload runs and are written out once it ends, so tracing adds no
 * I/O to the measured region. A disabled tracer records nothing and
 * costs one branch per call.
 *
 * A Tracer is single-threaded; concurrent clients each own one and
 * the workload absorb()s them after joining.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

/** One recorded span. */
struct Span
{
    std::string name;
    double start = 0.0; ///< seconds since the tracer's epoch
    double end = 0.0;
    int parent = -1;    ///< index into the same span list; -1 = root
    int run = 0;        ///< round or client the span belongs to

    double duration() const { return end - start; }
};

/**
 * Self time of every span: its duration minus the part of its
 * interval that its direct children cover (overlapping children are
 * counted once). One pass over all spans, O(n log n).
 */
std::vector<double> selfTimes(const std::vector<Span> &spans);

class Tracer
{
  public:
    using Clock = std::chrono::steady_clock;

    explicit Tracer(bool enabled, Clock::time_point epoch = Clock::now());

    bool enabled() const { return on; }
    Clock::time_point epoch() const { return base; }

    /** Open a span as a child of the innermost open one; -1 if off. */
    int open(std::string name, int run = 0);

    /** Close the span open() returned (must be the innermost). */
    void close(int id);

    /** Run f inside a span named `name`; returns f's result. */
    template <typename F>
    decltype(auto)
    span(std::string name, F &&f, int run = 0)
    {
        struct Closer
        {
            Tracer &tracer;
            int id;
            ~Closer() { tracer.close(id); }
        } closer{*this, open(std::move(name), run)};
        return std::forward<F>(f)();
    }

    const std::vector<Span> &spans() const { return recorded; }

    /** Append another tracer's spans (same epoch), re-indexing parents. */
    void absorb(const Tracer &other);

    /** Durations of every span named `name`, in recording order. */
    std::vector<double> durations(const std::string &name) const;

    /** Sum of the durations of every span named `name`. */
    double total(const std::string &name) const;

    /** Sum of the self times of every span named `name`. */
    double totalSelf(const std::string &name) const;

    /**
     * Write every span as a JSON array of
     * {"name", "start_s", "end_s", "self_s", "parent", "run"} objects.
     * Returns false when the file cannot be written.
     */
    bool writeJson(const std::string &path) const;

  private:
    bool on;
    Clock::time_point base;
    std::vector<Span> recorded;
    std::vector<int> openStack;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
