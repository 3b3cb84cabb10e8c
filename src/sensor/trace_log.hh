/**
 * @file
 * Power trace logging.
 *
 * The paper's rig logs every 50Hz sensor sample to a host over USB
 * and computes average power offline (§2.5). PowerTraceLogger is
 * that logger: it records the timestamped raw ADC counts and decoded
 * watts of a sampling session and computes the summary statistics a
 * phase analysis needs (mean, extremes, percentiles).
 */

#ifndef LHR_SENSOR_TRACE_LOG_HH
#define LHR_SENSOR_TRACE_LOG_HH

#include <cstddef>
#include <ostream>
#include <vector>

#include "fault/fault.hh"
#include "sensor/sensor.hh"

namespace lhr
{

/** One logged sensor sample. */
struct TraceSample
{
    double timeSec;  ///< time since logging started
    int counts;      ///< raw ADC reading
    double watts;    ///< decoded through the calibration
};

/** Records and summarizes a power sampling session. */
class PowerTraceLogger
{
  public:
    /**
     * Bind to an already-begun sensor session of any backend. The
     * session must outlive the logger.
     */
    explicit PowerTraceLogger(SensorSession &session);

    /**
     * Sample a true power value at a timestamp (the harness calls
     * this at the 50Hz grid), with a fault decision applied. The
     * sensor always converts — a fault consumes the same rng draws
     * as the clean path — and the fault acts on what the logger
     * records: a lost slot is counted but not logged, a railed slot
     * records the channel's rail counts, calibration drift rescales
     * the counts about the zero-current code, duplicates re-log the
     * slot. The default, an empty SampleFault, logs the slot as read.
     */
    void sample(double time_sec, double true_watts, Rng &rng,
                const SampleFault &fault = {});

    /** Slots the logger missed (drops + post-disconnect). */
    size_t lostSamples() const { return lostCount; }

    /** Stale repeats logged beyond the real slots. */
    size_t duplicatedSamples() const { return duplicateCount; }

    /** All samples in arrival order. */
    const std::vector<TraceSample> &samples() const { return log; }

    size_t count() const { return log.size(); }

    /** Mean decoded power; panic()s when empty. */
    double meanW() const;

    /** Extremes of the decoded trace. */
    double minW() const;
    double maxW() const;

    /**
     * Percentile of decoded power in [0, 100]; linear interpolation
     * between order statistics.
     */
    double percentileW(double pct) const;

    /** Emit the trace as CSV (time_s, counts, watts). */
    void writeCsv(std::ostream &os) const;

    /** Drop all samples and reset the fault counters. */
    void clear()
    {
        log.clear();
        lostCount = 0;
        duplicateCount = 0;
    }

  private:
    SensorSession &session;
    std::vector<TraceSample> log;
    size_t lostCount = 0;
    size_t duplicateCount = 0;
};

} // namespace lhr

#endif // LHR_SENSOR_TRACE_LOG_HH
