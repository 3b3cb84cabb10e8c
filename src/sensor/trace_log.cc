#include "sensor/trace_log.hh"

#include <algorithm>
#include <cmath>

#include "stats/summary.hh"
#include "util/csv.hh"
#include "util/logging.hh"

namespace lhr
{

PowerTraceLogger::PowerTraceLogger(SensorSession &session_)
    : session(session_)
{
}

void
PowerTraceLogger::sample(double time_sec, double true_watts, Rng &rng,
                         const SampleFault &fault)
{
    // The session always converts (rng draws are consumed as on the
    // clean path); the fault's recording effects act on what the
    // logger keeps: a lost slot is counted but not logged,
    // duplicates re-log the slot.
    const SensorReading r = session.read(true_watts, rng, fault);
    if (fault.lost) {
        ++lostCount;
        return;
    }
    log.push_back({time_sec, r.code, r.watts});
    for (int i = 0; i < fault.extraCopies; ++i) {
        ++duplicateCount;
        log.push_back({time_sec, r.code, r.watts});
    }
}

double
PowerTraceLogger::meanW() const
{
    if (log.empty())
        panic("PowerTraceLogger: empty trace");
    double sum = 0.0;
    for (const auto &sample : log)
        sum += sample.watts;
    return sum / log.size();
}

double
PowerTraceLogger::minW() const
{
    if (log.empty())
        panic("PowerTraceLogger: empty trace");
    double lo = log.front().watts;
    for (const auto &sample : log)
        lo = std::min(lo, sample.watts);
    return lo;
}

double
PowerTraceLogger::maxW() const
{
    if (log.empty())
        panic("PowerTraceLogger: empty trace");
    double hi = log.front().watts;
    for (const auto &sample : log)
        hi = std::max(hi, sample.watts);
    return hi;
}

double
PowerTraceLogger::percentileW(double pct) const
{
    if (log.empty())
        panic("PowerTraceLogger: empty trace");
    if (pct < 0.0 || pct > 100.0)
        panic("PowerTraceLogger: percentile out of range");
    std::vector<double> watts;
    watts.reserve(log.size());
    for (const auto &sample : log)
        watts.push_back(sample.watts);
    return percentileOf(std::move(watts), pct);
}

void
PowerTraceLogger::writeCsv(std::ostream &os) const
{
    CsvWriter csv(os, {"time_s", "counts", "watts"});
    for (const auto &sample : log) {
        csv.beginRow();
        csv.field(sample.timeSec, 3);
        csv.field(static_cast<long>(sample.counts));
        csv.field(sample.watts, 3);
    }
}

} // namespace lhr
