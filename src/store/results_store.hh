/**
 * @file
 * Measurement persistence and run-to-run comparison.
 *
 * The paper published its complete measurement data as csv companion
 * files so others could re-analyze it. ResultStore is that facility
 * for this laboratory: snapshot a set of measurements to CSV, load
 * them back, and diff two snapshots — the workflow a lab needs when
 * a model change (or, with real hardware, a firmware/kernel change)
 * might silently shift results.
 */

#ifndef LHR_STORE_RESULTS_STORE_HH
#define LHR_STORE_RESULTS_STORE_HH

#include <istream>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "util/status.hh"

namespace lhr
{

/** One stored measurement row. */
struct StoredResult
{
    std::string configLabel;
    std::string benchmark;
    double timeSec;
    double timeCi95Rel;
    double powerW;
    double powerCi95Rel;

    [[nodiscard]] double energyJ() const { return timeSec * powerW; }

    /**
     * The row as a Measurement, for re-seeding a runner's memo
     * cache on resume (SweepOptions::warmStart). Only the four
     * persisted fields carry over; invocation and fault-recovery
     * accounting is not stored, so it comes back zero.
     */
    [[nodiscard]] Measurement toMeasurement() const;

    /**
     * Bitwise equality of the persisted fields — the merge
     * conflict test. Compares exact double bits, not tolerances:
     * two shards of the same seeded sweep agree exactly or one of
     * them is wrong.
     */
    [[nodiscard]] bool sameBits(const StoredResult &other) const;
};

/** A keyed collection of measurements with CSV persistence. */
class ResultStore
{
  public:
    /** Insert or overwrite a row. */
    void put(const StoredResult &row);

    /** Convenience: store a Measurement under its experiment key. */
    void put(const MachineConfig &cfg, const Benchmark &bench,
             const Measurement &m);

    /** Find a row; nullptr when absent. */
    [[nodiscard]] const StoredResult *find(const std::string &config_label,
                             const std::string &benchmark) const;

    [[nodiscard]] size_t size() const { return rows.size(); }

    /** Rows in key order. */
    [[nodiscard]] std::vector<const StoredResult *> all() const;

    /**
     * Union another store into this one. Duplicate keys whose rows
     * are bit-identical are fine (an overlapping re-measurement of
     * the same seeded sweep); a duplicate key with differing bits
     * returns a Conflict naming the row, and this store is left
     * untouched (the check runs before any row is copied).
     */
    [[nodiscard]] Status merge(const ResultStore &other);

    /**
     * Serialize as CSV (stable row order). A row holding a
     * non-finite value returns InvalidArgument before anything is
     * written: the load path rejects NaN/inf fields, so writing
     * them would produce a snapshot save's own reader refuses.
     */
    [[nodiscard]] Status save(std::ostream &os) const;

    /**
     * Serialize to a file atomically: the CSV is written to a
     * sibling temporary and renamed into place, so a crash or a
     * full disk mid-write never leaves a truncated snapshot where a
     * good one (or nothing) used to be. Returns an IoError with the
     * failing path on any filesystem problem.
     */
    [[nodiscard]] Status saveToFile(const std::string &path) const;

    /**
     * Parse a store from CSV as written by save(). A malformed
     * input — wrong header, truncated row, non-numeric or non-finite
     * field, duplicate (config, benchmark) key — returns a
     * line-numbered ParseError instead of a store.
     */
    [[nodiscard]] static Expected<ResultStore> tryLoad(std::istream &is);

    /** tryLoad() on a file; IoError when it cannot be opened. */
    [[nodiscard]] static Expected<ResultStore> tryLoadFile(const std::string &path);

    /**
     * Parse a store from CSV as written by save(). fatal()s on a
     * malformed header or row (a user-supplied file is user input);
     * front ends that want to report instead of exit use tryLoad().
     */
    [[nodiscard]] static ResultStore load(std::istream &is);

  private:
    static std::string key(const std::string &config_label,
                           const std::string &benchmark);

    std::map<std::string, StoredResult> rows;
};

/** One row of a store comparison. */
struct ResultDelta
{
    std::string configLabel;
    std::string benchmark;
    double timeRatio;   ///< after / before
    double powerRatio;
    double energyRatio;
};

/** Outcome of comparing two stores. */
struct StoreComparison
{
    std::vector<ResultDelta> regressions; ///< beyond tolerance
    std::vector<std::string> onlyInBefore;
    std::vector<std::string> onlyInAfter;
    size_t compared = 0;

    [[nodiscard]] bool clean() const
    {
        return regressions.empty() && onlyInBefore.empty() &&
            onlyInAfter.empty();
    }
};

/**
 * Compare two stores: rows whose time or power moved by more than
 * `tolerance` (fractional) are reported as regressions. A ratio
 * that is not finite — a zero or NaN baseline yields inf/NaN, and
 * NaN fails every `>` comparison — is always a regression: a
 * nonsense baseline must never read as a clean run.
 */
[[nodiscard]] StoreComparison compareStores(const ResultStore &before,
                              const ResultStore &after,
                              double tolerance);

} // namespace lhr

#endif // LHR_STORE_RESULTS_STORE_HH
