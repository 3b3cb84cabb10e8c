/**
 * @file
 * The study framework: every reproduced figure, table, and ablation
 * of the paper as a named, registered Study.
 *
 * A Study couples three things:
 *
 *   - an identity (name(), description()) the front ends list;
 *   - a declared measurement grid (grid()) — the machine
 *     configurations the study will read through the memo cache —
 *     so a driver can union many studies' grids into one parallel
 *     Lab::prewarm pass before anything runs serially;
 *   - the report itself (run()), emitted through a Sink so the same
 *     study renders as the historical console text, CSV, or JSON.
 *
 * Studies register in the global StudyRegistry via explicit
 * registration functions (static initializers would be dropped when
 * the study library is linked statically). Every study runs from
 * the command line as `lhrlab run <study>`.
 */

#ifndef LHR_STUDY_STUDY_HH
#define LHR_STUDY_STUDY_HH

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/report.hh"
#include "machine/processor.hh"
#include "util/status.hh"

namespace lhr
{

class Lab;

/** The artifact format a study run emits. */
enum class OutputFormat
{
    Text,  ///< the historical console layout (byte-identical)
    Csv,   ///< every table as CSV, prose dropped
    Json,  ///< one JSON document per study
};

/** Parse "text" / "csv" / "json"; nullopt otherwise. */
std::optional<OutputFormat> parseOutputFormat(std::string_view text);

/** File extension (without dot) of a format: txt, csv, json. */
const char *outputFormatExtension(OutputFormat format);

/** Everything a running study reports through. */
class ReportContext
{
  public:
    ReportContext(Sink &sink, OutputFormat format, int jobs)
        : sinkRef(sink), fmt(format), jobCount(jobs)
    {
    }

    /** The sink the study writes its prose and tables to. */
    Sink &out() { return sinkRef; }

    /** The format the sink renders (rarely needed by studies). */
    OutputFormat format() const { return fmt; }

    /**
     * Worker threads the study may use for its own compute (the
     * run's --jobs, resolved; at least 1). Output must not depend
     * on it.
     */
    int jobs() const { return jobCount; }

  private:
    Sink &sinkRef;
    OutputFormat fmt;
    int jobCount;
};

/** One reproduced figure, table, or ablation. */
class Study
{
  public:
    Study(std::string name, std::string description,
          std::function<std::vector<MachineConfig>()> grid,
          std::function<void(Lab &, ReportContext &)> run)
        : studyName(std::move(name)),
          studyDescription(std::move(description)),
          gridFn(std::move(grid)), runFn(std::move(run))
    {
    }

    /** Registry key and artifact basename, e.g. "fig04". */
    const std::string &name() const { return studyName; }

    /** One-line description shown by `lhrlab list`. */
    const std::string &description() const { return studyDescription; }

    /**
     * The machine configurations this study measures through the
     * memo cache. A driver that prewarms exactly this grid makes
     * the study's own measurement loop run entirely from cache.
     * Studies whose work bypasses the cache declare an empty grid.
     */
    std::vector<MachineConfig>
    grid() const
    {
        return gridFn ? gridFn() : std::vector<MachineConfig>{};
    }

    /** Compute and report. */
    void run(Lab &lab, ReportContext &ctx) const { runFn(lab, ctx); }

  private:
    std::string studyName;
    std::string studyDescription;
    std::function<std::vector<MachineConfig>()> gridFn;
    std::function<void(Lab &, ReportContext &)> runFn;
};

/**
 * Build a Study from its parts (the usual registration idiom);
 * panics when `run` is empty.
 */
std::unique_ptr<Study> makeStudy(
    std::string name, std::string description,
    std::function<std::vector<MachineConfig>()> grid,
    std::function<void(Lab &, ReportContext &)> run);

/** The process-wide name -> Study table. */
class StudyRegistry
{
  public:
    /** The global registry, with the builtin studies registered. */
    static StudyRegistry &instance();

    /** Register a study; panics on a duplicate name. */
    void add(std::unique_ptr<Study> study);

    /** Look a study up by name; nullptr when absent. */
    const Study *find(const std::string &name) const;

    /** Every registered study, in registration order. */
    std::vector<const Study *> all() const;

  private:
    std::vector<std::unique_ptr<Study>> studies;
    std::map<std::string, size_t> byName;
};

/** Options of a study run (`lhrlab run`'s flags). */
struct StudyOptions
{
    OutputFormat format = OutputFormat::Text;

    /** Artifact directory; empty writes to stdout. */
    std::string outDir;

    /**
     * Worker threads that run the studies, of the prewarm pass, and
     * of studies that parallelize their own compute; 0 = the
     * hardware concurrency.
     */
    int threads = 0;

    /** Skip the prewarm pass (measure serially on demand). */
    bool prewarm = true;
};

/**
 * The union of the studies' declared grids, deduplicated by full
 * configuration identity, configKey() (label() rounds the clock).
 */
std::vector<MachineConfig> unionGrid(
    const std::vector<const Study *> &studies);

/**
 * Run one study into an explicit sink (no prewarm; test seam).
 * `threads` becomes ReportContext::jobs(); 0 = the hardware concurrency.
 */
void runStudy(Lab &lab, const Study &study, Sink &sink,
              OutputFormat format = OutputFormat::Text, int threads = 0);

/**
 * Run studies on one pool of `threads` workers, in two phases: the
 * studies with an empty grid() run concurrently first, then one
 * union-grid prewarm, then the grid studies concurrently. Each study
 * writes straight into `<outDir>/<name>.<ext>`, or into stdout: one
 * study streams there, several are buffered and bannered. Banners,
 * reports and the `[i/N]` stderr progress lines come out in the
 * order of `studies`, the same bytes as a serial run. An IoError
 * when the directory or a file cannot be written, naming the first
 * such file in `studies` order; no output follows that study's.
 * Several csv/json studies need an `outDir`: on stdout their
 * documents would run together.
 */
[[nodiscard]] Status runStudies(Lab &lab,
                                const std::vector<const Study *> &studies,
                                const StudyOptions &options);

/** Register every builtin study (idempotent via instance()). */
void registerBuiltinStudies(StudyRegistry &registry);

} // namespace lhr

#endif // LHR_STUDY_STUDY_HH
