/**
 * @file
 * Structured study reporting.
 *
 * Every study emits the same logical stream — prose paragraphs and
 * tables of typed cells — through a Sink. The sink decides the
 * artifact format:
 *
 *   TextSink  renders the paper's human-readable console layout
 *             (aligned tables via TableWriter, CSV-style tables via
 *             CsvWriter, prose verbatim) — byte-identical to the
 *             historical per-figure binaries;
 *   CsvSink   emits every table as CSV (prose dropped, tables
 *             separated by `# table <id>` comment lines);
 *   JsonSink  emits one JSON document with every block, keeping
 *             numeric cells as numbers.
 *
 * The paper's feature figures all share a two-panel layout —
 * (a) average performance/power/energy ratios, (b) per-group energy
 * ratios — provided here as emitGroupedEffects().
 */

#ifndef LHR_ANALYSIS_REPORT_HH
#define LHR_ANALYSIS_REPORT_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/features.hh"
#include "util/table.hh"

namespace lhr
{

class JsonWriter;

/** How a table renders in text mode. */
enum class TableStyle
{
    Aligned,  ///< TableWriter console layout
    Csv,      ///< comma-separated (the paper's companion-data style)
};

/** One declared column of a sink table. */
struct SinkColumn
{
    std::string header;
    TableWriter::Align align = TableWriter::Align::Right;
};

/** Left-aligned column shorthand. */
inline SinkColumn
leftColumn(const std::string &header)
{
    return {header, TableWriter::Align::Left};
}

/**
 * A structured output consumer. Studies call prose() and the
 * beginTable/beginRow/cell/endTable sequence; subclasses receive
 * complete tables through emitTable().
 */
class Sink
{
  public:
    virtual ~Sink() = default;

    /** Free-form text (text sinks print it verbatim). */
    virtual void prose(const std::string &text) = 0;

    /** Open a table; `id` names the machine-readable artifact. */
    void beginTable(const std::string &id,
                    std::vector<SinkColumn> columns,
                    TableStyle style = TableStyle::Aligned);

    /** Begin a row of the open table. */
    void beginRow();

    /** Append a text cell. */
    void cell(const std::string &text);
    void cell(const char *text);

    /** Append a numeric cell with fixed decimal places. */
    void cell(double value, int decimals = 2);

    /** Append an integer cell. */
    void cell(long value);

    /** Close and emit the open table. */
    void endTable();

    /** Finish the document (JSON closes its root object here). */
    virtual void close() {}

  protected:
    /** One typed cell: text, fixed-decimal real, or integer. */
    struct Cell
    {
        enum class Kind { Text, Real, Int };

        Kind kind;
        std::string text;
        double real = 0.0;
        int decimals = 0;
        long integer = 0;
    };

    /** A complete table handed to emitTable(). */
    struct TableData
    {
        std::string id;
        std::vector<SinkColumn> columns;
        TableStyle style = TableStyle::Aligned;
        std::vector<std::vector<Cell>> rows;
    };

    virtual void emitTable(const TableData &table) = 0;

  private:
    std::optional<TableData> open;
};

/** Renders the historical console output. */
class TextSink : public Sink
{
  public:
    explicit TextSink(std::ostream &os);

    void prose(const std::string &text) override;

  protected:
    void emitTable(const TableData &table) override;

  private:
    std::ostream &out;
};

/** Emits every table as CSV; prose is dropped. */
class CsvSink : public Sink
{
  public:
    explicit CsvSink(std::ostream &os);

    void prose(const std::string &text) override;

  protected:
    void emitTable(const TableData &table) override;

  private:
    std::ostream &out;
    bool anyTable = false;
};

/** Emits one JSON document with every prose and table block. */
class JsonSink : public Sink
{
  public:
    /**
     * Opens the document. `study`/`description` identify the
     * producer; `seed` records the experiment seed the numbers were
     * generated under.
     */
    JsonSink(std::ostream &os, const std::string &study,
             const std::string &description, uint64_t seed);
    ~JsonSink() override;

    void prose(const std::string &text) override;
    void close() override;

  protected:
    void emitTable(const TableData &table) override;

  private:
    std::unique_ptr<JsonWriter> json;
    bool closed = false;
};

/**
 * Emit a feature study in the paper's figure layout: panel (a) with
 * the average perf/power/energy ratios per subject, panel (b) with
 * the per-group energy ratios.
 */
void emitGroupedEffects(Sink &sink, const std::string &title,
                        const std::vector<GroupedEffect> &effects);

} // namespace lhr

#endif // LHR_ANALYSIS_REPORT_HH
