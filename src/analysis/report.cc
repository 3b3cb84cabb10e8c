#include "analysis/report.hh"

#include "util/csv.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace lhr
{

// ---- Sink buffering ---------------------------------------------------

void
Sink::beginTable(const std::string &id, std::vector<SinkColumn> columns,
                 TableStyle style)
{
    if (open)
        panic("Sink: beginTable with a table already open");
    if (columns.empty())
        panic("Sink: table needs at least one column");
    open.emplace();
    open->id = id;
    open->columns = std::move(columns);
    open->style = style;
}

void
Sink::beginRow()
{
    if (!open)
        panic("Sink: beginRow outside a table");
    if (!open->rows.empty() &&
        open->rows.back().size() != open->columns.size()) {
        panic(msgOf("Sink: row has ", open->rows.back().size(),
                    " cells, expected ", open->columns.size()));
    }
    open->rows.emplace_back();
}

void
Sink::cell(const std::string &text)
{
    if (!open || open->rows.empty())
        panic("Sink: cell outside a row");
    if (open->rows.back().size() >= open->columns.size())
        panic("Sink: too many cells in row");
    Cell c;
    c.kind = Cell::Kind::Text;
    c.text = text;
    open->rows.back().push_back(std::move(c));
}

void
Sink::cell(const char *text)
{
    cell(std::string(text));
}

void
Sink::cell(double value, int decimals)
{
    if (!open || open->rows.empty())
        panic("Sink: cell outside a row");
    if (open->rows.back().size() >= open->columns.size())
        panic("Sink: too many cells in row");
    Cell c;
    c.kind = Cell::Kind::Real;
    c.real = value;
    c.decimals = decimals;
    open->rows.back().push_back(std::move(c));
}

void
Sink::cell(long value)
{
    if (!open || open->rows.empty())
        panic("Sink: cell outside a row");
    if (open->rows.back().size() >= open->columns.size())
        panic("Sink: too many cells in row");
    Cell c;
    c.kind = Cell::Kind::Int;
    c.integer = value;
    open->rows.back().push_back(std::move(c));
}

void
Sink::endTable()
{
    if (!open)
        panic("Sink: endTable without beginTable");
    TableData table = std::move(*open);
    open.reset();
    emitTable(table);
}

// ---- TextSink ---------------------------------------------------------

TextSink::TextSink(std::ostream &os)
    : out(os)
{
}

void
TextSink::prose(const std::string &text)
{
    out << text;
}

void
TextSink::emitTable(const TableData &table)
{
    if (table.style == TableStyle::Csv) {
        std::vector<std::string> header;
        for (const auto &col : table.columns)
            header.push_back(col.header);
        CsvWriter csv(out, header);
        for (const auto &row : table.rows) {
            csv.beginRow();
            for (const auto &c : row) {
                switch (c.kind) {
                  case Cell::Kind::Text: csv.field(c.text); break;
                  case Cell::Kind::Real: csv.field(c.real, c.decimals); break;
                  case Cell::Kind::Int: csv.field(c.integer); break;
                }
            }
        }
        return; // ~CsvWriter flushes the last row
    }

    TableWriter writer;
    for (const auto &col : table.columns)
        writer.addColumn(col.header, col.align);
    for (const auto &row : table.rows) {
        writer.beginRow();
        for (const auto &c : row) {
            switch (c.kind) {
              case Cell::Kind::Text: writer.cell(c.text); break;
              case Cell::Kind::Real: writer.cell(c.real, c.decimals); break;
              case Cell::Kind::Int: writer.cell(c.integer); break;
            }
        }
    }
    writer.print(out);
}

// ---- CsvSink ----------------------------------------------------------

CsvSink::CsvSink(std::ostream &os)
    : out(os)
{
}

void
CsvSink::prose(const std::string &)
{
    // CSV artifacts carry the data, not the narration.
}

void
CsvSink::emitTable(const TableData &table)
{
    if (anyTable)
        out << '\n';
    anyTable = true;
    out << "# table " << table.id << '\n';

    std::vector<std::string> header;
    for (const auto &col : table.columns)
        header.push_back(col.header);
    CsvWriter csv(out, header);
    for (const auto &row : table.rows) {
        csv.beginRow();
        for (const auto &c : row) {
            switch (c.kind) {
              case Cell::Kind::Text: csv.field(c.text); break;
              case Cell::Kind::Real: csv.field(c.real, c.decimals); break;
              case Cell::Kind::Int: csv.field(c.integer); break;
            }
        }
    }
}

// ---- JsonSink ---------------------------------------------------------

JsonSink::JsonSink(std::ostream &os, const std::string &study,
                   const std::string &description, uint64_t seed)
    : json(std::make_unique<JsonWriter>(os))
{
    json->beginObject();
    json->key("study").value(study);
    json->key("description").value(description);
    json->key("seed").value(seed);
    json->key("blocks").beginArray();
}

JsonSink::~JsonSink()
{
    close();
}

void
JsonSink::close()
{
    if (closed)
        return;
    closed = true;
    json->endArray();
    json->endObject();
}

void
JsonSink::prose(const std::string &text)
{
    json->beginObject();
    json->key("type").value("prose");
    json->key("text").value(text);
    json->endObject();
}

void
JsonSink::emitTable(const TableData &table)
{
    json->beginObject();
    json->key("type").value("table");
    json->key("id").value(table.id);
    json->key("columns").beginArray();
    for (const auto &col : table.columns)
        json->value(col.header);
    json->endArray();
    json->key("rows").beginArray();
    for (const auto &row : table.rows) {
        json->beginArray();
        for (const auto &c : row) {
            switch (c.kind) {
              case Cell::Kind::Text: json->value(c.text); break;
              case Cell::Kind::Real: json->value(c.real, c.decimals); break;
              case Cell::Kind::Int: json->value(c.integer); break;
            }
        }
        json->endArray();
    }
    json->endArray();
    json->endObject();
}

// ---- grouped-effect layout --------------------------------------------

void
emitGroupedEffects(Sink &sink, const std::string &title,
                   const std::vector<GroupedEffect> &effects)
{
    sink.prose(title + "\n\n(a) average effect\n");
    sink.beginTable("average_effect",
                    {leftColumn(""), {"performance"}, {"power"},
                     {"energy"}});
    for (const auto &e : effects) {
        sink.beginRow();
        sink.cell(e.label);
        sink.cell(e.average.perf, 2);
        sink.cell(e.average.power, 2);
        sink.cell(e.average.energy, 2);
    }
    sink.endTable();

    sink.prose("\n(b) energy effect by workload group\n");
    std::vector<SinkColumn> columns = {leftColumn("")};
    for (const auto group : allGroups())
        columns.push_back({groupName(group)});
    sink.beginTable("group_energy", std::move(columns));
    for (const auto &e : effects) {
        sink.beginRow();
        sink.cell(e.label);
        for (const auto &g : e.byGroup)
            sink.cell(g.energy, 2);
    }
    sink.endTable();
    sink.prose("\n");
}

} // namespace lhr
