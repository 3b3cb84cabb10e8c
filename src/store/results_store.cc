#include "store/results_store.hh"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "util/csv.hh"
#include "util/fp.hh"
#include "util/logging.hh"

namespace lhr
{

namespace
{

// Written by save() and required by tryLoad(). The first column is
// configKey(), the exact identity.
const char *const storeHeader =
    "config_key,benchmark,time_s,time_ci95,power_w,power_ci95";

bool
finiteRow(const StoredResult &row)
{
    return std::isfinite(row.timeSec) &&
        std::isfinite(row.timeCi95Rel) && std::isfinite(row.powerW) &&
        std::isfinite(row.powerCi95Rel);
}

} // namespace

Measurement
StoredResult::toMeasurement() const
{
    Measurement m;
    m.timeSec = timeSec;
    m.timeCi95Rel = timeCi95Rel;
    m.powerW = powerW;
    m.powerCi95Rel = powerCi95Rel;
    return m;
}

bool
StoredResult::sameBits(const StoredResult &other) const
{
    return exactlyEqual(timeSec, other.timeSec) &&
        exactlyEqual(timeCi95Rel, other.timeCi95Rel) &&
        exactlyEqual(powerW, other.powerW) &&
        exactlyEqual(powerCi95Rel, other.powerCi95Rel);
}

std::string
ResultStore::key(const std::string &config, const std::string &benchmark)
{
    return config + "\x1f" + benchmark;
}

void
ResultStore::put(const StoredResult &row)
{
    rows[key(row.config, row.benchmark)] = row;
}

void
ResultStore::put(const MachineConfig &cfg, const Benchmark &bench,
                 const Measurement &m)
{
    put({configKey(cfg), bench.name, m.timeSec, m.timeCi95Rel, m.powerW,
         m.powerCi95Rel});
}

const StoredResult *
ResultStore::find(const std::string &config,
                  const std::string &benchmark) const
{
    const auto it = rows.find(key(config, benchmark));
    return it == rows.end() ? nullptr : &it->second;
}

std::vector<const StoredResult *>
ResultStore::all() const
{
    std::vector<const StoredResult *> out;
    out.reserve(rows.size());
    for (const auto &[k, row] : rows)
        out.push_back(&row);
    return out;
}

Status
ResultStore::merge(const ResultStore &other)
{
    // Validate-then-apply: a conflict anywhere leaves this store
    // exactly as it was, so a failed merge of N shard files never
    // produces a half-merged archive.
    for (const auto &[k, row] : other.rows) {
        const auto it = rows.find(k);
        if (it != rows.end() && !it->second.sameBits(row)) {
            return Status::error(
                StatusCode::Conflict,
                "stores disagree on '" + row.config + "' / '" +
                    row.benchmark + "'");
        }
    }
    for (const auto &[k, row] : other.rows)
        rows[k] = row;
    return Status();
}

Status
ResultStore::save(std::ostream &os) const
{
    // Reject poisoned rows before emitting anything: tryLoad()
    // refuses non-finite fields, so writing them would produce a
    // snapshot this store's own reader cannot read back.
    for (const auto &[k, row] : rows) {
        if (!finiteRow(row)) {
            return Status::error(
                StatusCode::InvalidArgument,
                "non-finite measurement for '" + row.config +
                    "' / '" + row.benchmark + "'");
        }
    }
    CsvWriter csv(os, splitCsvLine(storeHeader));
    for (const auto &[k, row] : rows) {
        csv.beginRow();
        csv.field(row.config);
        csv.field(row.benchmark);
        csv.field(row.timeSec, 6);
        csv.field(row.timeCi95Rel, 6);
        csv.field(row.powerW, 6);
        csv.field(row.powerCi95Rel, 6);
    }
    return Status();
}

Status
ResultStore::saveToFile(const std::string &path) const
{
    // Temp-then-rename: a reader (or a crash) never observes a
    // half-written snapshot under the final name.
    const std::string temp = path + ".tmp";
    {
        std::ofstream os(temp, std::ios::trunc);
        if (!os) {
            return Status::error(StatusCode::IoError,
                                 "cannot write '" + temp + "'");
        }
        const Status written = save(os);
        if (!written.ok()) {
            os.close();
            std::remove(temp.c_str());
            return written;
        }
        os.flush();
        if (!os) {
            os.close();
            std::remove(temp.c_str());
            return Status::error(StatusCode::IoError,
                                 "write to '" + temp + "' failed");
        }
    }
    if (std::rename(temp.c_str(), path.c_str()) != 0) {
        std::remove(temp.c_str());
        return Status::error(StatusCode::IoError,
                             "cannot rename '" + temp + "' to '" +
                                 path + "'");
    }
    return Status();
}

Expected<ResultStore>
ResultStore::tryLoad(std::istream &is)
{
    // CRLF-tolerant line reader: drop the '\r' getline leaves behind
    // on files written or edited on Windows.
    auto getLine = [&is](std::string &line) -> bool {
        if (!std::getline(is, line))
            return false;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        return true;
    };

    std::string line;
    // A file keyed by the rounded display label (header
    // "config,...") is refused rather than loaded: none of its rows
    // can match a configKey(), so a resume would silently re-measure
    // everything and a merge would keep two names for one row.
    if (!getLine(line) || line != storeHeader) {
        return Status::error(StatusCode::ParseError,
                             msgOf("line 1: expected header '",
                                   storeHeader, "'"));
    }

    ResultStore store;
    size_t lineNo = 1;
    while (getLine(line)) {
        ++lineNo;
        if (line.empty())
            continue;
        const auto fields = splitCsvLine(line);
        if (fields.size() != 6) {
            return Status::error(
                StatusCode::ParseError,
                msgOf("line ", lineNo, " has ", fields.size(),
                      " fields, expected 6"));
        }
        StoredResult row;
        // splitCsvLine already trimmed unquoted fields and kept
        // quoted ones verbatim; trimming again here would corrupt a
        // quoted key whose whitespace is significant.
        row.config = fields[0];
        row.benchmark = fields[1];
        double *const numbers[4] = {&row.timeSec, &row.timeCi95Rel,
                                    &row.powerW, &row.powerCi95Rel};
        for (int f = 0; f < 4; ++f) {
            Expected<double> parsed = parseCsvNumber(fields[2 + f]);
            if (!parsed.ok()) {
                return Status::error(
                    StatusCode::ParseError,
                    msgOf("line ", lineNo, ": ",
                          parsed.status().message()));
            }
            *numbers[f] = parsed.value();
        }
        if (store.find(row.config, row.benchmark)) {
            return Status::error(
                StatusCode::ParseError,
                msgOf("line ", lineNo, ": duplicate row for '",
                      row.config, "' / '", row.benchmark, "'"));
        }
        store.put(row);
    }
    return store;
}

Expected<ResultStore>
ResultStore::tryLoadFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is) {
        return Status::error(StatusCode::IoError,
                             "cannot open '" + path + "'");
    }
    Expected<ResultStore> store = tryLoad(is);
    if (!store.ok()) {
        return Status::error(store.status().code(),
                             path + ": " + store.status().message());
    }
    return store;
}

StoreComparison
compareStores(const ResultStore &before, const ResultStore &after,
              double tolerance)
{
    if (tolerance < 0.0)
        panic("compareStores: negative tolerance");

    StoreComparison cmp;
    for (const auto *row : before.all()) {
        const StoredResult *other = after.find(row->config, row->benchmark);
        if (!other) {
            cmp.onlyInBefore.push_back(row->config + " / " +
                                       row->benchmark);
            continue;
        }
        ++cmp.compared;
        const double timeRatio = other->timeSec / row->timeSec;
        const double powerRatio = other->powerW / row->powerW;
        // A zero or NaN baseline makes a ratio inf/NaN; NaN fails
        // every `>` comparison, so without the isfinite test a real
        // regression against a nonsense baseline reads as clean.
        const bool suspect = !std::isfinite(timeRatio) ||
            !std::isfinite(powerRatio);
        if (suspect || std::fabs(timeRatio - 1.0) > tolerance ||
            std::fabs(powerRatio - 1.0) > tolerance) {
            cmp.regressions.push_back(
                {row->config, row->benchmark, timeRatio,
                 powerRatio, other->energyJ() / row->energyJ()});
        }
    }
    for (const auto *row : after.all()) {
        if (!before.find(row->config, row->benchmark))
            cmp.onlyInAfter.push_back(row->config + " / " +
                                      row->benchmark);
    }
    return cmp;
}

} // namespace lhr
