#include "perf_compare.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/json.hh"
#include "util/fp.hh"
#include "util/logging.hh"

namespace lhr
{

namespace
{

bool
endsWith(const std::string &text, const std::string &suffix)
{
    return text.size() >= suffix.size() &&
        text.compare(text.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

std::string
formatNumber(double v)
{
    char buf[64];
    if (!exactZero(v) && (std::fabs(v) >= 1e6 || std::fabs(v) < 1e-3))
        std::snprintf(buf, sizeof(buf), "%.3g", v);
    else
        std::snprintf(buf, sizeof(buf), "%.4g", v);
    return buf;
}

std::string
formatPercent(double rel)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%+.1f%%", 100.0 * rel);
    return buf;
}

} // namespace

double
PerfRecord::metricOr(const std::string &key, double fallback) const
{
    for (const auto &metric : metrics)
        if (metric.first == key)
            return metric.second;
    return fallback;
}

bool
PerfRecord::hasMetric(const std::string &key) const
{
    for (const auto &metric : metrics)
        if (metric.first == key)
            return true;
    return false;
}

Expected<std::vector<PerfRecord>>
parsePerfRecords(const std::string &json_text)
{
    Expected<JsonValue> doc = parseJson(json_text);
    if (!doc.ok())
        return doc.status();
    const JsonValue &root = doc.value();
    if (!root.isArray())
        return Status::error(StatusCode::ParseError,
                             "bench baseline: document is not an "
                             "array of records");

    std::vector<PerfRecord> records;
    records.reserve(root.size());
    for (const JsonValue &entry : root.items()) {
        if (!entry.isObject())
            return Status::error(StatusCode::ParseError,
                                 "bench baseline: record is not an "
                                 "object");
        const JsonValue *name = entry.find("name");
        if (!name || !name->isString())
            return Status::error(StatusCode::ParseError,
                                 "bench baseline: record without a "
                                 "string \"name\"");
        PerfRecord record;
        record.name = name->asString();
        if (const JsonValue *metrics = entry.find("metrics");
            metrics && metrics->isObject()) {
            for (const auto &member : metrics->members()) {
                // The writer emits null for non-finite values; skip
                // those rather than compare garbage.
                if (member.second.isNumber())
                    record.metrics.emplace_back(
                        member.first, member.second.asNumber());
            }
        }
        if (const JsonValue *wall = entry.find("wall_sec");
            wall && wall->isNumber())
            record.metrics.emplace_back("wall_sec",
                                        wall->asNumber());
        records.push_back(std::move(record));
    }
    return records;
}

MetricDirection
metricDirection(const std::string &metric)
{
    // Spread metrics annotate their base metric's noise; they are
    // consumed by the gate, not gated themselves.
    if (endsWith(metric, "_spread_rel"))
        return MetricDirection::Informational;
    if (endsWith(metric, "_per_sec"))
        return MetricDirection::HigherIsBetter;
    return MetricDirection::Informational;
}

bool
PerfComparison::hasRegression() const
{
    return !regressions().empty();
}

std::vector<const PerfDelta *>
PerfComparison::regressions() const
{
    std::vector<const PerfDelta *> out;
    for (const PerfDelta &delta : deltas)
        if (delta.regression())
            out.push_back(&delta);
    return out;
}

PerfComparison
comparePerfRecords(const std::vector<PerfRecord> &before,
                   const std::vector<PerfRecord> &after,
                   double tolerance)
{
    if (tolerance < 0.0)
        panic("comparePerfRecords: negative tolerance");

    const auto findRecord =
        [](const std::vector<PerfRecord> &records,
           const std::string &name) -> const PerfRecord * {
        for (const PerfRecord &record : records)
            if (record.name == name)
                return &record;
        return nullptr;
    };

    PerfComparison cmp;
    for (const PerfRecord &b : after) {
        const PerfRecord *a = findRecord(before, b.name);
        if (!a) {
            cmp.onlyAfter.push_back(b.name);
            continue;
        }
        for (const auto &metric : b.metrics) {
            if (!a->hasMetric(metric.first))
                continue;
            PerfDelta delta;
            delta.record = b.name;
            delta.metric = metric.first;
            delta.before = a->metricOr(metric.first, 0.0);
            delta.after = metric.second;
            delta.direction = metricDirection(metric.first);
            const std::string spreadKey =
                metric.first + "_spread_rel";
            delta.tolerance = std::max(
                {tolerance, a->metricOr(spreadKey, 0.0),
                 b.metricOr(spreadKey, 0.0)});
            cmp.deltas.push_back(std::move(delta));
        }
    }
    for (const PerfRecord &a : before)
        if (!findRecord(after, a.name))
            cmp.onlyBefore.push_back(a.name);
    return cmp;
}

std::string
perfTableMarkdown(const PerfComparison &cmp, const std::string &title)
{
    std::string out = "### " + title + "\n\n";
    out += "| record | metric | before | after | delta | gate |\n";
    out += "|---|---|---:|---:|---:|---|\n";
    for (const PerfDelta &delta : cmp.deltas) {
        std::string gate = " ";
        if (delta.direction == MetricDirection::HigherIsBetter) {
            if (delta.regression())
                gate = "**FAIL** (tol " +
                    formatPercent(-delta.tolerance) + ")";
            else
                gate = "ok (tol " + formatPercent(-delta.tolerance) +
                    ")";
        }
        out += "| " + delta.record + " | " + delta.metric + " | " +
            formatNumber(delta.before) + " | " +
            formatNumber(delta.after) + " | " +
            formatPercent(delta.deltaRel()) + " | " + gate + " |\n";
    }
    for (const std::string &name : cmp.onlyBefore)
        out += "| " + name +
            " | — | — | *(record removed)* | | not gated |\n";
    for (const std::string &name : cmp.onlyAfter)
        out += "| " + name +
            " | — | *(new record)* | — | | not gated |\n";
    out += "\n";
    return out;
}

} // namespace lhr
