#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench
{

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    struct Cover
    {
        size_t parent;
        double lo, hi;
        bool operator<(const Cover &o) const
        {
            return parent != o.parent ? parent < o.parent : lo < o.lo;
        }
    };
    std::vector<Cover> covers;
    for (const Span &child : spans) {
        if (child.parent < 0)
            continue;
        const Span &parent = spans.at(static_cast<size_t>(child.parent));
        const double lo = std::max(child.start, parent.start);
        const double hi = std::min(child.end, parent.end);
        if (hi > lo)
            covers.push_back({static_cast<size_t>(child.parent), lo, hi});
    }
    std::sort(covers.begin(), covers.end());

    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].duration();
    size_t i = 0;
    while (i < covers.size()) {
        const size_t parent = covers[i].parent;
        double reach = spans[parent].start;
        for (; i < covers.size() && covers[i].parent == parent; ++i) {
            const double from = std::max(covers[i].lo, reach);
            if (covers[i].hi > from)
                self[parent] -= covers[i].hi - from;
            reach = std::max(reach, covers[i].hi);
        }
    }
    return self;
}

Tracer::Tracer(bool enabled, Clock::time_point epoch)
    : on(enabled), base(epoch)
{
}

int
Tracer::open(std::string name, int run)
{
    if (!on)
        return -1;
    Span span;
    span.name = std::move(name);
    span.parent = openStack.empty() ? -1 : openStack.back();
    span.run = run;
    const int id = static_cast<int>(recorded.size());
    openStack.push_back(id);
    span.start =
        std::chrono::duration<double>(Clock::now() - base).count();
    recorded.push_back(std::move(span));
    return id;
}

void
Tracer::close(int id)
{
    if (id < 0)
        return;
    const double now =
        std::chrono::duration<double>(Clock::now() - base).count();
    if (openStack.empty() || openStack.back() != id)
        throw std::logic_error("perfbench: spans closed out of order");
    openStack.pop_back();
    recorded[static_cast<size_t>(id)].end = now;
}

void
Tracer::absorb(const Tracer &other)
{
    const int offset = static_cast<int>(recorded.size());
    for (Span span : other.recorded) {
        if (span.parent >= 0)
            span.parent += offset;
        recorded.push_back(std::move(span));
    }
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &span : recorded) {
        if (span.name == name)
            out.push_back(span.duration());
    }
    return out;
}

double
Tracer::total(const std::string &name) const
{
    double sum = 0.0;
    for (const Span &span : recorded) {
        if (span.name == name)
            sum += span.duration();
    }
    return sum;
}

double
Tracer::totalSelf(const std::string &name) const
{
    const std::vector<double> self = selfTimes(recorded);
    double sum = 0.0;
    for (size_t i = 0; i < recorded.size(); ++i) {
        if (recorded[i].name == name)
            sum += self[i];
    }
    return sum;
}

bool
Tracer::writeJson(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    const std::vector<double> self = selfTimes(recorded);
    out << "[\n";
    char buf[160];
    for (size_t i = 0; i < recorded.size(); ++i) {
        const Span &span = recorded[i];
        // Span names are benchmark-chosen identifiers; no escaping
        // beyond quotes is needed.
        std::snprintf(buf, sizeof(buf),
                      "\", \"start_s\": %.9f, \"end_s\": %.9f, "
                      "\"self_s\": %.9f, \"parent\": %d, \"run\": %d}",
                      span.start, span.end, self[i],
                      span.parent, span.run);
        out << "  {\"name\": \"" << span.name << buf
            << (i + 1 < recorded.size() ? ",\n" : "\n");
    }
    out << "]\n";
    return static_cast<bool>(out.flush());
}

} // namespace perfbench
