#include "lint.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

namespace lhrlint
{

namespace
{

const char *const ruleIds[] = {
    "det-random",   "det-clock",              "det-unordered",
    "header-guard", "using-namespace-header", "bare-allow",
};

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool
isSpace(char c)
{
    return std::isspace(static_cast<unsigned char>(c));
}

size_t
skipWs(const std::string &s, size_t i)
{
    while (i < s.size() && isSpace(s[i]))
        ++i;
    return i;
}

/** Identifier starting at i, or empty. */
std::string
identAt(const std::string &s, size_t i)
{
    if (i >= s.size() || !isIdentChar(s[i]) ||
        std::isdigit(static_cast<unsigned char>(s[i])))
        return "";
    size_t e = i;
    while (e < s.size() && isIdentChar(s[e]))
        ++e;
    return s.substr(i, e - i);
}

/** Is s[pos..pos+name.size()) the whole identifier `name`? */
bool
wholeIdentAt(const std::string &s, size_t pos, const std::string &name)
{
    if (pos > 0 && isIdentChar(s[pos - 1]))
        return false;
    const size_t end = pos + name.size();
    if (end < s.size() && isIdentChar(s[end]))
        return false;
    return true;
}

bool
hasSuffix(const std::string &text, const std::string &suffix)
{
    return text.size() >= suffix.size() &&
        text.compare(text.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

bool
isHeaderPath(const std::string &path)
{
    return hasSuffix(path, ".hh") || hasSuffix(path, ".h");
}

bool
isInlinePath(const std::string &path)
{
    return hasSuffix(path, ".inl");
}

std::string
normalizePath(const std::string &path)
{
    std::string p = path;
    while (p.rfind("./", 0) == 0)
        p.erase(0, 2);
    return p;
}

/** Lines (1-based index 0 unused) of one view, split on '\n'. */
std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines(1); // [0] unused
    std::string current;
    for (const char c : text) {
        if (c == '\n') {
            lines.push_back(current);
            current.clear();
        } else {
            current += c;
        }
    }
    lines.push_back(current);
    return lines;
}

/** Raw-text line starts with '#' (preprocessor), ignoring blanks. */
bool
isPreprocessorLine(const std::string &line)
{
    const size_t i = skipWs(line, 0);
    return i < line.size() && line[i] == '#';
}

struct DetNeedle
{
    const char *name;
    bool requiresCall; ///< only a finding when followed by '('
    const char *rule;
    const char *message;
};

const DetNeedle detNeedles[] = {
    {"rand", true, "det-random",
     "rand() is seeded process-globally; draw from util/rng streams "
     "derived from the experiment key"},
    {"srand", true, "det-random",
     "srand() reseeds process-global state; use util/rng"},
    {"drand48", true, "det-random",
     "drand48() is nondeterministic across runs; use util/rng"},
    {"random_device", false, "det-random",
     "std::random_device draws entropy the next run cannot "
     "reproduce; use util/rng seeded from the experiment key"},
    {"random_shuffle", false, "det-random",
     "std::random_shuffle uses unspecified randomness; shuffle with "
     "an explicit util/rng stream"},
    {"time", true, "det-clock",
     "time() reads the wall clock; results must not depend on when "
     "they are computed"},
    {"clock", true, "det-clock",
     "clock() reads process time; results must not depend on "
     "execution speed"},
    {"clock_gettime", true, "det-clock",
     "clock_gettime() reads a real clock; timing is only legal in "
     "bench/ and the perf-compare layer"},
    {"gettimeofday", true, "det-clock",
     "gettimeofday() reads the wall clock; timing is only legal in "
     "bench/ and the perf-compare layer"},
    {"steady_clock", false, "det-clock",
     "std::chrono::steady_clock makes output depend on execution "
     "speed; timing is only legal in bench/ and the perf-compare "
     "layer"},
    {"system_clock", false, "det-clock",
     "std::chrono::system_clock reads the wall clock; timing is "
     "only legal in bench/ and the perf-compare layer"},
    {"high_resolution_clock", false, "det-clock",
     "std::chrono::high_resolution_clock makes output depend on "
     "execution speed; timing is only legal in bench/ and the "
     "perf-compare layer"},
};

const char *const unorderedNeedles[] = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
};

void
scanDeterminism(const SourceViews &views,
                const std::vector<std::string> &rawLines,
                const std::string &path, std::vector<Finding> &out)
{
    const std::string &code = views.code;
    for (const DetNeedle &needle : detNeedles) {
        const std::string name = needle.name;
        for (size_t pos = code.find(name); pos != std::string::npos;
             pos = code.find(name, pos + 1)) {
            if (!wholeIdentAt(code, pos, name))
                continue;
            if (needle.requiresCall) {
                const size_t after = skipWs(code, pos + name.size());
                if (after >= code.size() || code[after] != '(')
                    continue;
            }
            out.push_back({path, views.lineAt(pos), needle.rule,
                           needle.message});
        }
    }
    for (const char *const raw : unorderedNeedles) {
        const std::string name = raw;
        for (size_t pos = code.find(name); pos != std::string::npos;
             pos = code.find(name, pos + 1)) {
            if (!wholeIdentAt(code, pos, name))
                continue;
            const int line = views.lineAt(pos);
            // #include <unordered_map> is not a use; the use is.
            if (line < static_cast<int>(rawLines.size()) &&
                isPreprocessorLine(rawLines[line]))
                continue;
            out.push_back(
                {path, line, "det-unordered",
                 "std::" + name +
                     " iterates in unspecified order; use an ordered "
                     "container, or justify a lookup-only use with "
                     "lhrlint:allow"});
        }
    }
}

void
scanHeaderRules(const SourceViews &views,
                const std::vector<std::string> &rawLines,
                const std::string &path, std::vector<Finding> &out)
{
    const bool header = isHeaderPath(path);
    const bool inl = isInlinePath(path);
    if (!header && !inl)
        return;

    // using-namespace-header: in anything textually included.
    const std::string &code = views.code;
    for (size_t pos = code.find("using"); pos != std::string::npos;
         pos = code.find("using", pos + 1)) {
        if (!wholeIdentAt(code, pos, "using"))
            continue;
        const size_t k = skipWs(code, pos + 5);
        if (identAt(code, k) == "namespace") {
            out.push_back({path, views.lineAt(pos),
                           "using-namespace-header",
                           "'using namespace' in a header leaks the "
                           "namespace into every includer"});
        }
    }

    // header-guard: .inl fragments are textual-include bodies by
    // design (multi-included with different macros) — exempt.
    if (!header)
        return;
    const std::vector<std::string> codeLines = splitLines(code);
    int firstCodeLine = 0;
    for (size_t n = 1; n < codeLines.size(); ++n) {
        if (skipWs(codeLines[n], 0) < codeLines[n].size()) {
            firstCodeLine = static_cast<int>(n);
            break;
        }
    }
    if (firstCodeLine == 0)
        return; // empty header: nothing to guard
    const std::string &first =
        firstCodeLine < static_cast<int>(rawLines.size())
            ? rawLines[firstCodeLine]
            : codeLines[firstCodeLine];
    const size_t t = skipWs(first, 0);
    const bool pragmaOnce = first.compare(t, 12, "#pragma once") == 0;
    bool guarded = false;
    if (first.compare(t, 7, "#ifndef") == 0) {
        // The guard's #define must follow on the next code line.
        for (size_t n = firstCodeLine + 1; n < codeLines.size(); ++n) {
            if (skipWs(codeLines[n], 0) >= codeLines[n].size())
                continue;
            const std::string &next = rawLines[n];
            guarded =
                next.compare(skipWs(next, 0), 7, "#define") == 0;
            break;
        }
    }
    if (!pragmaOnce && !guarded) {
        out.push_back({path, firstCodeLine, "header-guard",
                       "header must open with #pragma once or an "
                       "#ifndef/#define include guard"});
    }
}

/**
 * Suppressions found in the comment view. `sameLine[line]` holds the
 * rules allowed on that line (both forms land here: allow() on its
 * own line and allow-next-line() from the line above).
 */
struct Suppressions
{
    std::map<int, std::set<std::string>> byLine;
};

Suppressions
scanSuppressions(const std::vector<std::string> &commentLines,
                 const std::string &path, std::vector<Finding> &out)
{
    Suppressions sup;
    const std::string tag = "lhrlint:allow";
    for (size_t n = 1; n < commentLines.size(); ++n) {
        const std::string &line = commentLines[n];
        for (size_t pos = line.find(tag); pos != std::string::npos;
             pos = line.find(tag, pos + 1)) {
            size_t i = pos + tag.size();
            int targetLine = static_cast<int>(n);
            if (line.compare(i, 10, "-next-line") == 0) {
                i += 10;
                ++targetLine;
            }
            std::string rule;
            bool wellFormed = false;
            if (i < line.size() && line[i] == '(') {
                const size_t close = line.find(')', i);
                if (close != std::string::npos) {
                    rule = line.substr(i + 1, close - i - 1);
                    // Justification: "): " plus non-space text.
                    const size_t j =
                        skipWs(line, close + 1 < line.size() &&
                                       line[close + 1] == ':'
                                   ? close + 2
                                   : line.size());
                    wellFormed = isKnownRule(rule) && j < line.size();
                }
            }
            if (!wellFormed) {
                out.push_back(
                    {path, static_cast<int>(n), "bare-allow",
                     "suppression must name a known rule and carry a "
                     "justification: lhrlint:allow(rule-id): why"});
            }
            if (!rule.empty() && isKnownRule(rule))
                sup.byLine[targetLine].insert(rule);
        }
    }
    return sup;
}

bool
allowedByConfig(const Config &config, const std::string &path,
                const std::string &rule)
{
    const std::string p = normalizePath(path);
    for (const AllowEntry &entry : config.allow) {
        if (entry.rule != "*" && entry.rule != rule)
            continue;
        if (p.rfind(entry.pathPrefix, 0) == 0)
            return true;
    }
    return false;
}

std::string
readFileOrEmpty(const std::filesystem::path &path, bool *ok)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        *ok = false;
        return "";
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    *ok = true;
    return buffer.str();
}

bool
lintableFile(const std::filesystem::path &path)
{
    const std::string ext = path.extension().string();
    return ext == ".cc" || ext == ".hh" || ext == ".h" || ext == ".inl";
}

} // namespace

std::string
Finding::toString() const
{
    return file + ":" + std::to_string(line) + ": " + rule + ": " +
        message;
}

const std::vector<std::string> &
allRuleIds()
{
    static const std::vector<std::string> ids(
        std::begin(ruleIds), std::end(ruleIds));
    return ids;
}

bool
isKnownRule(const std::string &rule)
{
    const std::vector<std::string> &ids = allRuleIds();
    return std::find(ids.begin(), ids.end(), rule) != ids.end();
}

int
SourceViews::lineAt(size_t offset) const
{
    const auto it = std::upper_bound(lineStarts.begin(),
                                     lineStarts.end(), offset);
    return static_cast<int>(it - lineStarts.begin());
}

SourceViews
makeViews(const std::string &text)
{
    SourceViews views;
    views.code = text;
    views.comments = text;
    views.lineStarts.push_back(0);

    enum class State
    {
        Normal,
        LineComment,
        BlockComment,
        String,
        Char,
        RawString,
    };
    State state = State::Normal;
    std::string rawDelim;      // the )delim" that ends a raw string
    char prevCode = '\0';      // last unblanked Normal-state char

    auto blankBoth = [&](size_t i) {
        views.code[i] = ' ';
        views.comments[i] = ' ';
    };
    auto blankCode = [&](size_t i) { views.code[i] = ' '; };

    for (size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (c == '\n')
            views.lineStarts.push_back(i + 1);

        switch (state) {
        case State::Normal:
            if (c == '/' && i + 1 < text.size() &&
                text[i + 1] == '/') {
                state = State::LineComment;
                blankCode(i);
            } else if (c == '/' && i + 1 < text.size() &&
                       text[i + 1] == '*') {
                state = State::BlockComment;
                blankCode(i);
            } else if (c == '"') {
                // R"delim( ... )delim" — the delimiter may be empty.
                if (prevCode == 'R') {
                    const size_t open = text.find('(', i + 1);
                    if (open != std::string::npos) {
                        rawDelim =
                            ")" + text.substr(i + 1, open - i - 1) +
                            "\"";
                        state = State::RawString;
                        for (size_t k = i; k <= open; ++k)
                            if (text[k] != '\n')
                                blankBoth(k);
                        i = open;
                        prevCode = '\0';
                        continue;
                    }
                }
                state = State::String;
                blankBoth(i);
            } else if (c == '\'' && !isIdentChar(prevCode)) {
                state = State::Char;
                blankBoth(i);
            } else {
                if (!isSpace(c))
                    prevCode = c;
            }
            break;
        case State::LineComment:
            if (c == '\n')
                state = State::Normal;
            else
                blankCode(i);
            break;
        case State::BlockComment:
            if (c == '/' && i > 0 && text[i - 1] == '*') {
                state = State::Normal;
            }
            if (c != '\n')
                blankCode(i);
            break;
        case State::String:
        case State::Char: {
            const char end = state == State::String ? '"' : '\'';
            if (c == '\\' && i + 1 < text.size()) {
                blankBoth(i);
                if (text[i + 1] != '\n')
                    blankBoth(i + 1);
                ++i;
            } else {
                if (c != '\n')
                    blankBoth(i);
                if (c == end)
                    state = State::Normal;
            }
            break;
        }
        case State::RawString:
            if (text.compare(i, rawDelim.size(), rawDelim) == 0) {
                for (size_t k = i; k < i + rawDelim.size(); ++k)
                    if (text[k] != '\n')
                        blankBoth(k);
                i += rawDelim.size() - 1;
                state = State::Normal;
            } else if (c != '\n') {
                blankBoth(i);
            }
            break;
        }
    }
    return views;
}

std::vector<Finding>
lintText(const std::string &path, const std::string &text,
         const Config &config)
{
    const SourceViews views = makeViews(text);
    const std::vector<std::string> rawLines = splitLines(text);
    const std::vector<std::string> commentLines =
        splitLines(views.comments);

    std::vector<Finding> raw;
    scanDeterminism(views, rawLines, path, raw);
    scanHeaderRules(views, rawLines, path, raw);

    std::vector<Finding> bare;
    const Suppressions sup =
        scanSuppressions(commentLines, path, bare);

    std::vector<Finding> kept;
    for (Finding &finding : raw) {
        const auto it = sup.byLine.find(finding.line);
        if (it != sup.byLine.end() && it->second.count(finding.rule))
            continue;
        if (allowedByConfig(config, path, finding.rule))
            continue;
        kept.push_back(std::move(finding));
    }
    // bare-allow cannot be inline-suppressed (no infinite regress),
    // but a directory allowlist entry may cover it (fixture trees).
    for (Finding &finding : bare) {
        if (allowedByConfig(config, path, finding.rule))
            continue;
        kept.push_back(std::move(finding));
    }
    return kept;
}

void
parseAllowlist(const std::string &path, const std::string &text,
               Config &config, std::vector<Finding> &findings)
{
    std::istringstream in(text);
    std::string line;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        const size_t start = skipWs(line, 0);
        if (start >= line.size() || line[start] == '#')
            continue;
        std::istringstream fields(line.substr(start));
        std::string rule, prefix;
        fields >> rule >> prefix;
        const size_t hash = line.find('#');
        const bool justified = hash != std::string::npos &&
            skipWs(line, hash + 1) < line.size();
        if (rule.empty() || prefix.empty() ||
            (rule != "*" && !isKnownRule(rule)) || !justified) {
            findings.push_back(
                {path, lineNo, "bare-allow",
                 "allowlist entry must be 'rule-id path-prefix  "
                 "# justification' with a known rule id"});
            continue;
        }
        config.allow.push_back({rule, normalizePath(prefix)});
    }
}

std::vector<Finding>
lintPaths(const std::vector<std::string> &roots, const Config &config,
          std::string *error)
{
    namespace fs = std::filesystem;
    std::vector<std::string> files;
    for (const std::string &root : roots) {
        std::error_code ec;
        if (fs::is_directory(root, ec)) {
            for (fs::recursive_directory_iterator
                     it(root, ec),
                 end;
                 it != end; it.increment(ec)) {
                if (ec)
                    break;
                if (it->is_regular_file() && lintableFile(it->path()))
                    files.push_back(it->path().string());
            }
        } else if (fs::is_regular_file(root, ec)) {
            files.push_back(root);
        } else {
            if (error)
                *error = "lhrlint: cannot read '" + root + "'";
            return {};
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());

    std::vector<Finding> findings;
    for (const std::string &file : files) {
        bool ok = false;
        const std::string text = readFileOrEmpty(file, &ok);
        if (!ok) {
            if (error)
                *error = "lhrlint: cannot read '" + file + "'";
            return {};
        }
        std::vector<Finding> fs2 =
            lintText(normalizePath(file), text, config);
        findings.insert(findings.end(),
                        std::make_move_iterator(fs2.begin()),
                        std::make_move_iterator(fs2.end()));
    }
    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    return findings;
}

int
runLhrlint(const std::vector<std::string> &args, std::ostream &out,
           std::ostream &err)
{
    std::vector<std::string> roots;
    std::string allowlistPath;
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--help" || arg == "-h") {
            err << "usage: lhrlint [--allowlist FILE] [--list-rules] "
                   "PATH...\n";
            return 0;
        }
        if (arg == "--list-rules") {
            for (const std::string &rule : allRuleIds())
                out << rule << "\n";
            return 0;
        }
        if (arg == "--allowlist") {
            if (i + 1 >= args.size()) {
                err << "lhrlint: --allowlist needs a file argument\n";
                return 2;
            }
            allowlistPath = args[++i];
            continue;
        }
        if (arg.rfind("--", 0) == 0) {
            err << "lhrlint: unknown option '" << arg << "'\n";
            return 2;
        }
        roots.push_back(arg);
    }
    if (roots.empty()) {
        err << "usage: lhrlint [--allowlist FILE] [--list-rules] "
               "PATH...\n";
        return 2;
    }

    Config config;
    std::vector<Finding> allowlistFindings;
    if (!allowlistPath.empty()) {
        bool ok = false;
        const std::string text = readFileOrEmpty(allowlistPath, &ok);
        if (!ok) {
            err << "lhrlint: cannot read allowlist '" << allowlistPath
                << "'\n";
            return 2;
        }
        parseAllowlist(normalizePath(allowlistPath), text, config,
                       allowlistFindings);
    }

    std::string error;
    std::vector<Finding> findings =
        lintPaths(roots, config, &error);
    if (!error.empty()) {
        err << error << "\n";
        return 2;
    }
    findings.insert(findings.end(), allowlistFindings.begin(),
                    allowlistFindings.end());

    for (const Finding &finding : findings)
        out << finding.toString() << "\n";
    err << "lhrlint: " << findings.size() << " finding"
        << (findings.size() == 1 ? "" : "s") << "\n";
    return findings.empty() ? 0 : 1;
}

} // namespace lhrlint
