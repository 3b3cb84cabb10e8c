/**
 * @file
 * lhrlint — the repo's project-invariant static analyzer.
 *
 * A token-level C++ scanner (no libclang) that enforces the written
 * determinism and header contracts of this laboratory as named,
 * suppressible rules. The golden-hash tests and sanitizer CI jobs
 * catch these bug classes *dynamically* when a test happens to
 * sample them; lhrlint catches them at lint time, before a stray
 * wall-clock read ever reaches a thousand-node sweep. Two contracts
 * are the compiler's job, not lhrlint's: a silently discarded Status
 * (`class [[nodiscard]] Status` / `Expected` plus
 * -Werror=unused-result; ctest `discarded_status_fails_to_compile`)
 * and a raw float ==/!= (-Werror=float-equal, with the named
 * util/fp.hh helpers as the one exemption; ctest
 * `float_equal_fails_to_compile`).
 *
 * Rule catalog (see DESIGN.md §10 for the policy discussion):
 *
 *   det-random        rand()/srand()/std::random_device and friends
 *                     (randomness must come from util/rng, seeded by
 *                     the experiment key)
 *   det-clock         time()/clock_gettime()/std::chrono::*_clock —
 *                     wall-clock reads are only legal in bench/ and
 *                     the perf-compare layer
 *   det-unordered     std::unordered_map/set use — iteration order
 *                     is unspecified and can leak into output;
 *                     lookup-only uses carry a justified allow
 *   header-guard      headers must open with #pragma once or an
 *                     #ifndef/#define guard
 *   using-namespace-header
 *                     `using namespace` in a header leaks into every
 *                     includer
 *   bare-allow        an lhrlint:allow suppression without a
 *                     justification (or naming an unknown rule)
 *
 * Suppression forms (the justification after ':' is mandatory —
 * a bare allow is itself a finding, and not an inline-suppressible
 * one):
 *
 *   code;  // lhrlint:allow(rule-id): why this is safe
 *   // lhrlint:allow-next-line(rule-id): why this is safe
 *
 * plus a checked-in allowlist file (default tools/lint/lhrlint.allow)
 * of `rule-id path-prefix  # justification` lines for whole files or
 * directories (e.g. det-clock in bench/).
 *
 * The scanner works on two synchronized views of each file: a *code
 * view* with comments and string/char-literal bodies blanked (rules
 * never fire inside prose or data) and a *comment view* with strings
 * blanked but comments kept (suppressions live in comments; a
 * suppression inside a string literal is not a suppression).
 */

#ifndef LHRLINT_LINT_HH
#define LHRLINT_LINT_HH

#include <iosfwd>
#include <string>
#include <vector>

namespace lhrlint
{

/** One reported violation: file:line: rule-id: message. */
struct Finding
{
    std::string file;
    int line = 0;
    std::string rule;
    std::string message;

    /** The canonical one-line rendering. */
    std::string toString() const;
};

/** One allowlist entry: suppress `rule` under `pathPrefix`. */
struct AllowEntry
{
    std::string rule;       ///< rule id, or "*" for every rule
    std::string pathPrefix; ///< relative path prefix, e.g. "bench/"
};

/** Everything a lint pass needs besides the file contents. */
struct Config
{
    /** File/directory-scoped suppressions (lhrlint.allow). */
    std::vector<AllowEntry> allow;
};

/** Every rule id, in catalog order. */
const std::vector<std::string> &allRuleIds();

/** Whether `rule` names a rule in the catalog. */
bool isKnownRule(const std::string &rule);

/**
 * The two synchronized views of one file plus the line table. Both
 * views have exactly the input's length and newline positions, so
 * one offset->line mapping serves raw text and both views.
 */
struct SourceViews
{
    std::string code;     ///< comments + literal bodies blanked
    std::string comments; ///< literal bodies blanked, comments kept
    std::vector<size_t> lineStarts;

    /** 1-based line of a character offset. */
    int lineAt(size_t offset) const;
};

/** Build the views (handles //, block comments, raw strings). */
SourceViews makeViews(const std::string &text);

/**
 * Lint one file's contents. `path` is the relative path used in
 * findings and matched against the allowlist. Inline suppressions
 * and the config allowlist are already applied; bare-allow findings
 * (missing justification / unknown rule) are appended and cannot be
 * inline-suppressed.
 */
std::vector<Finding> lintText(const std::string &path,
                              const std::string &text,
                              const Config &config);

/**
 * Parse an allowlist file. Each non-comment line is
 *
 *   rule-id path-prefix  # justification
 *
 * A line with an unknown rule id or without a ` # justification`
 * tail is reported as a bare-allow finding against the allowlist
 * file itself. Returns false only on a structurally empty/garbage
 * line (the finding is still emitted).
 */
void parseAllowlist(const std::string &path, const std::string &text,
                    Config &config, std::vector<Finding> &findings);

/**
 * Walk `roots` (files or directories; directories recurse over
 * .cc/.hh/.h/.inl), lint every file, and return the findings
 * sorted by (file, line, rule). On an unreadable path, sets *error
 * and returns empty.
 */
std::vector<Finding> lintPaths(const std::vector<std::string> &roots,
                               const Config &config, std::string *error);

/**
 * The lhrlint CLI: `lhrlint [--allowlist FILE] [--list-rules] PATH...`.
 * Findings print to `out`, the summary and errors to `err`.
 * Exit code 0 = clean, 1 = findings, 2 = usage or I/O error.
 */
int runLhrlint(const std::vector<std::string> &args, std::ostream &out,
               std::ostream &err);

} // namespace lhrlint

#endif // LHRLINT_LINT_HH
