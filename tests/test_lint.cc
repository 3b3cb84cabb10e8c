/**
 * @file
 * Fixture matrix for lhrlint (tools/lint): one positive and one
 * negative fixture per rule, suppression and allowlist semantics,
 * and the CLI exit-code contract driven through the on-disk fixture
 * trees.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "lint.hh"

namespace
{

using lhrlint::Config;
using lhrlint::Finding;

/** Findings of `text` linted as `path` with an empty config. */
std::vector<Finding>
lint(const std::string &path, const std::string &text)
{
    return lhrlint::lintText(path, text, Config{});
}

/** Count of findings carrying `rule`. */
size_t
countRule(const std::vector<Finding> &findings, const std::string &rule)
{
    return static_cast<size_t>(
        std::count_if(findings.begin(), findings.end(),
                      [&](const Finding &f) { return f.rule == rule; }));
}

TEST(LintRules, DetRandomPositive)
{
    const auto findings = lint("src/x.cc",
                               "#include <random>\n"
                               "int f() { std::random_device d; "
                               "return rand() + d(); }\n");
    EXPECT_EQ(countRule(findings, "det-random"), 2u);
    EXPECT_EQ(findings[0].line, 2);
}

TEST(LintRules, DetRandomNegative)
{
    // util/rng draws and words merely containing the needles.
    const auto findings = lint("src/x.cc",
                               "int strand(int operand);\n"
                               "int g() { return strand(7); }\n");
    EXPECT_EQ(countRule(findings, "det-random"), 0u);
}

TEST(LintRules, DetClockPositive)
{
    const auto findings =
        lint("src/x.cc",
             "#include <chrono>\n"
             "double f() { auto t = std::chrono::steady_clock::now(); "
             "return time(nullptr) + t.time_since_epoch().count(); }\n");
    EXPECT_EQ(countRule(findings, "det-clock"), 2u);
}

TEST(LintRules, DetClockNegative)
{
    // Identifiers that merely end in "time"/"clock" do not fire, and
    // neither does a clock mention inside a comment or string.
    const auto findings =
        lint("src/x.cc",
             "double wallTime(int stockClock);\n"
             "// steady_clock would be wrong here\n"
             "const char *s = \"time(nullptr)\";\n"
             "double g() { return wallTime(3); }\n");
    EXPECT_EQ(countRule(findings, "det-clock"), 0u);
}

TEST(LintRules, DetUnorderedPositiveAndIncludeExemption)
{
    const auto findings =
        lint("src/x.cc",
             "#include <unordered_map>\n"
             "std::unordered_map<int, int> table;\n");
    // The #include line is not a use; the declaration is.
    ASSERT_EQ(countRule(findings, "det-unordered"), 1u);
    EXPECT_EQ(findings[0].line, 2);
}

TEST(LintRules, DetUnorderedNegative)
{
    const auto findings = lint("src/x.cc",
                               "#include <map>\n"
                               "std::map<int, int> ordered;\n");
    EXPECT_EQ(countRule(findings, "det-unordered"), 0u);
}

TEST(LintRules, HeaderGuardPositive)
{
    const auto missing = lint("src/x.hh", "int f();\n");
    EXPECT_EQ(countRule(missing, "header-guard"), 1u);
    // #ifndef without its #define is not a guard.
    const auto half = lint("src/y.hh", "#ifndef X\nint f();\n#endif\n");
    EXPECT_EQ(countRule(half, "header-guard"), 1u);
}

TEST(LintRules, HeaderGuardNegative)
{
    const auto pragma = lint("src/x.hh", "#pragma once\nint f();\n");
    EXPECT_EQ(countRule(pragma, "header-guard"), 0u);
    const auto guard = lint(
        "src/y.hh",
        "// comment first\n#ifndef Y_HH\n#define Y_HH\nint f();\n#endif\n");
    EXPECT_EQ(countRule(guard, "header-guard"), 0u);
    // .cc files and .inl fragments are exempt by design.
    EXPECT_EQ(countRule(lint("src/z.cc", "int f();\n"), "header-guard"),
              0u);
    EXPECT_EQ(countRule(lint("src/z.inl", "int f();\n"), "header-guard"),
              0u);
}

TEST(LintRules, UsingNamespaceHeaderPositive)
{
    const auto findings =
        lint("src/x.hh", "#pragma once\nusing namespace std;\n");
    EXPECT_EQ(countRule(findings, "using-namespace-header"), 1u);
    // .inl fragments are textually included too.
    EXPECT_EQ(countRule(lint("src/x.inl", "using namespace std;\n"),
                        "using-namespace-header"),
              1u);
}

TEST(LintRules, UsingNamespaceHeaderNegative)
{
    // Legal in a .cc, and using-declarations are not using-directives.
    EXPECT_EQ(countRule(lint("src/x.cc", "using namespace std;\n"),
                        "using-namespace-header"),
              0u);
    EXPECT_EQ(countRule(lint("src/x.hh",
                             "#pragma once\nusing std::string;\n"),
                        "using-namespace-header"),
              0u);
}

TEST(LintSuppression, SameLineAllowIsHonored)
{
    const auto findings = lint(
        "src/x.cc",
        "std::unordered_map<int, int> t; // lhrlint:allow(det-unordered): lookup-only\n");
    EXPECT_EQ(countRule(findings, "det-unordered"), 0u);
    EXPECT_EQ(countRule(findings, "bare-allow"), 0u);
}

TEST(LintSuppression, NextLineAllowIsHonored)
{
    const auto findings = lint(
        "src/x.cc",
        "// lhrlint:allow-next-line(det-unordered): lookup-only\n"
        "std::unordered_map<int, int> t;\n");
    EXPECT_EQ(countRule(findings, "det-unordered"), 0u);
}

TEST(LintSuppression, WrongRuleDoesNotSuppress)
{
    const auto findings = lint(
        "src/x.cc",
        "std::unordered_map<int, int> t; // lhrlint:allow(det-clock): wrong rule\n");
    EXPECT_EQ(countRule(findings, "det-unordered"), 1u);
}

TEST(LintSuppression, BareAllowIsItselfAFinding)
{
    // No justification, and an unknown rule id: both are bare-allow.
    const auto none = lint(
        "src/x.cc",
        "std::unordered_map<int, int> t; // lhrlint:allow(det-unordered)\n");
    EXPECT_EQ(countRule(none, "det-unordered"), 0u) << "still suppresses";
    EXPECT_EQ(countRule(none, "bare-allow"), 1u) << "but is flagged";
    const auto unknown =
        lint("src/x.cc", "int x; // lhrlint:allow(no-such-rule): why\n");
    EXPECT_EQ(countRule(unknown, "bare-allow"), 1u);
}

TEST(LintSuppression, SuppressionInsideStringIsNotASuppression)
{
    const auto findings = lint(
        "src/x.cc",
        "std::unordered_map<int, int> t; const char *s = \""
        "lhrlint:allow(det-unordered): nope\";\n");
    EXPECT_EQ(countRule(findings, "det-unordered"), 1u);
}

TEST(LintAllowlist, PrefixEntrySuppresses)
{
    Config config;
    std::vector<Finding> errors;
    lhrlint::parseAllowlist(
        "lhrlint.allow",
        "# comment\n"
        "det-clock bench/  # benches time for a living\n",
        config, errors);
    EXPECT_TRUE(errors.empty());
    ASSERT_EQ(config.allow.size(), 1u);

    const std::string body =
        "#include <chrono>\n"
        "auto t() { return std::chrono::steady_clock::now(); }\n";
    EXPECT_EQ(countRule(lhrlint::lintText("bench/t.cc", body, config),
                        "det-clock"),
              0u);
    EXPECT_EQ(countRule(lhrlint::lintText("src/t.cc", body, config),
                        "det-clock"),
              1u);
}

TEST(LintAllowlist, EntriesRequireJustificationAndKnownRule)
{
    Config config;
    std::vector<Finding> errors;
    lhrlint::parseAllowlist("lhrlint.allow",
                            "det-clock bench/\n"          // no reason
                            "not-a-rule src/  # reason\n" // bad rule
                            "det-clock src/a  # fine\n",
                            config, errors);
    EXPECT_EQ(errors.size(), 2u);
    EXPECT_EQ(countRule(errors, "bare-allow"), 2u);
    EXPECT_EQ(config.allow.size(), 1u);
}

TEST(LintViews, StringsAndCommentsAreBlind)
{
    // Rule needles inside comments, strings, and raw strings never
    // fire; real code after them still does.
    const auto findings = lint(
        "src/x.cc",
        "// rand() in a comment\n"
        "const char *a = \"rand()\";\n"
        "const char *b = R\"(std::random_device inside raw)\";\n"
        "int c = rand();\n");
    ASSERT_EQ(countRule(findings, "det-random"), 1u);
    EXPECT_EQ(findings[0].line, 4);
}

TEST(LintCli, ExitCodesOverFixtureTrees)
{
    const std::string fixtures = LHRLINT_FIXTURE_DIR;
    std::ostringstream out, err;

    // Dirty tree: findings -> exit 1, every rule represented.
    std::ostringstream dirtyOut;
    EXPECT_EQ(lhrlint::runLhrlint({fixtures + "/dirty"}, dirtyOut, err),
              1);
    for (const char *rule :
         {"det-random", "det-clock", "det-unordered", "header-guard",
          "using-namespace-header", "bare-allow"})
        EXPECT_NE(dirtyOut.str().find(rule), std::string::npos) << rule;

    // Clean tree with its allowlist: exit 0, no output.
    std::ostringstream cleanOut;
    EXPECT_EQ(lhrlint::runLhrlint({"--allowlist",
                                   fixtures + "/clean.allow",
                                   fixtures + "/clean"},
                                  cleanOut, err),
              0);
    EXPECT_TRUE(cleanOut.str().empty());

    // Usage errors and unreadable paths: exit 2.
    EXPECT_EQ(lhrlint::runLhrlint({}, out, err), 2);
    EXPECT_EQ(lhrlint::runLhrlint({"--no-such-flag"}, out, err), 2);
    EXPECT_EQ(lhrlint::runLhrlint({fixtures + "/does-not-exist"}, out,
                                  err),
              2);
    EXPECT_EQ(lhrlint::runLhrlint(
                  {"--allowlist", fixtures + "/missing.allow",
                   fixtures + "/clean"},
                  out, err),
              2);

    // --list-rules prints the catalog and exits 0.
    std::ostringstream rules;
    EXPECT_EQ(lhrlint::runLhrlint({"--list-rules"}, rules, err), 0);
    EXPECT_NE(rules.str().find("det-unordered"), std::string::npos);
    EXPECT_EQ(rules.str().find("float-compare"), std::string::npos);
}

TEST(LintFinding, CanonicalRendering)
{
    const Finding finding{"src/x.cc", 12, "det-clock", "message"};
    EXPECT_EQ(finding.toString(), "src/x.cc:12: det-clock: message");
}

} // namespace
