// Tests for the pe::lint static-analysis subsystem: the comment/string/
// raw-string-aware lexer, the declared-DAG repo model, the three
// whole-program passes and the trace-hook guard against seeded
// positive/negative fixture twins (tests/lint_fixtures/), the waiver
// grammar, the baseline diff, and the SARIF 2.1.0 render shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "perfeng/common/error.hpp"
#include "perfeng/common/json.hpp"
#include "perfeng/lint/baseline.hpp"
#include "perfeng/lint/driver.hpp"
#include "perfeng/lint/lexer.hpp"
#include "perfeng/lint/render.hpp"
#include "perfeng/lint/repo_model.hpp"
#include "perfeng/lint/source.hpp"

namespace {

using pe::lint::Baseline;
using pe::lint::Finding;
using pe::lint::LintResult;
using pe::lint::RepoModel;
using pe::lint::ScanOptions;
using pe::lint::Severity;
using pe::lint::SourceFile;

// Compile definition from tests/CMakeLists.txt: absolute path of
// tests/lint_fixtures.
const std::string kFixtures = PE_LINT_FIXTURES;

LintResult lint_fixture(const std::string& tree,
                        const std::vector<std::string>& rules) {
  ScanOptions opts;
  opts.root = kFixtures + "/" + tree;
  opts.skip_substrings.clear();  // the fixture tree IS the repo here
  return pe::lint::lint_repo(opts, rules);
}

std::vector<Finding> with_rule(const LintResult& result,
                               const std::string& rule) {
  std::vector<Finding> out;
  for (const Finding& f : result.findings)
    if (f.rule == rule) out.push_back(f);
  return out;
}

// ---------------------------------------------------------------- lexer

TEST(LintLexer, CooksCommentsAndStringsButKeepsLineStructure) {
  const std::vector<std::string> raw = {
      "int a = 1; // trailing comment with volatile",
      "const char* s = \"volatile in a string\";",
      "/* block", "   still block */ int b = 2;",
  };
  const auto cooked = pe::lint::cook_lines(raw);
  ASSERT_EQ(cooked.size(), raw.size());
  EXPECT_EQ(cooked[0].find("volatile"), std::string::npos);
  EXPECT_EQ(cooked[1].find("volatile"), std::string::npos);
  EXPECT_NE(cooked[1].find('"'), std::string::npos);  // delimiters stay
  EXPECT_EQ(cooked[2].find("block"), std::string::npos);
  EXPECT_NE(cooked[3].find("int b = 2;"), std::string::npos);
}

TEST(LintLexer, RawStringsSpanLinesAndIgnoreFakeTerminators) {
  const std::vector<std::string> raw = {
      "auto s = R\"x(first \" not a close",
      "still raw )\" nope",
      "done )x\"; int after = 1;",
  };
  const auto cooked = pe::lint::cook_lines(raw);
  EXPECT_EQ(cooked[1].find("still"), std::string::npos);
  EXPECT_EQ(cooked[2].find("done"), std::string::npos);
  EXPECT_NE(cooked[2].find("int after = 1;"), std::string::npos);
}

TEST(LintLexer, LineSplicedCommentExtendsToNextPhysicalLine) {
  const std::vector<std::string> raw = {
      "int a = 1; // comment continues \\",
      "volatile int hidden = 2;",
      "int b = 3;",
  };
  const auto cooked = pe::lint::cook_lines(raw);
  // Physical line 2 is still inside the spliced // comment.
  EXPECT_EQ(cooked[1].find("volatile"), std::string::npos);
  EXPECT_NE(cooked[2].find("int b = 3;"), std::string::npos);
}

TEST(LintLexer, DigitSeparatorsAreNotCharLiterals) {
  const std::vector<std::string> raw = {
      "std::size_t n = 1'000'000; volatile int tripwire = 0;",
  };
  const auto cooked = pe::lint::cook_lines(raw);
  // A naive char-literal scanner would swallow from 1'0...' onward and
  // blank the volatile; the lexer must keep it visible.
  EXPECT_NE(cooked[0].find("volatile"), std::string::npos);
}

TEST(LintLexer, IncludeDirectivesParsePathsAndSkipComments) {
  const std::vector<std::string> raw = {
      "#include <vector>",
      "#include \"perfeng/common/error.hpp\"",
      "/*",
      "#include \"perfeng/fake/commented_out.hpp\"",
      "*/",
      "#include \\",
      "  <atomic>",
  };
  const auto incs = pe::lint::include_directives(raw);
  ASSERT_EQ(incs.size(), 3u);
  EXPECT_TRUE(incs[0].angled);
  EXPECT_EQ(incs[0].path, "vector");
  EXPECT_FALSE(incs[1].angled);
  EXPECT_EQ(incs[1].path, "perfeng/common/error.hpp");
  EXPECT_EQ(incs[2].path, "atomic");  // spliced directive joined
}

// -------------------------------------------------------------- waivers

TEST(LintSource, WaiversApplyToLineAndLineAbove) {
  const SourceFile f = pe::lint::make_source_file(
      "src/x/src/x.cpp",
      {
          "int a;  // perfeng-lint: allow(no-volatile)",
          "// perfeng-lint: allow(no-std-rand) — fixture rationale",
          "int b;",
          "int c;",
      });
  EXPECT_TRUE(pe::lint::line_allows(f, 0, "no-volatile"));
  EXPECT_TRUE(pe::lint::line_allows(f, 2, "no-std-rand"));
  EXPECT_FALSE(pe::lint::line_allows(f, 3, "no-std-rand"));
  EXPECT_FALSE(pe::lint::file_allows(f, "no-volatile"));
}

// ----------------------------------------------------------- repo model

TEST(LintRepoModel, ParsesDeclaredDagFromFixtureCMake) {
  const RepoModel model = RepoModel::build(kFixtures + "/bad");
  ASSERT_NE(model.by_name("alpha"), nullptr);
  ASSERT_NE(model.by_target("perfeng_beta"), nullptr);
  // alpha declares no dependency on beta in the bad tree.
  EXPECT_FALSE(model.depends_on("alpha", "beta"));
  EXPECT_TRUE(model.depends_on("alpha", "alpha"));
  EXPECT_EQ(model.owner_of_header("perfeng/beta/b.hpp"), "beta");
  EXPECT_EQ(model.owner_of_header("perfeng/nowhere/x.hpp"), "");
  // gamma <-> delta is a declared cycle, reported exactly once.
  EXPECT_EQ(model.declared_cycles().size(), 1u);

  const RepoModel clean = RepoModel::build(kFixtures + "/clean");
  EXPECT_TRUE(clean.depends_on("alpha", "beta"));
  EXPECT_TRUE(clean.declared_cycles().empty());
}

// ----------------------------------------------- whole-program passes

TEST(LintLayering, FlagsUndeclaredIncludeEdgeAndDeclaredCycle) {
  const auto bad = lint_fixture("bad", {"include-layering"});
  const auto findings = with_rule(bad, "include-layering");
  ASSERT_GE(findings.size(), 2u);
  bool saw_edge = false;
  bool saw_cycle = false;
  for (const Finding& f : findings) {
    EXPECT_EQ(f.severity, Severity::kError);
    if (f.file == "src/alpha/include/perfeng/alpha/a.hpp" &&
        f.message.find("beta") != std::string::npos)
      saw_edge = true;
    if (f.message.find("cycle") != std::string::npos &&
        f.message.find("gamma") != std::string::npos &&
        f.message.find("delta") != std::string::npos)
      saw_cycle = true;
  }
  EXPECT_TRUE(saw_edge);
  EXPECT_TRUE(saw_cycle);

  const auto clean = lint_fixture("clean", {"include-layering"});
  EXPECT_TRUE(with_rule(clean, "include-layering").empty())
      << pe::lint::render_text(clean.findings, clean.files_scanned);
}

TEST(LintLockOrder, FlagsAbBaInversionWithWitnessAndClearsCleanTwin) {
  const auto bad = lint_fixture("bad", {"lock-order"});
  const auto findings = with_rule(bad, "lock-order");
  ASSERT_EQ(findings.size(), 1u);
  const Finding& f = findings.front();
  EXPECT_EQ(f.severity, Severity::kError);
  // The witness names both mutex identities and both offending functions.
  EXPECT_NE(f.message.find("Pair::ma"), std::string::npos) << f.message;
  EXPECT_NE(f.message.find("Pair::mb"), std::string::npos) << f.message;
  EXPECT_NE(f.message.find("first"), std::string::npos) << f.message;
  EXPECT_NE(f.message.find("second"), std::string::npos) << f.message;

  const auto clean = lint_fixture("clean", {"lock-order"});
  EXPECT_TRUE(with_rule(clean, "lock-order").empty())
      << pe::lint::render_text(clean.findings, clean.files_scanned);
}

TEST(LintWaitLoop, FlagsBackoffFreeSpinsAndClearsYieldingTwin) {
  const auto bad = lint_fixture("bad", {"wait-loop"});
  const auto findings = with_rule(bad, "wait-loop");
  // Both the braced busy-wait and the empty-body variant in spin.cpp.
  ASSERT_EQ(findings.size(), 2u);
  for (const Finding& f : findings)
    EXPECT_EQ(f.file, "src/alpha/src/spin.cpp");

  const auto clean = lint_fixture("clean", {"wait-loop"});
  EXPECT_TRUE(with_rule(clean, "wait-loop").empty())
      << pe::lint::render_text(clean.findings, clean.files_scanned);
}

TEST(LintTraceHookGuard, FlagsDirectOnEventCallsAndClearsMacroTwin) {
  const auto bad = lint_fixture("bad", {"trace-hook-guard"});
  const auto findings = with_rule(bad, "trace-hook-guard");
  // Both the pointer call and the reference call in emit.cpp.
  ASSERT_EQ(findings.size(), 2u);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.file, "src/alpha/src/emit.cpp");
    EXPECT_EQ(f.severity, Severity::kError);
  }

  // The macro spelling is clean, and so is the runtime hook header that
  // defines it.
  const auto clean = lint_fixture("clean", {"trace-hook-guard"});
  EXPECT_TRUE(with_rule(clean, "trace-hook-guard").empty())
      << pe::lint::render_text(clean.findings, clean.files_scanned);
}

// ------------------------------------------------------------- baseline

TEST(LintBaseline, RoundTripsAndAbsorbsExactlyTheAcceptedCounts) {
  Finding a;
  a.file = "src/x/src/x.cpp";
  a.line = 10;
  a.rule = "no-volatile";
  a.message = "volatile is not a synchronization primitive";
  Finding b = a;
  b.line = 20;  // same identity (line excluded from the key)
  Finding c;
  c.file = "src/y/src/y.cpp";
  c.line = 1;
  c.rule = "wait-loop";
  c.message = "spin without backoff";

  const std::string doc = Baseline::serialize({a, b});
  const std::string path = testing::TempDir() + "lint_baseline_rt.json";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
  }
  const Baseline base = Baseline::load(path);
  // a and b share one identity with an accepted count of 2.
  EXPECT_EQ(base.total_entries(), 2u);

  // Two accepted occurrences absorb a and b; c is new; a third
  // occurrence of the same identity overflows the budget.
  Finding d = a;
  d.line = 30;
  const auto fresh = base.new_findings({a, b, c, d});
  ASSERT_EQ(fresh.size(), 2u);
  EXPECT_TRUE(std::any_of(fresh.begin(), fresh.end(), [](const Finding& f) {
    return f.rule == "wait-loop";
  }));
  EXPECT_TRUE(std::any_of(fresh.begin(), fresh.end(), [](const Finding& f) {
    return f.rule == "no-volatile";
  }));
}

void write_text(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

TEST(LintBaseline, AnyJsonLayoutLoadsWithTheSameCounts) {
  // The same two identities Baseline::serialize would write on two lines,
  // re-indented the way a JSON formatter lays them out.
  const std::string path = testing::TempDir() + "lint_baseline_pretty.json";
  write_text(path,
             "{\n"
             "  \"tool\": \"perfeng-lint\",\n"
             "  \"entries\": [\n"
             "    {\n"
             "      \"rule\": \"no-volatile\",\n"
             "      \"file\": \"src/x/src/x.cpp\",\n"
             "      \"message\": \"volatile is not a synchronization "
             "primitive\",\n"
             "      \"count\": 2\n"
             "    },\n"
             "    {\n"
             "      \"rule\": \"wait-loop\",\n"
             "      \"file\": \"src/y/src/y.cpp\",\n"
             "      \"message\": \"spin without backoff\"\n"
             "    }\n"
             "  ]\n"
             "}\n");
  const Baseline base = Baseline::load(path);
  EXPECT_EQ(base.total_entries(), 3u);
  Finding a;
  a.file = "src/x/src/x.cpp";
  a.rule = "no-volatile";
  a.message = "volatile is not a synchronization primitive";
  Finding c;
  c.file = "src/y/src/y.cpp";
  c.rule = "wait-loop";
  c.message = "spin without backoff";
  EXPECT_EQ(base.new_findings({a, a, c}).size(), 0u);
  EXPECT_EQ(base.new_findings({a, a, a, c}).size(), 1u);

  // An entry without a file names the baseline and the entry's line.
  write_text(path,
             "{\"entries\": [\n"
             "  {\"rule\": \"r\", \"message\": \"m\"}\n"
             "]}\n");
  try {
    (void)Baseline::load(path);
    FAIL() << "expected pe::Error";
  } catch (const pe::Error& e) {
    EXPECT_NE(std::string(e.what()).find("malformed baseline entry at " +
                                         path + ":2"),
              std::string::npos)
        << e.what();
  }
}

TEST(LintBaseline, MissingFileIsEmptyBaseline) {
  const Baseline base =
      Baseline::load(testing::TempDir() + "does_not_exist_baseline.json");
  EXPECT_EQ(base.total_entries(), 0u);
  Finding f;
  f.file = "a";
  f.rule = "r";
  f.message = "m";
  EXPECT_EQ(base.new_findings({f}).size(), 1u);
}

// ---------------------------------------------------------------- SARIF

TEST(LintSarif, RendersTheShapeCiAndCodeScannersExpect) {
  const auto bad = lint_fixture(
      "bad", {"include-layering", "lock-order", "wait-loop"});
  const std::string sarif =
      pe::lint::render_sarif(bad.findings, bad.rules);

  // Top-level shape.
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("sarif-schema-2.1.0"), std::string::npos);
  EXPECT_NE(sarif.find("\"runs\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"perfeng-lint\""), std::string::npos);
  // Every pass that ran appears in the driver rules array.
  EXPECT_NE(sarif.find("\"id\": \"include-layering\""), std::string::npos);
  EXPECT_NE(sarif.find("\"id\": \"lock-order\""), std::string::npos);
  EXPECT_NE(sarif.find("\"id\": \"wait-loop\""), std::string::npos);
  // Results carry ruleId + ruleIndex + a physical location with a line.
  EXPECT_NE(sarif.find("\"ruleId\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleIndex\""), std::string::npos);
  EXPECT_NE(sarif.find("\"physicalLocation\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\""), std::string::npos);
  EXPECT_NE(sarif.find("\"level\": \"error\""), std::string::npos);
  // The whole log is one standard JSON document with a result per finding.
  pe::json::Value doc;
  ASSERT_NO_THROW(doc = pe::json::parse(sarif)) << sarif;
  ASSERT_EQ(doc.at("runs").items.size(), 1u);
  EXPECT_EQ(doc.at("runs").items[0].at("results").items.size(),
            bad.findings.size());
}

}  // namespace
