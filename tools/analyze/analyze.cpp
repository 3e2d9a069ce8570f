// flexric-analyze: multi-pass static analyzer for the FlexRIC SDK.
//
// Dependency-free (stdlib only) so it builds everywhere the SDK builds and
// can run as a CTest gate. It is the repo's one static analyzer: see
// rules.hpp for the rule set and DESIGN.md §7/§10/§12 for the model.
//
// Usage:
//   flexric-analyze --root <repo>          scan src/ fuzz/ bench/ examples/
//                                          tests/
//   flexric-analyze --root <repo> --rule R run only rule R (repeatable)
//   flexric-analyze --root <repo> --list   print every suppression + reason
//   flexric-analyze --fix-suggestions ...  append a suggested fix per finding
//   flexric-analyze --json ...             machine-readable findings (CI)
//   flexric-analyze --baseline <file>      accept hotpath-alloc debt recorded
//                                          in <file>; fail only on regressions
//   flexric-analyze --write-baseline <file> regenerate the debt file
//   flexric-analyze --fixtures <dir>       scan <dir> (category = first path
//                                          component) and diff the findings
//                                          against <dir>/expected.txt
//   flexric-analyze --self <dir>           scan <dir>'s own C++ files under
//                                          the full rule set as category
//                                          "src"; the analyzer dogfoods its
//                                          own discipline (zero findings)
//
// A full run (no --rule filter) of any mode also audits suppressions: every
// `lint: allow(...)` must name a known rule, carry a reason and actually
// silence a finding (stale suppressions fail the gate).
//
// Exit codes: 0 clean, 1 findings (or fixture mismatch), 2 usage/IO error.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "rules.hpp"

namespace fs = std::filesystem;
using namespace flexric::analyze;

namespace {

bool has_cpp_ext(const fs::path& p) {
  auto e = p.extension().string();
  return e == ".cpp" || e == ".hpp" || e == ".cc" || e == ".h";
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string to_rel(const fs::path& p, const fs::path& root) {
  std::string s = p.lexically_relative(root).generic_string();
  return s;
}

/// Load every C++ file under root/<top> into the corpus with category <cat>.
void load_dir(Corpus& corpus, const fs::path& root, const std::string& top,
              const std::string& cat) {
  fs::path dir = root / top;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return;
  std::vector<fs::path> paths;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file() || !has_cpp_ext(it->path())) continue;
    std::string rel = to_rel(it->path(), root);
    // The fixture corpus intentionally contains violations.
    if (rel.rfind("tests/analyze_fixtures", 0) == 0) continue;
    paths.push_back(it->path());
  }
  std::sort(paths.begin(), paths.end());
  for (const auto& p : paths) {
    FileUnit f;
    f.rel = to_rel(p, root);
    f.category = cat;
    f.lx = lex(slurp(p));
    corpus.files.push_back(std::move(f));
  }
}

/// Run the selected rules; a full run (`all_rules`) adds the suppression
/// audit. Findings come back sorted by (file, line, rule).
std::vector<Finding> scan(const Corpus& corpus,
                          const std::set<std::string>& rules, bool all_rules) {
  std::set<std::string> used;
  set_suppression_tracker(&used);
  auto findings = run_rules(corpus, rules);
  set_suppression_tracker(nullptr);
  if (all_rules) audit_suppressions(corpus, used, &findings);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

std::string render(const Finding& f, bool with_suggestion) {
  std::string s =
      f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " + f.message;
  if (with_suggestion && !f.suggestion.empty()) s += "\n    fix: " + f.suggestion;
  return s;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void print_json(const std::vector<Finding>& findings,
                const std::vector<std::string>& notes) {
  std::printf("{\n  \"findings\": [");
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    std::printf(
        "%s\n    {\"file\": \"%s\", \"line\": %d, \"rule\": \"%s\", "
        "\"message\": \"%s\", \"suggestion\": \"%s\"%s}",
        i ? "," : "", json_escape(f.file).c_str(), f.line,
        json_escape(f.rule).c_str(), json_escape(f.message).c_str(),
        json_escape(f.suggestion).c_str(),
        f.group.empty()
            ? ""
            : (", \"group\": \"" + json_escape(f.group) + "\"").c_str());
  }
  std::printf("\n  ],\n  \"notes\": [");
  for (std::size_t i = 0; i < notes.size(); ++i)
    std::printf("%s\n    \"%s\"", i ? "," : "", json_escape(notes[i]).c_str());
  std::printf("\n  ],\n  \"count\": %zu\n}\n", findings.size());
}

int run_fixtures(const fs::path& dir, const std::set<std::string>& rules,
                 bool all_rules) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    std::fprintf(stderr, "flexric-analyze: no such fixture dir: %s\n",
                 dir.string().c_str());
    return 2;
  }
  Corpus corpus;
  // Category = first path component under the fixture dir (src/, examples/,
  // ...), mirroring the real layout so the per-category rule gating applies.
  std::vector<fs::path> paths;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (ec) break;
    if (it->is_regular_file() && has_cpp_ext(it->path()))
      paths.push_back(it->path());
  }
  std::sort(paths.begin(), paths.end());
  for (const auto& p : paths) {
    FileUnit f;
    f.rel = to_rel(p, dir);
    auto slash = f.rel.find('/');
    f.category = slash == std::string::npos ? "src" : f.rel.substr(0, slash);
    f.lx = lex(slurp(p));
    corpus.files.push_back(std::move(f));
  }
  build_registry(corpus);
  std::vector<std::string> got;
  for (const auto& f : scan(corpus, rules, all_rules))
    got.push_back(render(f, false));

  std::vector<std::string> want;
  std::ifstream exp(dir / "expected.txt");
  if (!exp) {
    std::fprintf(stderr, "flexric-analyze: missing %s/expected.txt\n",
                 dir.string().c_str());
    return 2;
  }
  for (std::string line; std::getline(exp, line);) {
    if (line.empty() || line[0] == '#') continue;
    want.push_back(line);
  }
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  if (got == want) {
    std::printf("fixtures OK: %zu findings matched expected.txt\n", got.size());
    return 0;
  }
  std::printf("fixture mismatch:\n");
  for (const auto& g : got)
    if (!std::binary_search(want.begin(), want.end(), g))
      std::printf("  unexpected: %s\n", g.c_str());
  for (const auto& w : want)
    if (!std::binary_search(got.begin(), got.end(), w))
      std::printf("  missing:    %s\n", w.c_str());
  return 1;
}

/// Load `group count` lines ('#' comments allowed).
bool load_baseline(const fs::path& p, std::map<std::string, int>* out) {
  std::ifstream in(p);
  if (!in) return false;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    (*out)[line.substr(0, sp)] = std::atoi(line.c_str() + sp + 1);
  }
  return true;
}

}  // namespace

namespace {

/// Dogfood mode: run the full rule set over a flat directory (the analyzer's
/// own sources) as category "src". No baseline, no fixtures — clean or fail.
/// The directory is its own include root.
int run_self(const fs::path& dir, const std::set<std::string>& rules,
             bool all_rules) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    std::fprintf(stderr, "flexric-analyze: no such dir: %s\n",
                 dir.string().c_str());
    return 2;
  }
  Corpus corpus;
  std::vector<fs::path> paths;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (ec) break;
    if (it->is_regular_file() && has_cpp_ext(it->path()))
      paths.push_back(it->path());
  }
  std::sort(paths.begin(), paths.end());
  for (const auto& p : paths) {
    FileUnit f;
    f.rel = to_rel(p, dir);
    f.category = "src";
    f.lx = lex(slurp(p));
    corpus.files.push_back(std::move(f));
  }
  corpus.include_roots["src"] = {""};
  build_registry(corpus);
  auto findings = scan(corpus, rules, all_rules);
  for (const auto& f : findings)
    std::printf("%s\n", render(f, true).c_str());
  if (findings.empty()) {
    std::printf("flexric-analyze: self-scan clean (%zu files)\n",
                corpus.files.size());
    return 0;
  }
  std::printf("flexric-analyze: self-scan: %zu finding(s)\n", findings.size());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root;
  fs::path fixtures;
  fs::path self_dir;
  fs::path baseline_path;
  fs::path write_baseline_path;
  std::set<std::string> rules;
  bool all_rules = true;
  bool list_suppressions = false;
  bool fix_suggestions = false;
  bool json = false;

  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto need_val = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flexric-analyze: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--root") {
      root = need_val("--root");
    } else if (a == "--fixtures") {
      fixtures = need_val("--fixtures");
    } else if (a == "--self") {
      self_dir = need_val("--self");
    } else if (a == "--baseline") {
      baseline_path = need_val("--baseline");
    } else if (a == "--write-baseline") {
      write_baseline_path = need_val("--write-baseline");
    } else if (a == "--rule") {
      std::string r = need_val("--rule");
      bool known = false;
      for (const char* k : kAllRules)
        if (r == k) known = true;
      if (!known) {
        std::fprintf(stderr, "flexric-analyze: unknown rule '%s'\n", r.c_str());
        return 2;
      }
      rules.insert(r);
      all_rules = false;
    } else if (a == "--list") {
      list_suppressions = true;
    } else if (a == "--fix-suggestions") {
      fix_suggestions = true;
    } else if (a == "--json") {
      json = true;
    } else if (a == "--help" || a == "-h") {
      std::printf(
          "usage: flexric-analyze --root <repo> [--rule R]... [--list] "
          "[--fix-suggestions] [--json]\n"
          "       [--baseline <file>] [--write-baseline <file>]\n"
          "       flexric-analyze --fixtures <dir> [--rule R]...\n"
          "       flexric-analyze --self <dir>\n"
          "rules:\n");
      for (const char* k : kAllRules) std::printf("  %s\n", k);
      return 0;
    } else {
      std::fprintf(stderr, "flexric-analyze: unknown argument '%s'\n",
                   a.c_str());
      return 2;
    }
  }
  if (rules.empty())
    for (const char* k : kAllRules) rules.insert(k);

  if (!fixtures.empty()) return run_fixtures(fixtures, rules, all_rules);
  if (!self_dir.empty()) return run_self(self_dir, rules, all_rules);

  if (root.empty()) {
    std::fprintf(stderr,
                 "flexric-analyze: --root (or --fixtures / --self) required\n");
    return 2;
  }
  std::error_code ec;
  if (!fs::is_directory(root / "src", ec)) {
    std::fprintf(stderr, "flexric-analyze: %s does not look like the repo root\n",
                 root.string().c_str());
    return 2;
  }

  Corpus corpus;
  load_dir(corpus, root, "src", "src");
  load_dir(corpus, root, "fuzz", "fuzz");
  load_dir(corpus, root, "bench", "bench");
  load_dir(corpus, root, "examples", "examples");
  load_dir(corpus, root, "tests", "tests");
  build_registry(corpus);

  if (list_suppressions) {
    auto sups = collect_suppressions(corpus);
    std::printf("%zu suppression(s):\n", sups.size());
    int missing_reason = 0;
    for (const auto& s : sups) {
      std::printf("  %s:%d [%s] %s\n", s.file.c_str(), s.line, s.rule.c_str(),
                  s.reason.empty() ? "(NO REASON)" : s.reason.c_str());
      if (s.reason.empty()) ++missing_reason;
    }
    if (missing_reason > 0) {
      std::printf("%d suppression(s) missing a reason — reasons are "
                  "mandatory\n", missing_reason);
      return 1;
    }
    return 0;
  }

  auto findings = scan(corpus, rules, all_rules);
  std::vector<std::string> notes;

  // Hot-path allocation debt baseline: findings carrying a group key are
  // compared by (group, count), not line numbers, so unrelated edits don't
  // churn the file. Regressions (new group or higher count) fail.
  if (!baseline_path.empty()) {
    std::map<std::string, int> base;
    if (!load_baseline(baseline_path, &base)) {
      std::fprintf(stderr, "flexric-analyze: cannot read baseline %s\n",
                   baseline_path.string().c_str());
      return 2;
    }
    std::map<std::string, int> current;
    for (const auto& f : findings)
      if (!f.group.empty()) ++current[f.group];
    std::set<std::string> accepted;
    for (const auto& [g, n] : current) {
      auto it = base.find(g);
      if (it != base.end() && n <= it->second) {
        accepted.insert(g);
        if (n < it->second)
          notes.push_back("baseline: '" + g + "' improved (" +
                          std::to_string(it->second) + " -> " +
                          std::to_string(n) + "); regenerate with "
                          "--write-baseline");
      } else if (it != base.end()) {
        notes.push_back("baseline: '" + g + "' regressed (" +
                        std::to_string(it->second) + " -> " +
                        std::to_string(n) + ")");
      }
    }
    for (const auto& [g, n] : base)
      if (current.find(g) == current.end())
        notes.push_back("baseline: '" + g + "' no longer present; "
                        "regenerate with --write-baseline");
    findings.erase(std::remove_if(findings.begin(), findings.end(),
                                  [&](const Finding& f) {
                                    return !f.group.empty() &&
                                           accepted.count(f.group) != 0;
                                  }),
                   findings.end());
  }

  if (!write_baseline_path.empty()) {
    std::map<std::string, int> current;
    for (const auto& f : findings)
      if (!f.group.empty()) ++current[f.group];
    std::ofstream out(write_baseline_path);
    if (!out) {
      std::fprintf(stderr, "flexric-analyze: cannot write %s\n",
                   write_baseline_path.string().c_str());
      return 2;
    }
    out << "# Hot-path allocation debt, one `file|function|kind count` per "
           "line.\n"
           "# Regenerate with: flexric-analyze --root . --write-baseline "
           "tools/analyze/hotpath_baseline.txt\n"
           "# The analyze gate fails on any NEW entry or count increase "
           "(DESIGN.md §12).\n";
    for (const auto& [g, n] : current) out << g << ' ' << n << '\n';
    std::printf("flexric-analyze: wrote %zu baseline entr%s to %s\n",
                current.size(), current.size() == 1 ? "y" : "ies",
                write_baseline_path.string().c_str());
    return 0;
  }

  if (json) {
    print_json(findings, notes);
    return findings.empty() ? 0 : 1;
  }
  for (const auto& n : notes) std::printf("note: %s\n", n.c_str());
  for (const auto& f : findings)
    std::printf("%s\n", render(f, fix_suggestions).c_str());
  if (findings.empty()) {
    std::printf("flexric-analyze: clean (%zu files, %zu affine classes)\n",
                corpus.files.size(), corpus.affine_classes.size());
    return 0;
  }
  std::printf("flexric-analyze: %zu finding(s)\n", findings.size());
  return 1;
}
