// cad_lint: repo-convention linter for the CAD tree.
//
// Scans src/, tests/, bench/, tools/, and examples/ under --root for C++
// sources and enforces the conventions documented in src/lint/lint.h. Two
// passes run: the per-file token-stream rules (include guards, banned calls,
// header hygiene, [[nodiscard]] on Status/Result returns, nondeterminism
// containment, lock discipline) and the repo-wide include-graph rules
// (layering against the declared layer DAG, include cycles, self- and
// duplicate includes; see src/lint/include_graph.h). Registered as a ctest
// so the tree cannot drift; every finding carries a file:line and an inline
// escape hatch (`// cad-lint: allow(<rule>)`) for reviewed exceptions.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/result.h"
#include "common/strings.h"
#include "lint/include_graph.h"
#include "lint/lint.h"

namespace cad {
namespace {

namespace fs = std::filesystem;

constexpr const char* kScanDirs[] = {"src", "tests", "bench", "tools",
                                     "examples"};

bool IsLintableFile(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp";
}

// Repo-relative path with forward slashes (rule scoping keys off it).
std::string RelativePath(const fs::path& path, const fs::path& root) {
  return fs::relative(path, root).generic_string();
}

Result<std::string> ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Parses a comma-separated rule list, validating every id against the
// catalog. Returns false (after printing to stderr) on an unknown rule.
bool ParseRuleList(const std::string& flag_name, const std::string& value,
                   std::set<std::string>* out) {
  for (const std::string& id : Split(value, ',')) {
    if (id.empty()) continue;
    if (!lint::IsKnownRule(id)) {
      std::cerr << "cad_lint: --" << flag_name << " names unknown rule '" << id
                << "'; known rules:";
      for (const lint::RuleInfo& rule : lint::RuleCatalog()) {
        std::cerr << " " << rule.id;
      }
      std::cerr << "\n";
      return false;
    }
    out->insert(id);
  }
  return true;
}

int Run(int argc, char** argv) {
  std::string root = ".";
  std::string format = "text";
  std::string disable;
  std::string only;
  bool quiet = false;
  FlagParser flags;
  flags.AddString("root", &root, "repo root containing src/, tests/, ...");
  flags.AddString("format", &format,
                  "output format: text, json, or github (CI annotations)");
  flags.AddString("disable", &disable,
                  "comma-separated rule ids to skip (see src/lint/lint.h)");
  flags.AddString("only", &only,
                  "comma-separated rule ids to run exclusively");
  flags.AddBool("quiet", &quiet, "print only the finding count");
  if (const std::optional<int> exit = ParseToolFlags(&flags, argc, argv)) {
    return *exit;
  }
  if (format != "text" && format != "json" && format != "github") {
    std::cerr << "cad_lint: --format must be text, json, or github\n";
    return 2;
  }
  std::set<std::string> disabled;
  std::set<std::string> only_rules;
  if (!ParseRuleList("disable", disable, &disabled) ||
      !ParseRuleList("only", only, &only_rules)) {
    return 2;
  }
  const auto rule_enabled = [&](const std::string& rule) {
    if (disabled.count(rule) > 0) return false;
    return only_rules.empty() || only_rules.count(rule) > 0;
  };

  const fs::path root_path(root);
  if (!fs::is_directory(root_path)) {
    std::cerr << "cad_lint: --root " << root << " is not a directory\n";
    return 2;
  }

  std::vector<std::string> paths;
  for (const char* dir : kScanDirs) {
    const fs::path scan_dir = root_path / dir;
    if (!fs::is_directory(scan_dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(scan_dir)) {
      if (entry.is_regular_file() && IsLintableFile(entry.path())) {
        paths.push_back(entry.path().string());
      }
    }
  }
  std::sort(paths.begin(), paths.end());

  // Pass 1: per-file token rules. File contents are kept for pass 2.
  std::vector<lint::SourceFile> files;
  files.reserve(paths.size());
  std::vector<lint::Finding> findings;
  for (const std::string& path : paths) {
    Result<std::string> content = ReadFile(path);
    if (!content.ok()) {
      std::cerr << "cad_lint: " << content.status() << "\n";
      return 2;
    }
    const std::string rel_path = RelativePath(path, root_path);
    for (lint::Finding& finding : lint::LintContent(rel_path, *content)) {
      if (rule_enabled(finding.rule)) findings.push_back(std::move(finding));
    }
    files.push_back(lint::SourceFile{rel_path, *std::move(content)});
  }

  // Pass 2: repo-wide include graph (layering, cycles, self/duplicate).
  for (lint::Finding& finding : lint::AnalyzeIncludeGraph(files)) {
    if (rule_enabled(finding.rule)) findings.push_back(std::move(finding));
  }
  lint::SortFindings(&findings);

  if (format == "json") {
    lint::WriteFindingsJson(findings, &std::cout);
  } else if (!quiet) {
    for (const lint::Finding& finding : findings) {
      std::cout << (format == "github" ? lint::FormatFindingGithub(finding)
                                       : lint::FormatFinding(finding))
                << "\n";
    }
  }
  if (format != "json") {
    std::cout << "cad_lint: scanned " << files.size() << " files, "
              << findings.size() << " finding(s)\n";
  }
  return findings.empty() ? 0 : 1;
}

}  // namespace
}  // namespace cad

int main(int argc, char** argv) { return cad::Run(argc, argv); }
