#pragma once

/// \file render.hpp
/// Renderers over the structured findings: terminal text, line-JSON for
/// scripting, and SARIF 2.1.0 for CI annotation and artifact upload.

#include <cstddef>
#include <string>
#include <vector>

#include "perfeng/lint/finding.hpp"
#include "perfeng/lint/pass.hpp"

namespace pe::lint {

/// Classic `file:line: [rule] message` listing plus a summary line.
[[nodiscard]] std::string render_text(const std::vector<Finding>& findings,
                                      std::size_t files_scanned);

/// One JSON object per line:
/// {"file":...,"line":N,"rule":...,"severity":...,"message":...,
///  "fix_hint":...}
[[nodiscard]] std::string render_jsonl(const std::vector<Finding>& findings);

/// A single-run SARIF 2.1.0 log. `rules` populates the tool driver's
/// rules array; results reference them by ruleId/ruleIndex.
[[nodiscard]] std::string render_sarif(const std::vector<Finding>& findings,
                                       const std::vector<RuleInfo>& rules);

}  // namespace pe::lint
