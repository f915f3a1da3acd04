#include "perfeng/lint/baseline.hpp"

#include <fstream>
#include <sstream>

#include "perfeng/common/error.hpp"
#include "perfeng/common/json.hpp"

namespace pe::lint {

Baseline Baseline::load(const std::filesystem::path& path) {
  Baseline b;
  std::ifstream in(path, std::ios::binary);
  if (!in) return b;  // missing baseline: everything is new
  std::ostringstream text;
  text << in.rdbuf();
  try {
    const json::Value doc = json::parse(text.str());
    for (const json::Value& entry :
         doc.at("entries").expect(json::Value::Kind::kArray).items) {
      Finding f;
      f.rule = entry.at("rule").as_string();
      f.file = entry.at("file").as_string();
      f.message = entry.at("message").as_string();
      const json::Value* count = entry.find("count");
      b.counts_[finding_key(f)] +=
          count == nullptr ? 1 : static_cast<std::size_t>(count->as_uint());
    }
  } catch (const json::ParseError& e) {
    throw pe::Error("malformed baseline entry at " + path.string() + ":" +
                    std::to_string(e.line()) + ": " + e.reason());
  }
  return b;
}

std::string Baseline::serialize(const std::vector<Finding>& findings) {
  // Aggregate counts per identity, keep one representative finding for
  // the printable fields, emit sorted for diff stability.
  std::map<std::string, std::pair<Finding, std::size_t>> agg;
  for (const Finding& f : findings) {
    auto [it, fresh] = agg.try_emplace(finding_key(f), f, 0u);
    ++it->second.second;
    (void)fresh;
  }
  std::ostringstream os;
  os << "{\n"
     << "  \"tool\": \"perfeng-lint\",\n"
     << "  \"note\": \"accepted findings; CI fails only on findings not "
        "listed here. Regenerate with perfeng_lint <root> "
        "--write-baseline <file>\",\n"
     << "  \"entries\": [\n";
  std::size_t i = 0;
  for (const auto& [key, rep] : agg) {
    (void)key;
    const Finding& f = rep.first;
    os << "    {\"rule\":" << json::quote(f.rule)
       << ",\"file\":" << json::quote(f.file)
       << ",\"message\":" << json::quote(f.message)
       << ",\"count\":" << rep.second << "}"
       << (++i < agg.size() ? "," : "") << '\n';
  }
  os << "  ]\n"
     << "}\n";
  return os.str();
}

std::vector<Finding> Baseline::new_findings(
    const std::vector<Finding>& findings) const {
  std::map<std::string, std::size_t> used;
  std::vector<Finding> out;
  for (const Finding& f : findings) {
    const std::string key = finding_key(f);
    const auto it = counts_.find(key);
    const std::size_t budget = it == counts_.end() ? 0 : it->second;
    if (used[key] < budget) {
      ++used[key];
      continue;
    }
    out.push_back(f);
  }
  return out;
}

std::size_t Baseline::total_entries() const noexcept {
  std::size_t n = 0;
  for (const auto& [key, count] : counts_) {
    (void)key;
    n += count;
  }
  return n;
}

}  // namespace pe::lint
