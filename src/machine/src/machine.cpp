#include "perfeng/machine/machine.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <utility>

#include "perfeng/common/error.hpp"
#include "perfeng/common/json.hpp"
#include "perfeng/common/table.hpp"
#include "perfeng/common/units.hpp"

namespace pe::machine {

namespace {

// --- canonical double formatting -------------------------------------------
// Shortest decimal form that round-trips through strtod exactly, so the
// serialized form is both human-readable and lossless, and re-serializing a
// parsed machine is byte-identical (the byte-stability contract).
std::string format_double(double v) {
  char buf[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

// --- DOM -> Machine mapping ------------------------------------------------

using json::Value;

MemoryLevel level_from_value(const Value& v) {
  v.expect(Value::Kind::kObject);
  MemoryLevel level;
  bool saw_name = false, saw_bandwidth = false;
  for (const Value& item : v.items) {
    const std::string& key = item.key;
    if (key == "level") {
      level.name = item.as_string();
      saw_name = true;
    } else if (key == "bandwidth") {
      level.bandwidth = item.as_number();
      saw_bandwidth = true;
    } else if (key == "latency") {
      level.latency = item.as_number();
    } else if (key == "capacity") {
      level.capacity = static_cast<std::size_t>(item.as_uint());
    } else if (key == "line_bytes") {
      level.line_bytes = static_cast<std::size_t>(item.as_uint());
    } else {
      json::fail(item, "unknown hierarchy key '" + key + "'");
    }
  }
  if (!saw_name) json::fail(v, "hierarchy entry missing 'level'");
  if (!saw_bandwidth) json::fail(v, "hierarchy entry missing 'bandwidth'");
  return level;
}

/// Read the object `section` whose every member is a number, storing each
/// through the pointer `fields` pairs with its key.
void read_numbers(
    const Value& section,
    std::initializer_list<std::pair<std::string_view, double*>> fields) {
  for (const Value& e : section.expect(Value::Kind::kObject).items) {
    const auto field =
        std::find_if(fields.begin(), fields.end(),
                     [&e](const auto& f) { return f.first == e.key; });
    if (field == fields.end())
      json::fail(e, "unknown " + section.key + " key '" + e.key + "'");
    *field->second = e.as_number();
  }
}

Machine machine_from_value(const Value& doc) {
  doc.expect(Value::Kind::kObject);
  Machine m;
  bool saw_name = false, saw_peak = false, saw_hierarchy = false;
  for (const Value& v : doc.items) {
    const std::string& key = v.key;
    if (key == "name") {
      m.name = v.as_string();
      saw_name = true;
    } else if (key == "description") {
      m.description = v.as_string();
    } else if (key == "source") {
      m.source = v.as_string();
    } else if (key == "peak_flops") {
      m.peak_flops = v.as_number();
      saw_peak = true;
    } else if (key == "cores") {
      m.cores = static_cast<unsigned>(v.as_uint());
    } else if (key == "hierarchy") {
      for (const Value& item : v.expect(Value::Kind::kArray).items)
        m.hierarchy.push_back(level_from_value(item));
      saw_hierarchy = true;
    } else if (key == "energy") {
      read_numbers(v, {{"static_watts", &m.static_watts},
                       {"peak_dynamic_watts", &m.peak_dynamic_watts}});
    } else if (key == "link") {
      read_numbers(v, {{"alpha", &m.link_alpha}, {"beta", &m.link_beta}});
    } else if (key == "simd") {
      for (const Value& e : v.expect(Value::Kind::kObject).items) {
        if (e.key == "width_bits") {
          m.simd_width_bits = static_cast<unsigned>(e.as_uint());
        } else if (e.key == "fma") {
          m.simd_fma = e.as_bool();
        } else {
          json::fail(e, "unknown simd key '" + e.key + "'");
        }
      }
    } else if (key == "scheduler") {
      read_numbers(v, {{"submit_ns", &m.sched_submit_ns},
                       {"bulk_ns", &m.sched_bulk_ns}});
    } else {
      json::fail(v, "unknown key '" + key + "'");
    }
  }
  if (!saw_name) json::fail(doc, "missing required key 'name'");
  if (!saw_peak) json::fail(doc, "missing required key 'peak_flops'");
  if (!saw_hierarchy) json::fail(doc, "missing required key 'hierarchy'");
  return m;
}

}  // namespace

const MemoryLevel& Machine::dram() const {
  PE_REQUIRE(!hierarchy.empty(), "machine has no memory hierarchy");
  return hierarchy.back();
}

const MemoryLevel& Machine::fastest() const {
  PE_REQUIRE(!hierarchy.empty(), "machine has no memory hierarchy");
  return hierarchy.front();
}

std::size_t Machine::largest_cache_bytes() const {
  std::size_t best = 0;
  for (std::size_t i = 0; i + 1 < hierarchy.size(); ++i)
    if (hierarchy[i].capacity > best) best = hierarchy[i].capacity;
  return best > 0 ? best : (std::size_t{1} << 21);
}

double Machine::ridge_intensity() const {
  const double bw = dram_bandwidth();
  return bw > 0.0 ? peak_flops / bw : 0.0;
}

void Machine::check() const {
  PE_REQUIRE(!name.empty(), "machine needs a name");
  PE_REQUIRE(peak_flops > 0.0, "peak FLOP/s must be positive");
  PE_REQUIRE(cores >= 1, "machine needs at least one core");
  PE_REQUIRE(!hierarchy.empty(), "machine needs a memory hierarchy");
  PE_REQUIRE(static_watts >= 0.0 && peak_dynamic_watts >= 0.0,
             "energy coefficients must be non-negative");
  PE_REQUIRE(link_alpha >= 0.0 && link_beta >= 0.0,
             "link coefficients must be non-negative");
  PE_REQUIRE(sched_submit_ns >= 0.0 && sched_bulk_ns >= 0.0,
             "scheduler dispatch costs must be non-negative");
  PE_REQUIRE(simd_width_bits % 64 == 0,
             "SIMD width must be a whole number of 64-bit lanes");
  PE_REQUIRE(!simd_fma || simd_width_bits > 0,
             "FMA without a SIMD width is not a calibration this layer "
             "can represent");
  std::vector<MemoryLevel> seen;
  seen.reserve(hierarchy.size());
  for (std::size_t i = 0; i < hierarchy.size(); ++i) {
    const MemoryLevel& level = hierarchy[i];
    PE_REQUIRE(!level.name.empty(), "hierarchy level needs a name");
    require_unique_name(seen, level.name, "hierarchy level");
    seen.push_back(level);
    PE_REQUIRE(level.bandwidth > 0.0, "level bandwidth must be positive");
    PE_REQUIRE(level.latency >= 0.0, "level latency must be non-negative");
    PE_REQUIRE(level.line_bytes > 0, "level line size must be positive");
    const bool last = i + 1 == hierarchy.size();
    PE_REQUIRE(last || level.capacity > 0,
               "cache level needs a capacity (0 is only valid for the "
               "last level)");
    if (i > 0) {
      const MemoryLevel& faster = hierarchy[i - 1];
      PE_REQUIRE(level.bandwidth <= faster.bandwidth,
                 "hierarchy bandwidth must not increase toward memory");
      PE_REQUIRE(level.capacity == 0 || faster.capacity == 0 ||
                     level.capacity > faster.capacity,
                 "hierarchy capacity must increase toward memory");
      PE_REQUIRE(level.latency == 0.0 || faster.latency == 0.0 ||
                     level.latency >= faster.latency,
                 "hierarchy latency must not decrease toward memory");
    }
  }
}

std::string Machine::summary() const {
  std::ostringstream ss;
  ss << name << ": peak " << format_flops(peak_flops) << "/core x " << cores
     << ", DRAM " << format_bandwidth(dram_bandwidth()) << ", ridge "
     << format_sig(ridge_intensity(), 3) << " FLOP/B";
  for (std::size_t i = 0; i + 1 < hierarchy.size(); ++i) {
    ss << ", " << hierarchy[i].name << " "
       << format_bytes(hierarchy[i].capacity);
  }
  return ss.str();
}

std::string Machine::calibration_hash() const {
  // FNV-1a over the canonical JSON form: platform-stable, and any change
  // to any calibrated number changes the hash.
  const std::string canonical = to_json(*this);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : canonical) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string to_json(const Machine& m) {
  using json::quote;
  std::ostringstream ss;
  ss << "{\n";
  ss << "  \"name\": " << quote(m.name) << ",\n";
  ss << "  \"description\": " << quote(m.description) << ",\n";
  ss << "  \"source\": " << quote(m.source) << ",\n";
  ss << "  \"peak_flops\": " << format_double(m.peak_flops) << ",\n";
  ss << "  \"cores\": " << m.cores << ",\n";
  ss << "  \"hierarchy\": [";
  for (std::size_t i = 0; i < m.hierarchy.size(); ++i) {
    const MemoryLevel& level = m.hierarchy[i];
    ss << (i == 0 ? "\n" : ",\n");
    ss << "    { \"level\": " << quote(level.name)
       << ", \"bandwidth\": " << format_double(level.bandwidth)
       << ", \"latency\": " << format_double(level.latency)
       << ", \"capacity\": " << level.capacity
       << ", \"line_bytes\": " << level.line_bytes << " }";
  }
  ss << "\n  ]";
  if (m.has_energy()) {
    ss << ",\n  \"energy\": { \"static_watts\": "
       << format_double(m.static_watts) << ", \"peak_dynamic_watts\": "
       << format_double(m.peak_dynamic_watts) << " }";
  }
  if (m.has_link()) {
    ss << ",\n  \"link\": { \"alpha\": " << format_double(m.link_alpha)
       << ", \"beta\": " << format_double(m.link_beta) << " }";
  }
  if (m.has_scheduler()) {
    ss << ",\n  \"scheduler\": { \"submit_ns\": "
       << format_double(m.sched_submit_ns)
       << ", \"bulk_ns\": " << format_double(m.sched_bulk_ns) << " }";
  }
  if (m.has_simd()) {
    ss << ",\n  \"simd\": { \"width_bits\": " << m.simd_width_bits
       << ", \"fma\": " << (m.simd_fma ? "true" : "false") << " }";
  }
  ss << "\n}\n";
  return ss.str();
}

Machine from_json(std::string_view text, std::string_view source) {
  Machine m;
  try {
    m = machine_from_value(json::parse(text));
  } catch (const json::ParseError& e) {
    throw Error("machine: " + std::string(source) + ": " + e.what());
  }
  m.check();
  return m;
}

void save_json_file(const Machine& m, const std::string& path) {
  m.check();
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("machine: cannot open '" + path + "' for writing");
  const std::string text = to_json(m);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) throw Error("machine: failed writing '" + path + "'");
}

Machine load_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("machine: cannot open '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return from_json(ss.str(), path);
}

}  // namespace pe::machine
