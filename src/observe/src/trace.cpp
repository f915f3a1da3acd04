#include "perfeng/observe/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>

#include "perfeng/common/error.hpp"
#include "perfeng/common/json.hpp"

// Capture format (docs/observability.md): line 1 is a header object, every
// further line is one event object, each a standard JSON document on its
// own line so offline tooling (jq, python) reads it directly:
//
//   {"pe_trace":1,"lanes":9,"recorded":1234,"dropped":0,"events":1234}
//   {"ns":17,"kind":"chunk_start","lane":3,"obj":"0x7ffd","a":0,"b":128,
//    "file":"bench/x.cpp","line":42}

namespace pe::observe {

std::size_t Trace::count(TraceEventKind kind) const noexcept {
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(),
                    [kind](const TraceRecord& e) { return e.kind == kind; }));
}

namespace {

void write_event(std::ostream& out, const TraceRecord& e) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"ns\":%" PRIu64 ",\"kind\":\"%s\",\"lane\":%u,"
                "\"obj\":\"%p\",\"a\":%" PRIu64 ",\"b\":%" PRIu64,
                e.ns, trace_event_kind_name(e.kind), e.lane,
                e.obj, e.a, e.b);
  out << buf;
  if (e.file != nullptr) {
    out << ",\"file\":" << json::quote(e.file) << ",\"line\":" << e.line;
  }
  out << "}\n";
}

TraceEventKind kind_from_value(const json::Value& v) {
  for (std::size_t k = 0; k < kTraceEventKinds; ++k) {
    const auto kind = static_cast<TraceEventKind>(k);
    if (v.as_string() == trace_event_kind_name(kind)) return kind;
  }
  json::fail(v, "unknown event kind '" + v.as_string() + "'");
}

std::uint64_t uint_or(const json::Value& obj, std::string_view key,
                      std::uint64_t fallback) {
  const json::Value* v = obj.find(key);
  return v == nullptr ? fallback : v->as_uint();
}

}  // namespace

void Trace::save(std::ostream& out) const {
  out << "{\"pe_trace\":1,\"lanes\":" << lanes << ",\"recorded\":" << recorded
      << ",\"dropped\":" << dropped << ",\"events\":" << events.size()
      << "}\n";
  for (const TraceRecord& e : events) write_event(out, e);
}

void Trace::save_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot open trace capture '" + path + "' to write");
  save(out);
}

Trace Trace::load(std::istream& in) {
  Trace trace;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    try {
      const json::Value obj = json::parse(line);
      if (lineno == 1) {
        if (obj.at("pe_trace").as_uint() != 1)
          throw Error("trace capture: unsupported pe_trace version");
        trace.lanes = static_cast<std::size_t>(obj.at("lanes").as_uint());
        trace.recorded = obj.at("recorded").as_uint();
        trace.dropped = obj.at("dropped").as_uint();
        continue;
      }
      TraceRecord e;
      e.ns = obj.at("ns").as_uint();
      e.kind = kind_from_value(obj.at("kind"));
      e.lane = static_cast<std::uint32_t>(obj.at("lane").as_uint());
      e.a = uint_or(obj, "a", 0);
      e.b = uint_or(obj, "b", 0);
      if (const json::Value* objkey = obj.find("obj")) {
        std::uint64_t ptr = 0;
        std::sscanf(objkey->as_string().c_str(), "%" SCNx64, &ptr);
        e.obj = reinterpret_cast<const void*>(  // NOLINT: correlation key only
            static_cast<std::uintptr_t>(ptr));
      }
      if (const json::Value* file = obj.find("file")) {
        // Many events share a site: intern the path in the trace's pool.
        e.file = trace.string_pool.insert(file->as_string()).first->c_str();
        e.line = static_cast<std::uint32_t>(uint_or(obj, "line", 0));
      }
      trace.events.push_back(e);
    } catch (const json::ParseError& err) {
      throw Error("trace capture line " + std::to_string(lineno) + ": " +
                  err.reason());
    }
  }
  if (lineno == 0) throw Error("trace capture: empty input");
  std::stable_sort(trace.events.begin(), trace.events.end(),
                   [](const TraceRecord& x, const TraceRecord& y) {
                     return x.ns < y.ns;
                   });
  return trace;
}

Trace Trace::load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open trace capture '" + path + "'");
  return load(in);
}

}  // namespace pe::observe
