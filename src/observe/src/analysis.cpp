#include "perfeng/observe/analysis.hpp"

#include <algorithm>
#include <map>
#include <sstream>

namespace pe::observe {

std::vector<HistogramBucket> log2_histogram(
    const std::vector<double>& samples_ns) {
  std::vector<HistogramBucket> buckets;
  if (samples_ns.empty()) return buckets;
  const double top = *std::max_element(samples_ns.begin(), samples_ns.end());
  std::uint64_t hi = 1;
  buckets.push_back({0, 1, 0});
  while (static_cast<double>(hi) <= top) {
    buckets.push_back({hi, hi * 2, 0});
    hi *= 2;
  }
  for (double s : samples_ns) {
    const auto v = static_cast<std::uint64_t>(std::max(0.0, s));
    std::size_t b = 0;
    while (b + 1 < buckets.size() && v >= buckets[b].hi_ns) ++b;
    ++buckets[b].count;
  }
  return buckets;
}

LatencyReport scheduler_latency(const Trace& trace) {
  LatencyReport report;
  // Latest submit timestamp per correlation key. Stack-allocated loop
  // records are reused across loops, so "latest preceding submit" (the
  // events are time-sorted) is the correct match, not "first".
  std::map<const void*, std::uint64_t> last_submit;
  for (const TraceRecord& e : trace.events) {
    if (e.kind == TraceEventKind::kSubmit) {
      last_submit[e.obj] = e.ns;
    } else if (e.kind == TraceEventKind::kTaskStart) {
      const auto it = last_submit.find(e.obj);
      if (it == last_submit.end() || it->second > e.ns) {
        ++report.unmatched_starts;
        continue;
      }
      report.samples_ns.push_back(static_cast<double>(e.ns - it->second));
    }
  }
  if (!report.samples_ns.empty()) {
    report.summary = pe::summarize(report.samples_ns);
    report.p50_ns = percentile(report.samples_ns, 50.0);
    report.p95_ns = percentile(report.samples_ns, 95.0);
    report.p99_ns = percentile(report.samples_ns, 99.0);
  }
  return report;
}

Table LatencyReport::to_table() const {
  Table t({"submit->start (ns)", "count"});
  for (const HistogramBucket& b : log2_histogram(samples_ns)) {
    if (b.count == 0) continue;
    t.add_row({std::string("[")
                   .append(std::to_string(b.lo_ns))
                   .append(", ")
                   .append(std::to_string(b.hi_ns))
                   .append(")"),
               std::to_string(b.count)});
  }
  t.add_row({"p50", format_sig(p50_ns, 4)});
  t.add_row({"p95", format_sig(p95_ns, 4)});
  t.add_row({"p99", format_sig(p99_ns, 4)});
  return t;
}

ContentionReport contention_profile(const Trace& trace) {
  struct LaneState {
    LaneContention out;
    std::uint64_t park_since = 0;
    bool parked = false;
  };
  std::map<std::uint32_t, LaneState> lanes;
  for (const TraceRecord& e : trace.events) {
    LaneState& state = lanes[e.lane];
    state.out.lane = e.lane;
    switch (e.kind) {
      case TraceEventKind::kPark:
        state.parked = true;
        state.park_since = e.ns;
        break;
      case TraceEventKind::kUnpark:
        if (state.parked) {
          ++state.out.parks;
          state.out.park_ns += static_cast<double>(e.ns - state.park_since);
          state.parked = false;
        }
        break;
      case TraceEventKind::kContended:
        ++state.out.contended;
        break;
      case TraceEventKind::kSteal:
        ++state.out.steals;
        break;
      default:
        break;
    }
  }
  ContentionReport report;
  for (const auto& [lane, state] : lanes) {
    report.lanes.push_back(state.out);
    report.total_parks += state.out.parks;
    report.total_park_ns += state.out.park_ns;
    report.total_contended += state.out.contended;
    report.total_steals += state.out.steals;
  }
  return report;
}

Table ContentionReport::to_table() const {
  Table t({"lane", "parks", "park us", "contended", "steals"});
  for (const LaneContention& lane : lanes)
    t.add_row({std::to_string(lane.lane), std::to_string(lane.parks),
               format_sig(lane.park_ns / 1e3, 4),
               std::to_string(lane.contended), std::to_string(lane.steals)});
  t.add_row({"total", std::to_string(total_parks),
             format_sig(total_park_ns / 1e3, 4),
             std::to_string(total_contended), std::to_string(total_steals)});
  return t;
}

TraceSummary summarize(const Trace& trace) {
  TraceSummary s;
  s.events = trace.events.size();
  s.dropped = trace.dropped;
  const LatencyReport latency = scheduler_latency(trace);
  s.latency_p50_ns = latency.p50_ns;
  s.latency_p95_ns = latency.p95_ns;
  s.latency_p99_ns = latency.p99_ns;
  const ContentionReport contention = contention_profile(trace);
  s.parks = contention.total_parks;
  s.park_ns = contention.total_park_ns;
  s.contended = contention.total_contended;
  s.steals = contention.total_steals;
  return s;
}

std::string TraceSummary::one_line() const {
  std::ostringstream ss;
  ss << events << " events (" << dropped << " dropped), submit->start p50 "
     << format_sig(latency_p50_ns, 3) << " ns / p95 "
     << format_sig(latency_p95_ns, 3) << " ns / p99 "
     << format_sig(latency_p99_ns, 3) << " ns, " << parks << " parks ("
     << format_sig(park_ns / 1e6, 3) << " ms), " << contended
     << " contended acquisitions, " << steals << " steals";
  return ss.str();
}

void annotate(Experiment& experiment, const TraceSummary& summary) {
  experiment.set_provenance("sched_p50_ns", format_sig(summary.latency_p50_ns, 4));
  experiment.set_provenance("sched_p99_ns", format_sig(summary.latency_p99_ns, 4));
  experiment.set_provenance("parks", std::to_string(summary.parks));
  experiment.set_provenance("steals", std::to_string(summary.steals));
  experiment.set_provenance("contended", std::to_string(summary.contended));
  experiment.set_provenance("trace_dropped", std::to_string(summary.dropped));
}

}  // namespace pe::observe
