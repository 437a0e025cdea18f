#include "api/format.hpp"

#include <sstream>

#include "support/table.hpp"

namespace spivar::api {

namespace {

std::string join(const std::vector<std::string>& names, const char* sep = ", ") {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += sep;
    out += name;
  }
  return out;
}

}  // namespace

std::string render(const ModelInfo& info) {
  std::ostringstream os;
  os << info.name << " (" << info.origin << "): " << info.processes << " processes, "
     << info.channels << " channels";
  if (info.has_variants()) {
    os << ", " << info.interfaces << " interfaces, " << info.clusters << " clusters";
  }
  os << "\n";
  return os.str();
}

namespace {

std::string micros_string(std::uint64_t us) {
  return support::Duration{static_cast<std::int64_t>(us)}.to_string();
}

}  // namespace

std::string render(const CacheStats& stats) {
  support::TextTable table{{"hits", "misses", "hit rate", "evictions", "entries", "capacity"}};
  table.add_row({std::to_string(stats.hits), std::to_string(stats.misses),
                 support::format_double(stats.hit_rate() * 100.0, 1) + "%",
                 std::to_string(stats.evictions), std::to_string(stats.entries),
                 std::to_string(stats.capacity)});
  // Cost accounting of the cost-aware admission policy: eval time currently
  // held, eval time hits have returned without re-running, and eval time
  // eviction threw away — plus the eviction cost window in effect and how
  // often adaptive tuning has moved it.
  support::TextTable costs{
      {"cached cost", "saved cost", "evicted cost", "cost window", "adaptations"}};
  costs.add_row({micros_string(stats.cached_cost_us), micros_string(stats.saved_cost_us),
                 micros_string(stats.evicted_cost_us), std::to_string(stats.cost_window),
                 std::to_string(stats.window_adaptations)});
  if (!stats.persistent) return table.to_string() + costs.to_string();
  support::TextTable disk{{"disk hits", "disk misses", "spills", "promotes", "skipped",
                           "disk evictions", "disk entries", "disk bytes", "disk capacity"}};
  disk.add_row({std::to_string(stats.disk_hits), std::to_string(stats.disk_misses),
                std::to_string(stats.disk_spills), std::to_string(stats.disk_promotes),
                std::to_string(stats.disk_skipped), std::to_string(stats.disk_evictions),
                std::to_string(stats.disk_entries), std::to_string(stats.disk_bytes),
                std::to_string(stats.disk_capacity_bytes)});
  // The spill queue gets its own table (not extra disk columns): scripts
  // parse the disk table positionally, and sync tiers have no queue at all.
  support::TextTable queue{{"spill mode", "queue depth", "queue capacity", "dropped spills"}};
  queue.add_row({stats.disk_async ? "async" : "sync", std::to_string(stats.disk_queue_depth),
                 std::to_string(stats.disk_queue_capacity),
                 std::to_string(stats.disk_dropped_spills)});
  return table.to_string() + costs.to_string() + disk.to_string() + queue.to_string();
}

std::string render(const ExecutorStats& stats) {
  support::TextTable table{{"completed", "deadline misses", "miss rate", "max lateness",
                            "total lateness"}};
  table.add_row(
      {std::to_string(stats.completed), std::to_string(stats.deadline_misses),
       support::format_double(stats.miss_rate() * 100.0, 1) + "%",
       micros_string(static_cast<std::uint64_t>(stats.max_lateness.count())),
       micros_string(static_cast<std::uint64_t>(stats.total_lateness.count()))});
  return table.to_string();
}

std::string render(const ValidateResponse& response) {
  if (response.clean()) return "clean: no findings\n";
  return render_diagnostics(response.findings);
}

std::string render(const SimulateResponse& response) {
  std::ostringstream os;
  os << "end time " << response.result.end_time << ", " << response.result.total_firings
     << " firings, " << (response.result.quiescent ? "quiescent" : "stopped on limit") << "\n\n";

  support::TextTable processes{{"process", "firings", "busy", "reconfigs"}};
  for (const auto& row : response.processes) {
    processes.add_row({row.name, std::to_string(row.firings), row.busy.to_string(),
                       std::to_string(row.reconfigurations)});
  }
  os << processes << "\n";

  support::TextTable channels{{"channel", "produced", "consumed", "left", "max"}};
  for (const auto& row : response.channels) {
    channels.add_row({row.name, std::to_string(row.produced), std::to_string(row.consumed),
                      std::to_string(row.occupancy), std::to_string(row.max_occupancy)});
  }
  os << channels;

  for (const auto& c : response.result.constraints) {
    os << "constraint " << c.name << ": observed " << c.observed << " bound " << c.bound
       << (c.satisfied ? " OK" : " VIOLATED") << "\n";
  }
  if (!response.timeline.empty()) os << "\n" << response.timeline;
  return os.str();
}

std::string render(const AnalyzeResponse& response) {
  std::ostringstream os;
  bool first = true;
  const auto section = [&](const char* title) {
    if (!first) os << "\n";
    first = false;
    os << "== " << title << " ==\n";
  };

  if (response.passes.deadlock) {
    section("deadlock");
    if (response.deadlock_free()) {
      os << "no structural deadlock\n";
    } else {
      for (const auto& d : response.deadlocks) os << d.description << "\n";
    }
  }

  if (response.passes.buffers) {
    section("channel flows");
    support::TextTable table{{"channel", "class", "max inflow/ms", "min drain/ms"}};
    for (const auto& flow : response.buffer_flows) {
      table.add_row({flow.name, analysis::to_string(flow.flow),
                     support::format_double(flow.max_inflow),
                     support::format_double(flow.min_drain)});
    }
    os << table;
  }

  if (response.passes.timing) {
    section("timing");
    if (response.latency_checks.empty()) os << "no latency constraints\n";
    for (const auto& check : response.latency_checks) {
      os << check.constraint << ": path latency " << check.path_latency.to_string() << ", bound "
         << check.bound.to_string() << (check.guaranteed ? " -> guaranteed" : " -> NOT guaranteed")
         << "\n";
    }
  }

  if (response.passes.structure) {
    section("structure");
    os << (response.structure.acyclic ? "acyclic" : "cyclic") << ", "
       << response.structure.components << " component(s)\n";
    os << "sources: " << join(response.structure.sources) << "\n";
    os << "sinks:   " << join(response.structure.sinks) << "\n";
    if (!response.structure.dead.empty()) {
      os << "dead:    " << join(response.structure.dead) << "\n";
    }
  }
  return os.str();
}

std::string render(const ExploreResponse& response) {
  std::ostringstream os;
  const auto& r = response.result;
  os << "problem " << response.problem << ": " << response.applications << " application(s), "
     << response.elements << " element(s), library " << response.library_origin << "\n";
  os << "engine " << r.engine << ": " << (r.found_feasible ? "feasible" : "NO feasible mapping")
     << ", cost " << support::format_double(r.cost.total) << " (processor "
     << support::format_double(r.cost.processor_cost) << " + asic "
     << support::format_double(r.cost.asic_cost) << "), utilization "
     << support::format_double(r.cost.worst_utilization) << "\n";
  os << r.decisions << " decisions, " << r.evaluations << " evaluations\n";

  support::TextTable table{{"element", "target"}};
  for (const auto& [element, target] : r.mapping.assignments()) {
    table.add_row({element, synth::to_string(target)});
  }
  os << table;
  return os.str();
}

std::string render(const ParetoResponse& response) {
  std::ostringstream os;
  os << response.points.size() << " non-dominated point(s) over " << response.applications
     << " application(s), library " << response.library_origin << "\n";
  support::TextTable table{{"cost", "worst latency", "hw elements"}};
  for (const auto& point : response.points) {
    table.add_row({support::format_double(point.cost), point.worst_latency.to_string(),
                   join(point.mapping.elements_on(synth::Target::kHardware), ",")});
  }
  os << table;
  return os.str();
}

std::string render(const CompareResponse& response) {
  std::ostringstream os;
  os << "strategy comparison on " << response.model << " (" << response.problem << "): "
     << response.applications << " application(s), library " << response.library_origin << "\n";

  support::TextTable table{
      {"strategy", "scope", "total", "software", "hardware", "decisions", "orders", "feasible"}};
  for (const auto& row : response.rows) {
    const auto& cost = row.outcome.cost;
    std::string orders = std::to_string(row.orders_tried);
    if (row.orders_tried > 1 && row.worst_total != cost.total) {
      orders += " (worst " + support::format_double(row.worst_total, 0) + ")";
    }
    table.add_row({row.strategy, row.scope, support::format_double(cost.total, 0),
                   join(cost.software), join(cost.hardware), std::to_string(row.decisions),
                   std::move(orders), row.outcome.feasible ? "yes" : "NO"});
  }
  os << table;

  if (const auto* best = response.best()) {
    os << "best system strategy: " << best->strategy << " at cost "
       << support::format_double(best->outcome.cost.total, 0)
       << (best->outcome.feasible ? "" : " (infeasible!)") << "\n";
  }
  return os.str();
}

std::string render(const AnyResponse& response) {
  return std::visit([](const auto& typed) { return render(typed); }, response);
}

std::string render_diagnostics(const support::DiagnosticList& diagnostics) {
  std::ostringstream os;
  os << diagnostics;
  return os.str();
}

}  // namespace spivar::api
