// flowbench: end-to-end benchmark driver for the Fig. 4 mapping flow
// (SNN simulation -> spike graph -> partitioner -> placement -> traffic ->
// NoC) and the closed SNN x NoC co-simulation loop.
//
//   flowbench --workload <map-is|cosim-synth>
//             [--seed N] [--seconds S] [--trace 0|1] [--reduced]
//             [--revision REV] [--spans-out FILE]
//
// Every layer is timed from outside, by wrapping the calls into its public
// entry points; nothing under src/ is instrumented.  An untraced run
// (--trace 0) repeats the workload's pipeline call for --seconds and reports
// the end-to-end metrics.  A traced run (--trace 1) does the same untraced
// loop, then one staged pass with a span around every public call, and
// reports the per-layer metrics: span times, module self times, the work
// counters and the tracing overhead.  Every pipeline call's outputs are
// checked; a failed check or a work counter that differs between calls of
// one invocation counts as a failed call.  The last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/registry.hpp"
#include "core/cost.hpp"
#include "core/framework.hpp"
#include "core/pacman.hpp"
#include "core/placement.hpp"
#include "core/pso.hpp"
#include "cosim/cosim.hpp"
#include "hw/architecture.hpp"
#include "noc/simulator.hpp"
#include "noc/topology.hpp"
#include "snn/graph.hpp"
#include "snn/network.hpp"
#include "snn/simulator.hpp"

namespace {

using namespace snnmap;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- spans ----------------------------------------------------------------

/// In-memory span log of the traced pass: one span per public call, with
/// its parent, written out once the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::string module;  ///< repo module the call belongs to
    double start = 0.0;  ///< seconds since the log was created
    double end = 0.0;
    int parent = -1;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Runs f inside a span (or just runs it when the log is disabled).
  template <class F>
  decltype(auto) span(const char* name, const char* module, F&& f) {
    if (!enabled_) return f();
    const int index = static_cast<int>(spans_.size());
    spans_.push_back(
        {name, module, seconds_since(t0_), 0.0,
         open_.empty() ? -1 : open_.back()});
    open_.push_back(index);
    struct Closer {
      SpanLog* log;
      int index;
      ~Closer() {
        log->spans_[static_cast<std::size_t>(index)].end =
            seconds_since(log->t0_);
        log->open_.pop_back();
      }
    } closer{this, index};
    return f();
  }

  const std::vector<Span>& spans() const { return spans_; }

  double duration(std::size_t i) const {
    return spans_[i].end - spans_[i].start;
  }

  /// Duration minus the time its child spans cover (children of one span
  /// run one after another, so their durations add without overlap).
  double self_time(std::size_t i) const {
    double self = duration(i);
    for (std::size_t j = i + 1; j < spans_.size(); ++j) {
      if (spans_[j].parent == static_cast<int>(i)) self -= duration(j);
    }
    return self;
  }

  /// Summed duration of every span with this name.
  double total(const std::string& name) const {
    double sum = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name) sum += duration(i);
    }
    return sum;
  }

  /// Summed self time of every span of this module.
  double module_self(const std::string& module) const {
    double sum = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].module == module) sum += self_time(i);
    }
    return sum;
  }

 private:
  bool enabled_;
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// --- workloads ------------------------------------------------------------

enum class Kind { kMap, kCosim };

struct Spec {
  std::string name;
  Kind kind = Kind::kMap;
  std::string app;
  core::PsoConfig pso;  ///< map-is only
};

constexpr std::uint32_t kNeuronsPerCrossbar = 64;
constexpr std::uint32_t kThreads = 4;
constexpr std::uint32_t kCyclesPerTimestep = 1000;
// The default 100-particle swarm, run for 10 of its default 100 iterations:
// one call takes ~2 s on IS, so a run holds many calls and reports their
// median (single calls vary by +-10% on a shared host).  The work per
// iteration is unchanged.
constexpr std::uint32_t kPsoIterations = 10;
constexpr std::uint64_t kStimulusSeed = 42;

bool make_spec(const std::string& name, bool reduced, Spec& spec) {
  spec.name = name;
  spec.pso.threads = kThreads;
  spec.pso.iterations = kPsoIterations;
  if (reduced) {
    spec.pso.swarm_size = 8;
    spec.pso.iterations = 4;
  }
  if (name == "map-is") {
    spec.kind = Kind::kMap;
    spec.app = reduced ? "HW" : "IS";
  } else if (name == "cosim-synth") {
    spec.kind = Kind::kCosim;
    spec.app = reduced ? "synth_2x150" : "synth_2x1000";
  } else {
    return false;
  }
  return true;
}

/// What one pipeline call produced: the values every call of one
/// invocation must repeat exactly, and the checks it failed.
struct Outcome {
  std::map<std::string, double> values;
  std::uint64_t partition_digest = 0;
  std::vector<std::string> errors;

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

std::uint64_t digest(const core::Partition& partition) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (const core::CrossbarId c : partition.assignment()) {
    h = (h ^ c) * 1099511628211ULL;
  }
  return h;
}

void record_noc(Outcome& out, const noc::NocStats& stats,
                const std::string& prefix) {
  out.values[prefix + "cycles"] = static_cast<double>(stats.duration_cycles);
  out.values[prefix + "flits_injected"] =
      static_cast<double>(stats.flits_injected);
  out.values[prefix + "copies_delivered"] =
      static_cast<double>(stats.copies_delivered);
  out.values[prefix + "link_hops"] = static_cast<double>(stats.link_hops);
  out.values[prefix + "router_traversals"] =
      static_cast<double>(stats.router_traversals);
  out.values["global_energy_uj"] = stats.global_energy_pj * 1e-6;
  out.values["mean_latency_cycles"] = stats.latency_cycles.mean();
  out.values["max_latency_cycles"] =
      static_cast<double>(stats.max_latency_cycles);
}

hw::Architecture arch_for(std::uint32_t neurons) {
  return hw::Architecture::sized_for(neurons, kNeuronsPerCrossbar,
                                     hw::InterconnectKind::kTree);
}

/// The network, its simulation and the spike graph extracted from it.
struct Extracted {
  snn::SnnGraph graph;
  std::uint64_t neuron_steps = 0;
};

/// The workload's network.  The seed draws the app's random structure (the
/// synthetic networks' synaptic weights, the IS test image's salt noise);
/// the Poisson stimulus stream is fixed, so every seed yields a workload of
/// the same size (with a seeded stimulus, synth_2x1000 traffic varies by
/// +-15% between seeds, because only 10 Poisson inputs drive it).
apps::AppNetwork app_network(const Spec& spec, std::uint64_t seed) {
  apps::AppNetwork app = apps::build_app_network(spec.app, seed);
  app.sim.seed = kStimulusSeed;
  return app;
}

/// `ready`, when given, receives the time set-up ended (network built,
/// simulator constructed) and the timed pipeline began.
Extracted extract_graph(const Spec& spec, std::uint64_t seed, SpanLog& log,
                        Clock::time_point* ready = nullptr) {
  apps::AppNetwork app;
  snn::Network net = log.span("apps.build", "apps", [&] {
    app = app_network(spec, seed);
    return app.build();
  });
  snn::Simulator sim(net, app.sim);
  if (ready != nullptr) *ready = Clock::now();
  const snn::SimulationResult result =
      log.span("snn.run", "snn", [&] { return sim.run(); });
  Extracted out;
  out.graph = log.span("graph.extract", "snn", [&] {
    return snn::SnnGraph::from_simulation(net, result);
  });
  out.neuron_steps = static_cast<std::uint64_t>(net.neuron_count()) *
                     snn::simulation_step_count(app.sim);
  return out;
}

void record_graph(Outcome& out, const snn::SnnGraph& graph,
                  std::uint64_t neuron_steps) {
  out.values["snn.spikes"] = static_cast<double>(graph.total_spikes());
  out.values["snn.neuron_steps"] = static_cast<double>(neuron_steps);
  out.values["graph.edges"] = static_cast<double>(graph.edge_count());
}

/// Timings of one pipeline call.
struct Timing {
  double setup_s = 0.0;
  double wall_s = 0.0;
};

// --- map-is: the Fig. 4 flow ----------------------------------------------

core::MappingFlowConfig flow_config(const Spec& spec,
                                    const hw::Architecture& arch,
                                    std::uint64_t seed) {
  core::MappingFlowConfig config;
  config.arch = arch;
  config.partitioner = core::PartitionerKind::kPso;
  config.pso = spec.pso;
  config.seed = seed;
  return config;
}

void check_mapping(Outcome& out, const core::Partition& partition,
                   const hw::Architecture& arch, std::uint64_t aer_packets,
                   const noc::NocStats& stats, double analytic_energy_pj) {
  try {
    partition.validate(arch);
  } catch (const std::exception& e) {
    out.check(false, std::string("partition invalid: ") + e.what());
  }
  out.check(stats.drained, "NoC did not drain");
  out.check(stats.copies_delivered == aer_packets,
            "copies_delivered != aer_packets");
  // The repo's charge-for-charge parity bound (cost_test): the two sums
  // add the same charges in a different order.
  out.check(std::fabs(stats.global_energy_pj - analytic_energy_pj) <=
                1e-9 * stats.global_energy_pj,
            "simulated global energy != analytic_global_energy_pj");
  out.partition_digest = digest(partition);
  out.values["aer_packets"] = static_cast<double>(aer_packets);
}

/// Untraced: snn::Simulator::run -> SnnGraph::from_simulation ->
/// run_mapping_flow, as a user of the library calls it.
Outcome map_call(const Spec& spec, std::uint64_t seed, Timing& t) {
  const auto t0 = Clock::now();
  apps::AppNetwork app = app_network(spec, seed);
  snn::Network net = app.build();
  snn::Simulator sim(net, app.sim);
  const auto t1 = Clock::now();
  const snn::SimulationResult result = sim.run();
  const snn::SnnGraph graph = snn::SnnGraph::from_simulation(net, result);
  const hw::Architecture arch = arch_for(graph.neuron_count());
  const core::MappingReport report =
      core::run_mapping_flow(graph, flow_config(spec, arch, seed));
  t.setup_s = std::chrono::duration<double>(t1 - t0).count();
  t.wall_s = seconds_since(t1);

  Outcome out;
  record_graph(out, graph,
               static_cast<std::uint64_t>(net.neuron_count()) *
                   snn::simulation_step_count(app.sim));
  check_mapping(out, report.partition, arch, report.aer_packets,
                report.noc_stats, report.analytic_global_energy_pj);
  record_noc(out, report.noc_stats, "noc.");
  out.values["traffic.packets"] = static_cast<double>(report.packets_offered);
  out.values["noc.isi_distortion_cycles"] =
      report.snn_metrics.isi_distortion_avg_cycles;
  return out;
}

/// Traced: the same flow called stage by stage (the body of
/// run_mapping_flow), with a span around each public call.
Outcome map_traced(const Spec& spec, std::uint64_t seed, SpanLog& log,
                   double& wall_s) {
  Outcome out;
  Clock::time_point ready;
  log.span("pipeline", "driver", [&] {
    const Extracted ex = extract_graph(spec, seed, log, &ready);
    record_graph(out, ex.graph, ex.neuron_steps);
    const snn::SnnGraph& graph = ex.graph;
    const hw::Architecture arch = arch_for(graph.neuron_count());
    const core::MappingFlowConfig config = flow_config(spec, arch, seed);
    log.span("flow", "core", [&] {
      core::PsoConfig pso = config.pso;
      pso.seed = config.seed;
      const double cpu0 = cpu_seconds();
      const auto p0 = Clock::now();
      const core::PsoResult best = log.span("partition.run", "core", [&] {
        return core::PsoPartitioner(graph, config.arch, pso).optimize();
      });
      const double run_s = seconds_since(p0);
      out.values["pso.fitness_evals"] =
          static_cast<double>(best.fitness_evaluations);
      out.values["pso.iterations"] = static_cast<double>(best.iterations_run);
      out.values["pso.best_cost"] = static_cast<double>(best.best_cost);
      out.values["partition.cpu_util"] = (cpu_seconds() - cpu0) / run_s;

      noc::Topology topology = noc::Topology::for_architecture(config.arch);
      const core::Placement placement = log.span("placement.run", "core", [&] {
        return core::identity_placement(config.arch.crossbar_count, topology);
      });
      std::uint64_t aer_packets = 0;
      double analytic_pj = 0.0;
      log.span("cost.run", "core", [&] {
        const core::CostModel cost(graph);
        cost.global_spike_count(best.best);
        aer_packets = cost.multicast_packet_count(best.best);
        cost.local_event_count(best.best);
        cost.local_energy_pj(best.best, config.energy());
        analytic_pj = cost.analytic_global_energy_pj(
            best.best, topology, placement, config.energy(),
            config.noc.multicast);
      });
      auto traffic = log.span("traffic.build", "core", [&] {
        return core::build_traffic(graph, best.best, placement,
                                   config.arch.cycles_per_ms,
                                   config.injection_jitter_cycles);
      });
      std::uint64_t copies = 0;
      for (const auto& ev : traffic) copies += ev.dest_tiles.size();
      out.values["traffic.packets"] = static_cast<double>(traffic.size());
      out.values["traffic.copies"] = static_cast<double>(copies);
      noc::NocSimulator sim = log.span("noc.construct", "noc", [&] {
        return noc::NocSimulator(std::move(topology), config.noc);
      });
      const noc::NocRunResult run = log.span(
          "noc.run", "noc", [&] { return sim.run(std::move(traffic)); });
      check_mapping(out, best.best, arch, aer_packets, run.stats, analytic_pj);
      record_noc(out, run.stats, "noc.");
      out.values["noc.isi_distortion_cycles"] =
          run.snn.isi_distortion_avg_cycles;
    });
  });
  wall_s = seconds_since(ready);
  return out;
}

// --- cosim-synth: the closed SNN x NoC loop ---------------------------------

struct Mapping {
  snn::SnnGraph graph;
  hw::Architecture arch;
  core::Partition partition;
  core::Placement placement;
};

/// Spike graph -> PACMAN partition -> identity placement.
Mapping prepare_mapping(const Spec& spec, std::uint64_t seed, SpanLog& log,
                        Outcome& out) {
  Mapping m;
  Extracted ex = extract_graph(spec, seed, log);
  record_graph(out, ex.graph, ex.neuron_steps);
  m.graph = std::move(ex.graph);
  m.arch = arch_for(m.graph.neuron_count());
  m.partition = log.span("partition.run", "core", [&] {
    return core::pacman_partition(m.graph, m.arch);
  });
  out.partition_digest = digest(m.partition);
  m.placement = log.span("placement.run", "core", [&] {
    return core::identity_placement(m.arch.crossbar_count,
                                    noc::Topology::for_architecture(m.arch));
  });
  return m;
}

/// Set-up builds the mapping (SNN run, graph, PACMAN partition, placement),
/// the network and the co-simulator; the timed call is CoSimulator::run.
Outcome cosim_call(const Spec& spec, std::uint64_t seed, SpanLog& log,
                   Timing& t) {
  const auto t0 = Clock::now();
  Outcome out;
  const Mapping m = log.span("prepare", "driver", [&] {
    return prepare_mapping(spec, seed, log, out);
  });
  apps::AppNetwork app;
  snn::Network net = log.span("apps.build", "apps", [&] {
    app = app_network(spec, seed);
    return app.build();
  });
  cosim::CoSimConfig config;
  config.snn = app.sim;
  config.cycles_per_timestep = kCyclesPerTimestep;
  cosim::CoSimulator sim = log.span("cosim.construct", "cosim", [&] {
    return cosim::CoSimulator(net, m.partition, m.placement,
                              noc::Topology::for_architecture(m.arch), config);
  });
  const auto t1 = Clock::now();
  const cosim::CoSimResult result =
      log.span("cosim.run", "cosim", [&] { return sim.run(); });
  t.setup_s = std::chrono::duration<double>(t1 - t0).count();
  t.wall_s = seconds_since(t1);

  const cosim::FidelityReport& f = result.fidelity;
  out.check(f.copies_offered == f.copies_arrived + f.undelivered,
            "copies_offered != copies_arrived + undelivered");
  out.check(f.receive_drops == 0, "receive_drops != 0");
  out.check(f.fabric_energy_pj == result.noc.global_energy_pj,
            "fabric_energy_pj != noc.global_energy_pj");
  record_noc(out, result.noc, "cosim.noc.");
  out.values["global_energy_uj"] = f.fabric_energy_pj * 1e-6;
  out.values["aer_packets"] = static_cast<double>(f.copies_offered);
  out.values["cosim.steps"] = static_cast<double>(f.steps);
  out.values["cosim.copies_offered"] = static_cast<double>(f.copies_offered);
  out.values["cosim.copies_accepted"] = static_cast<double>(f.copies_accepted);
  out.values["cosim.deadline_misses"] = static_cast<double>(f.deadline_misses);
  out.values["cosim.undelivered"] = static_cast<double>(f.undelivered);
  out.values["cosim.deadline_miss_pct"] = 100.0 * f.miss_fraction();
  return out;
}

// --- metrics ----------------------------------------------------------------

struct Metric {
  const char* name;
  const char* unit;
};

// End-to-end metrics (untraced runs), in BENCHMARK.json order.
const std::vector<Metric> kEndToEnd = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"aer_packets", "copies"},
    {"global_energy_uj", "uJ"},
    {"mean_latency_cycles", "cycles"},
    {"max_latency_cycles", "cycles"},
};

// Per-layer metrics (traced runs), in BENCHMARK.json order.  A workload
// reports 0 for a layer it never calls.
const std::vector<Metric> kPerLayer = {
    {"apps.build_s", "s"},
    {"snn.run_s", "s"},
    {"snn.spikes", "count"},
    {"snn.neuron_steps", "count"},
    {"graph.extract_s", "s"},
    {"graph.edges", "count"},
    {"partition.run_s", "s"},
    {"partition.cpu_util", "ratio"},
    {"pso.fitness_evals", "count"},
    {"pso.iterations", "count"},
    {"pso.best_cost", "copies"},
    {"pso.evals_per_s", "1/s"},
    {"placement.run_s", "s"},
    {"cost.run_s", "s"},
    {"traffic.build_s", "s"},
    {"traffic.packets", "count"},
    {"traffic.copies", "copies"},
    {"noc.construct_s", "s"},
    {"noc.run_s", "s"},
    {"noc.cycles", "cycles"},
    {"noc.flits_injected", "count"},
    {"noc.copies_delivered", "copies"},
    {"noc.link_hops", "count"},
    {"noc.router_traversals", "count"},
    {"noc.hops_per_s", "1/s"},
    {"noc.cycles_per_s", "1/s"},
    {"noc.isi_distortion_cycles", "cycles"},
    {"cosim.construct_s", "s"},
    {"cosim.run_s", "s"},
    {"cosim.steps", "count"},
    {"cosim.steps_per_s", "1/s"},
    {"cosim.copies_offered", "copies"},
    {"cosim.copies_accepted", "copies"},
    {"cosim.deadline_misses", "count"},
    {"cosim.undelivered", "copies"},
    {"cosim.deadline_miss_pct", "%"},
    {"cosim.noc.link_hops", "count"},
    {"cosim.noc.router_traversals", "count"},
    {"cosim.hops_per_s", "1/s"},
    {"self.apps_s", "s"},
    {"self.snn_s", "s"},
    {"self.core_s", "s"},
    {"self.noc_s", "s"},
    {"self.cosim_s", "s"},
    {"self.driver_s", "s"},
    {"trace.overhead_s", "s"},
};

double value_or_zero(const Outcome& out, const std::string& key) {
  const auto it = out.values.find(key);
  return it == out.values.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::map<std::string, double> per_layer_values(const SpanLog& log,
                                               const Outcome& traced,
                                               double overhead_s) {
  std::map<std::string, double> v;
  for (const char* span :
       {"apps.build", "snn.run", "graph.extract", "partition.run",
        "placement.run", "cost.run", "traffic.build", "noc.construct",
        "noc.run", "cosim.construct", "cosim.run"}) {
    v[std::string(span) + "_s"] = log.total(span);
  }
  for (const char* module : {"apps", "snn", "core", "noc", "cosim", "driver"}) {
    v[std::string("self.") + module + "_s"] = log.module_self(module);
  }
  for (const auto& m : kPerLayer) {
    const auto it = traced.values.find(m.name);
    if (it != traced.values.end()) v[m.name] = it->second;
  }
  v["pso.evals_per_s"] =
      ratio(value_or_zero(traced, "pso.fitness_evals"), v["partition.run_s"]);
  v["noc.hops_per_s"] =
      ratio(value_or_zero(traced, "noc.link_hops"), v["noc.run_s"]);
  v["noc.cycles_per_s"] =
      ratio(value_or_zero(traced, "noc.cycles"), v["noc.run_s"]);
  v["cosim.steps_per_s"] =
      ratio(value_or_zero(traced, "cosim.steps"), v["cosim.run_s"]);
  v["cosim.hops_per_s"] =
      ratio(value_or_zero(traced, "cosim.noc.link_hops"), v["cosim.run_s"]);
  v["trace.overhead_s"] = overhead_s;
  return v;
}

void write_spans(const std::string& path, const Spec& spec,
                 std::uint64_t seed, const SpanLog& log) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "flowbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  out << "{\"workload\": \"" << spec.name << "\", \"seed\": " << seed
      << ", \"spans\": [";
  const auto& spans = log.spans();
  char buf[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::snprintf(buf, sizeof buf,
                  "%s\n  {\"id\": %zu, \"name\": \"%s\", \"module\": \"%s\", "
                  "\"parent\": %d, \"start_s\": %.9f, \"end_s\": %.9f, "
                  "\"self_s\": %.9f}",
                  i ? "," : "", i, spans[i].name.c_str(),
                  spans[i].module.c_str(), spans[i].parent, spans[i].start,
                  spans[i].end, log.self_time(i));
    out << buf;
  }
  out << "\n]}\n";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto first = line.find_first_not_of(' ', colon + 1);
        return first == std::string::npos ? "" : line.substr(first);
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void print_fingerprint(const std::string& revision) {
  std::printf(
      "fingerprint {\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", "
      "\"flags\": \"%s\", \"build_type\": \"%s\", \"revision\": \"%s\"}\n",
      std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
      FLOWBENCH_COMPILER, json_escape(FLOWBENCH_CXX_FLAGS).c_str(),
      FLOWBENCH_BUILD_TYPE, json_escape(revision).c_str());
}

// --- driver -----------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  bool reduced = false;
  std::string revision = "unknown";
  std::string spans_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--reduced") {
      a.reduced = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") a.workload = value;
      else if (flag == "--seed") a.seed = std::stoull(value);
      else if (flag == "--seconds") a.seconds = std::stod(value);
      else if (flag == "--trace") a.trace = std::stoi(value) != 0;
      else if (flag == "--revision") a.revision = value;
      else if (flag == "--spans-out") a.spans_out = value;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return !a.workload.empty();
}

/// Tallies calls and failures; compares every call's outcome with the first.
class Ledger {
 public:
  void add(const std::string& label, const Outcome& out) {
    ++attempted_;
    std::vector<std::string> errors = out.errors;
    if (!reference_) {
      reference_ = out;
    } else if (!agrees(*reference_, out, /*common_keys_only=*/false)) {
      errors.push_back("outputs differ from the first call");
    }
    report(label, errors);
  }

  /// The traced pass carries extra counters; compare the shared ones.
  void add_traced(const Outcome& out) {
    ++attempted_;
    std::vector<std::string> errors = out.errors;
    if (reference_ && !agrees(*reference_, out, /*common_keys_only=*/true)) {
      errors.push_back("traced pass differs from the untraced calls");
    }
    report("traced", errors);
  }

  /// A call that threw counts as attempted and failed.
  void add_exception(const std::string& label, const std::exception& e) {
    ++attempted_;
    report(label, {e.what()});
  }

  int attempted() const { return attempted_; }
  int failed() const { return failed_; }
  /// The first successful call's outcome (empty when every call threw).
  Outcome reference() const { return reference_.value_or(Outcome{}); }

 private:
  /// Exact agreement of the partition digest and of every value (only of
  /// the values both carry, with common_only); names the first mismatch.
  static bool agrees(const Outcome& a, const Outcome& b, bool common_only) {
    if (a.partition_digest != b.partition_digest) {
      std::fprintf(stderr, "flowbench: partition digest differs\n");
      return false;
    }
    if (!common_only && a.values.size() != b.values.size()) return false;
    for (const auto& [key, value] : a.values) {
      const auto it = b.values.find(key);
      if (it == b.values.end()) {
        if (common_only) continue;
        return false;
      }
      if (!(it->second == value)) {
        std::fprintf(stderr, "flowbench: %s differs: %.17g vs %.17g\n",
                     key.c_str(), value, it->second);
        return false;
      }
    }
    return true;
  }

  void report(const std::string& label,
              const std::vector<std::string>& errors) {
    if (errors.empty()) return;
    ++failed_;
    for (const auto& e : errors) {
      std::fprintf(stderr, "flowbench: %s call failed: %s\n", label.c_str(),
                   e.c_str());
    }
  }

  int attempted_ = 0;
  int failed_ = 0;
  std::optional<Outcome> reference_;
};

int run(const Args& args) {
  Spec spec;
  if (!make_spec(args.workload, args.reduced, spec)) {
    std::fprintf(stderr, "flowbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  print_fingerprint(args.revision);

  SpanLog untraced(false);
  SpanLog log(args.trace);
  Ledger ledger;
  std::vector<double> setup, wall;

  auto call = [&](SpanLog& l, Timing& t) {
    return spec.kind == Kind::kMap ? map_call(spec, args.seed, t)
                                   : cosim_call(spec, args.seed, l, t);
  };

  // Warm-up (map-is): the first flow in a process runs ~10% slower while the
  // allocator adapts to the PSO's large per-particle vectors; a flow with a
  // one-iteration swarm warms it for a fraction of a full call.
  if (spec.kind == Kind::kMap) {
    Spec warm = spec;
    warm.pso.iterations = 1;
    try {
      Timing t;
      map_call(warm, args.seed, t);
    } catch (const std::exception& e) {
      ledger.add_exception("warm-up", e);
    }
  }

  // Untraced: repeat the pipeline call for --seconds (at least once).
  const auto loop0 = Clock::now();
  do {
    try {
      Timing t;
      const Outcome out = call(untraced, t);
      setup.push_back(t.setup_s);
      wall.push_back(t.wall_s);
      ledger.add("untraced", out);
    } catch (const std::exception& e) {
      ledger.add_exception("untraced", e);
    }
  } while (seconds_since(loop0) < args.seconds);

  std::map<std::string, double> metrics;
  if (args.trace) {
    double traced_wall = 0.0;
    Outcome traced;
    try {
      if (spec.kind == Kind::kMap) {
        traced = map_traced(spec, args.seed, log, traced_wall);
      } else {
        Timing t;
        traced = log.span("pipeline", "driver", [&] { return call(log, t); });
        traced_wall = t.wall_s;
      }
      ledger.add_traced(traced);
    } catch (const std::exception& e) {
      ledger.add_exception("traced", e);
    }
    metrics = per_layer_values(log, traced, traced_wall - median(wall));
    if (!args.spans_out.empty()) {
      write_spans(args.spans_out, spec, args.seed, log);
    }
    std::printf("spans %zu written to %s\n", log.spans().size(),
                args.spans_out.empty() ? "(nowhere)" : args.spans_out.c_str());
    for (std::size_t i = 0; i < log.spans().size(); ++i) {
      const auto& s = log.spans()[i];
      std::printf("span %-16s %-7s parent=%-3d dur=%.6f self=%.6f\n",
                  s.name.c_str(), s.module.c_str(), s.parent,
                  log.duration(i), log.self_time(i));
    }
  } else {
    const Outcome ref = ledger.reference();
    metrics["wall_s"] = median(wall);
    metrics["setup_s"] = median(setup);
    metrics["peak_rss_mb"] = peak_rss_mb();
    for (const char* key : {"aer_packets", "global_energy_uj",
                            "mean_latency_cycles", "max_latency_cycles"}) {
      metrics[key] = value_or_zero(ref, key);
    }
    std::printf("info wall_s.samples %zu:", wall.size());
    for (const double w : wall) std::printf(" %.6f", w);
    std::printf("\n");
    std::printf("info setup_s.samples %zu:", setup.size());
    for (const double s : setup) std::printf(" %.9f", s);
    std::printf("\n");
    std::printf("info error_rate %.17g fraction\n",
                ratio(ledger.failed(), ledger.attempted()));
    std::printf("info isi_distortion_cycles %.17g cycles\n",
                value_or_zero(ref, "noc.isi_distortion_cycles"));
    std::printf("info deadline_miss_pct %.17g %%\n",
                value_or_zero(ref, "cosim.deadline_miss_pct"));
  }

  const auto& names = args.trace ? kPerLayer : kEndToEnd;
  for (const auto& m : names) {
    std::printf("metric %-28s %.17g %s\n", m.name, metrics[m.name], m.unit);
  }
  std::string json = "{\"correct\": ";
  json += ledger.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ledger.attempted());
  json += ", \"failed\": " + std::to_string(ledger.failed());
  json += ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", names[i].name, metrics[names[i].name],
                  names[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return ledger.failed() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: flowbench --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--reduced] [--revision REV] "
                 "[--spans-out FILE]\n");
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flowbench: %s\n", e.what());
    return 1;
  }
}
