#include "src/sim/invariants.hpp"

#include <algorithm>

namespace mpps::sim {

namespace {

/// Workload totals every law is phrased in terms of, computed once.
struct TraceTotals {
  std::uint64_t activations = 0;
  std::uint64_t left = 0;
  std::uint64_t children = 0;        // activations with a parent
  std::uint64_t instantiations = 0;
  SimTime serial{};  // analytic one-processor zero-overhead time
};

TraceTotals totals_of(const trace::Trace& trace, const CostModel& costs) {
  TraceTotals t;
  for (const trace::TraceCycle& cycle : trace.cycles) {
    t.serial += costs.constant_tests;
    for (const trace::TraceActivation& act : cycle.activations) {
      ++t.activations;
      if (act.side == trace::Side::Left) ++t.left;
      if (act.parent.valid()) ++t.children;
      t.instantiations += act.instantiations;
      t.serial += costs.token_cost(act.side == trace::Side::Left);
      t.serial += costs.per_successor *
                  static_cast<std::int64_t>(act.successors +
                                            act.instantiations);
    }
  }
  return t;
}

/// The plain Section 3.2 shape most laws are stated for: merged mapping,
/// no dedicated constant-test or conflict-set processors.
bool plain_merged(const SimConfig& config) {
  return config.mapping == MappingMode::Merged &&
         config.constant_test_processors == 0 &&
         config.conflict_set_processors == 0;
}

bool zero_message_costs(const CostModel& costs) {
  return costs.send_overhead == SimTime{} &&
         costs.recv_overhead == SimTime{} &&
         costs.wire_latency == SimTime{};
}

/// Accumulates one law evaluation; on `violated`, records the detail.
class Checker {
 public:
  Checker(InvariantReport& report, obs::Registry* metrics)
      : report_(report), metrics_(metrics) {}

  void check(const char* law, bool violated, const std::string& detail) {
    ++report_.checked;
    if (metrics_ != nullptr) {
      metrics_->counter("sim.invariants.checked").add();
      metrics_->counter("sim.invariants.checked", {{"invariant", law}}).add();
    }
    if (!violated) return;
    report_.violations.push_back({law, detail});
    if (metrics_ != nullptr) {
      metrics_->counter("sim.invariants.violated").add();
      metrics_->counter("sim.invariants.violated", {{"invariant", law}}).add();
    }
  }

 private:
  InvariantReport& report_;
  obs::Registry* metrics_;
};

std::string ns_pair(std::int64_t expected, std::int64_t observed) {
  return "expected " + std::to_string(expected) + " ns, observed " +
         std::to_string(observed) + " ns";
}

}  // namespace

std::string InvariantReport::summary() const {
  std::string out;
  for (const InvariantViolation& v : violations) {
    if (!out.empty()) out += "\n";
    out += v.invariant + ": " + v.detail;
  }
  return out;
}

void InvariantReport::merge_from(const InvariantReport& other) {
  checked += other.checked;
  violations.insert(violations.end(), other.violations.begin(),
                    other.violations.end());
}

InvariantReport check_run_invariants(const trace::Trace& trace,
                                     const SimConfig& config,
                                     const SimResult& result,
                                     obs::Registry* metrics) {
  InvariantReport report;
  Checker checker(report, metrics);
  const CostModel& costs = config.costs;
  const TraceTotals totals = totals_of(trace, costs);
  const std::uint32_t procs = config.match_processors;

  // Cycles tile [0, makespan] with no gaps or overlaps.
  {
    bool tiled = result.cycles.size() == trace.cycles.size();
    SimTime cursor{};
    for (const CycleMetrics& cycle : result.cycles) {
      if (cycle.start != cursor || cycle.end < cycle.start) tiled = false;
      cursor = cycle.end;
    }
    if (cursor != result.makespan) tiled = false;
    checker.check("cycle-tiling", !tiled,
                  "cycles must partition [0, makespan] in order; makespan " +
                      std::to_string(result.makespan.nanos()) + " ns over " +
                      std::to_string(result.cycles.size()) + " cycles");
  }

  // No processor is busy for longer than the cycle it is busy in.
  {
    bool within = true;
    std::string detail;
    for (std::size_t c = 0; c < result.cycles.size() && within; ++c) {
      const CycleMetrics& cycle = result.cycles[c];
      for (std::size_t p = 0; p < cycle.procs.size(); ++p) {
        const SimTime busy = cycle.procs[p].busy;
        if (busy < SimTime{} || busy > cycle.span()) {
          within = false;
          detail = "cycle " + std::to_string(c) + " proc " +
                   std::to_string(p) + ": busy " +
                   std::to_string(busy.nanos()) + " ns vs span " +
                   std::to_string(cycle.span().nanos()) + " ns";
          break;
        }
      }
    }
    checker.check("busy-within-span", !within, detail);
  }

  // Every activation is attributed to exactly one match processor.
  {
    std::uint64_t counted = 0;
    std::uint64_t left = 0;
    for (const CycleMetrics& cycle : result.cycles) {
      for (const ProcCycleMetrics& proc : cycle.procs) {
        counted += proc.activations;
        left += proc.left_activations;
      }
    }
    checker.check("activation-attribution",
                  counted != totals.activations || left != totals.left,
                  "trace has " + std::to_string(totals.activations) + " (" +
                      std::to_string(totals.left) + " left), processors saw " +
                      std::to_string(counted) + " (" + std::to_string(left) +
                      " left)");
  }

  // Network accounting: the wire time the run reports, the model's own
  // view of it, the hop histogram and the per-link traffic must all
  // describe the same traffic.
  {
    const NetStats& net = result.net;
    checker.check("net-busy-equality",
                  result.network_busy != net.total_latency,
                  ns_pair(net.total_latency.nanos(),
                          result.network_busy.nanos()));

    std::uint64_t hist_messages = 0;
    std::uint64_t hist_hops = 0;     // route length summed over messages
    std::uint64_t hist_remote = 0;   // messages with at least one hop
    for (std::size_t h = 0; h < net.hop_histogram.size(); ++h) {
      hist_messages += net.hop_histogram[h];
      hist_hops += net.hop_histogram[h] * h;
      if (h > 0) hist_remote += net.hop_histogram[h];
    }
    // The histogram records TRUE routes, so charged latency must be
    // hop_latency x total route hops — an undercharged multi-hop send
    // (the free-remote-hop fault) breaks exactly this equation.
    const SimTime expected_latency =
        net.hop_latency * static_cast<std::int64_t>(hist_hops);
    checker.check(
        "net-hop-latency",
        net.messages != hist_messages || net.total_latency != expected_latency,
        "histogram holds " + std::to_string(hist_messages) + " messages over " +
            std::to_string(hist_hops) + " hops; " +
            ns_pair(expected_latency.nanos(), net.total_latency.nanos()));

    std::uint64_t link_messages = 0;
    bool per_link_ok = true;
    for (const NetLinkStats& link : net.links) {
      link_messages += link.messages;
      if (link.busy !=
          net.hop_latency * static_cast<std::int64_t>(link.messages)) {
        per_link_ok = false;
      }
    }
    // Grid and constant networks record one link traversal per route
    // hop; the fat tree attributes each injected message to its source
    // uplink once.
    const std::uint64_t expected_traversals =
        net.kind == NetKind::FatTree ? hist_remote : hist_hops;
    checker.check("net-link-conservation",
                  link_messages != expected_traversals || !per_link_ok,
                  "links saw " + std::to_string(link_messages) +
                      " traversals, expected " +
                      std::to_string(expected_traversals) +
                      (per_link_ok ? "" : "; a link's busy time is not "
                                          "hop_latency x its traversals"));
  }

  if (plain_merged(config)) {
    // Token conservation: children either stay local or become messages;
    // instantiation messages come on top when charged.
    const std::uint64_t charged_inst =
        config.charge_instantiation_messages ? totals.instantiations : 0;
    const std::uint64_t expected = totals.children + charged_inst;
    checker.check(
        "token-conservation",
        result.messages + result.local_deliveries != expected,
        "messages (" + std::to_string(result.messages) + ") + local (" +
            std::to_string(result.local_deliveries) + ") != children (" +
            std::to_string(totals.children) + ") + charged instantiations (" +
            std::to_string(charged_inst) + ")");

    // Busy conservation: the total busy time across match processors is
    // exactly the sum of every charged cost.  Remote token messages
    // charge send on the producer and receive on the consumer;
    // instantiation messages charge only send to a match processor (the
    // control processor absorbs the receive).
    const std::uint64_t remote_children = result.messages - charged_inst;
    SimTime expected_busy =
        (costs.recv_overhead + costs.constant_tests) *
        static_cast<std::int64_t>(static_cast<std::uint64_t>(procs) *
                                  trace.cycles.size());
    expected_busy += totals.serial - costs.constant_tests *
                                         static_cast<std::int64_t>(
                                             trace.cycles.size());
    expected_busy +=
        costs.send_overhead * static_cast<std::int64_t>(result.messages);
    expected_busy +=
        costs.recv_overhead * static_cast<std::int64_t>(remote_children);
    SimTime observed_busy{};
    for (const CycleMetrics& cycle : result.cycles) {
      for (const ProcCycleMetrics& proc : cycle.procs) {
        observed_busy += proc.busy;
      }
    }
    checker.check("busy-conservation", observed_busy != expected_busy,
                  ns_pair(expected_busy.nanos(), observed_busy.nanos()));

    if (zero_message_costs(costs) && costs.resolve_cost == SimTime{} &&
        config.termination == TerminationModel::None) {
      // One processor at zero overhead IS the sequential machine.
      if (procs == 1) {
        checker.check("serial-sum", result.makespan != totals.serial,
                      ns_pair(totals.serial.nanos(), result.makespan.nanos()));
      }
      // Parallelism at zero cost never loses to serial...
      checker.check(
          "zero-overhead-no-slowdown", result.makespan > totals.serial,
          "makespan " + std::to_string(result.makespan.nanos()) +
              " ns exceeds serial sum " + std::to_string(totals.serial.nanos()) +
              " ns");
      // ...and never beats work conservation (speedup <= P).
      checker.check(
          "work-conservation",
          result.makespan.nanos() * static_cast<std::int64_t>(procs) <
              totals.serial.nanos(),
          std::to_string(procs) + " x makespan " +
              std::to_string(result.makespan.nanos()) +
              " ns below serial sum " + std::to_string(totals.serial.nanos()) +
              " ns");
    }
  }

  return report;
}

InvariantReport check_cross_run_invariants(const trace::Trace& trace,
                                           const std::vector<ObservedRun>& runs,
                                           obs::Registry* metrics) {
  InvariantReport report;
  Checker checker(report, metrics);
  const TraceTotals totals = totals_of(trace, CostModel{});

  // Token conservation is a property of the trace, not the machine size:
  // merged-mapping runs with the same charging flag all see the same
  // messages + local total, whatever the processor count or assignment.
  for (const bool charged : {false, true}) {
    const std::uint64_t expected =
        totals.children + (charged ? totals.instantiations : 0);
    for (const ObservedRun& run : runs) {
      if (!plain_merged(run.config) ||
          run.config.charge_instantiation_messages != charged) {
        continue;
      }
      const std::uint64_t observed =
          run.result->messages + run.result->local_deliveries;
      checker.check("cross-run-token-conservation", observed != expected,
                    std::to_string(run.config.match_processors) +
                        " processors: messages + local = " +
                        std::to_string(observed) + ", expected " +
                        std::to_string(expected));
    }
  }

  // Event conservation: which kernel events get posted is decided by the
  // routing inputs alone — trace structure, mapping, processor counts and
  // the instantiation-charging flag (plus the shared assignment) — so two
  // runs that agree on those must dispatch the same number of events no
  // matter how their cost models differ.  This pins the overhead grid
  // down hard: a cost knob that changes the event count leaked into
  // routing decisions.
  const auto same_routing = [](const SimConfig& a, const SimConfig& b) {
    return a.match_processors == b.match_processors &&
           a.mapping == b.mapping &&
           a.constant_test_processors == b.constant_test_processors &&
           a.conflict_set_processors == b.conflict_set_processors &&
           a.charge_instantiation_messages == b.charge_instantiation_messages;
  };
  for (std::size_t i = 0; i < runs.size(); ++i) {
    for (std::size_t j = i + 1; j < runs.size(); ++j) {
      if (!same_routing(runs[i].config, runs[j].config)) continue;
      checker.check(
          "cross-run-event-conservation",
          runs[i].result->events != runs[j].result->events,
          "same routing inputs dispatched " +
              std::to_string(runs[i].result->events) + " vs " +
              std::to_string(runs[j].result->events) + " kernel events at " +
              std::to_string(runs[i].config.match_processors) +
              " processors");
    }
  }

  // Hop monotonicity: the flat one-hop network is the floor of the
  // topology family.  When a topology run charged the same number of
  // messages at the same per-hop latency as a constant-network run, its
  // total charged wire time cannot be smaller — every route is >= 1 hop.
  for (std::size_t i = 0; i < runs.size(); ++i) {
    for (std::size_t j = 0; j < runs.size(); ++j) {
      const ObservedRun& topo = runs[i];
      const ObservedRun& flat = runs[j];
      if (topo.config.network.kind == NetKind::Constant ||
          flat.config.network.kind != NetKind::Constant) {
        continue;
      }
      if (topo.config.network.free_remote_hop_fault ||
          flat.config.network.free_remote_hop_fault) {
        continue;
      }
      if (topo.result->net.hop_latency != flat.result->net.hop_latency ||
          topo.result->net.messages != flat.result->net.messages) {
        continue;
      }
      checker.check(
          "hop-monotonicity",
          topo.result->net.total_latency < flat.result->net.total_latency,
          topo.config.network.describe() + " charged less wire time than " +
              "the flat network for the same " +
              std::to_string(topo.result->net.messages) + " messages: " +
              ns_pair(flat.result->net.total_latency.nanos(),
                      topo.result->net.total_latency.nanos()));
    }
  }

  return report;
}

}  // namespace mpps::sim
