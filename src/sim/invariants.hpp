// Metamorphic / conservation-law checker for the MPC simulator: laws that
// must hold on ANY simulated run, independent of the workload, checked
// after the fact from the trace, the configuration and the SimResult.
// Together with the differential oracle (refsim.hpp) this is the second
// layer keeping the optimized engine honest — the laws catch classes of
// bug (lost messages, double-charged costs, phantom busy time) even when
// both engines agree because they share a misreading of the model.
//
// Single-run laws (check_run_invariants):
//   * cycles tile the makespan: cycle i+1 starts where cycle i ends, the
//     first cycle starts at 0, the last ends at the makespan;
//   * per-processor busy time never exceeds the cycle span;
//   * every trace activation is attributed to exactly one match
//     processor (and left counts match the trace);
//   * token conservation (merged mapping): every join-generated token is
//     either a local delivery or a message, instantiation messages on
//     top — messages + local == children + charged instantiations;
//   * busy conservation (merged mapping): total busy time across match
//     processors equals the analytic sum of charged costs — constant
//     tests + receive overheads + token add/delete + successor
//     generation + per-message send/receive overheads;
//   * zero-overhead laws: with all message costs zero, one processor
//     reproduces the analytic sequential sum exactly, and P processors
//     never exceed it (speedup >= 1) nor beat work conservation
//     (speedup <= P);
//   * network accounting (any network model): the run's network_busy
//     equals the model's total charged latency (net-busy-equality); the
//     charged latency equals hop_latency x the hop-histogram-weighted
//     hop count (net-hop-latency — this is the law that catches the
//     free-remote-hop fault, whose histogram records the true route
//     while the charge is capped at one hop); and per-link message
//     conservation — every link's busy time is hop_latency x its
//     traversal count, and the traversals across links sum to the
//     histogram's route hops (grid/constant) or its remote messages
//     (fat-tree, one uplink per injection).
//
// Cross-run laws (check_cross_run_invariants), over several runs of the
// SAME trace:
//   * token conservation is independent of the processor count: for
//     merged-mapping runs with the same instantiation-charging flag,
//     messages + local deliveries is one constant;
//   * event conservation across the cost grid: runs agreeing on the
//     routing inputs (mapping, processor counts, charging flag) dispatch
//     exactly the same number of kernel events (SimResult::events),
//     whatever their cost models — costs shift time, never routing;
//   * hop monotonicity: a topology run whose charged message count and
//     per-hop latency match a constant-network run's can never charge
//     LESS total wire time — every route is at least one hop, so the
//     flat network is the floor of the topology family.
//
// Each check is counted into an optional obs::Registry
// ("sim.invariants.checked"/"sim.invariants.violated", plus per-law
// labelled counters), so sweeps expose how much validation ran.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/sim/simulator.hpp"
#include "src/trace/record.hpp"

namespace mpps::sim {

struct InvariantViolation {
  std::string invariant;  // short law name, e.g. "token-conservation"
  std::string detail;     // numbers: expected vs observed
};

struct InvariantReport {
  std::uint64_t checked = 0;  // individual law evaluations performed
  std::vector<InvariantViolation> violations;

  [[nodiscard]] bool ok() const { return violations.empty(); }
  /// One line per violation; empty when ok.
  [[nodiscard]] std::string summary() const;
  void merge_from(const InvariantReport& other);
};

/// Checks every single-run law applicable to `config` against `result`
/// (laws whose preconditions the configuration does not meet are
/// skipped, not failed).  `result` must be the outcome of simulating
/// `trace` under `config`.
InvariantReport check_run_invariants(const trace::Trace& trace,
                                     const SimConfig& config,
                                     const SimResult& result,
                                     obs::Registry* metrics = nullptr);

/// One (configuration, result) pair of a multi-run sweep over one trace.
/// The checker only sees the configuration, so its comparisons assume
/// every run in the vector used the SAME bucket assignment — do not mix
/// in runs whose assignment was derived from the cost model (e.g. the
/// greedy distribution).
struct ObservedRun {
  SimConfig config;
  const SimResult* result = nullptr;  // not owned
};

/// Checks the cross-run laws over several runs of the same trace.
InvariantReport check_cross_run_invariants(const trace::Trace& trace,
                                           const std::vector<ObservedRun>& runs,
                                           obs::Registry* metrics = nullptr);

}  // namespace mpps::sim
