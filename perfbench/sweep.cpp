// The `sweep` workload: the paper's simulation study, as `mpps sweep`
// runs it.  Each pass generates fresh Rubik, Tourney and Weaver sections
// plus one larger random trace, and replays every one of them over the
// Table 5-1 grid through core::SweepRunner with the simulator invariants
// on.  No pass reuses a trace, so every pass pays the baseline and index
// work a fresh `mpps sweep` pays.
//
// The timed sweep runs at 1 job, one SweepRunner::run call per group of
// scenarios that the runner's cross-run laws compare (one trace under one
// assignment), so each group is one timed operation; the 2-job sweep of
// the whole pass is the identity check.  On the reference host the 2-job
// throughput flipped for minutes at a time between about 1.6x and 1.0x
// the 1-job rate (the runner's threads serialize), while the 1-job rate
// moved far less; the layer probes report the 2-job speedup.
#include <algorithm>
#include <cmath>
#include <exception>
#include <iostream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/bench.hpp"
#include "src/core/sweep.hpp"
#include "src/sim/invariants.hpp"
#include "src/sim/refsim.hpp"
#include "src/trace/synth.hpp"

namespace perfbench {
namespace {

using namespace mpps;

constexpr unsigned kJobs = 2;
// Per trace and partition count, the merged mapping at that many
// processors and the pair mapping at twice as many share one round-robin
// assignment, so the runner's cross-run laws compare them as one group:
// 13 machine shapes x Table 5-1 runs 1-4 = 52 scenarios per trace in 7
// groups.  Run 0 (the zero-overhead model) is left out: on many seeds the
// sweep's overhead-monotonicity law rejects it against run 1 (see
// CHANGES.md).
constexpr std::uint32_t kPartitions[] = {1, 2, 4, 8, 16, 32, 64};
constexpr std::uint32_t kMaxProcs = 64;

struct Pass {
  std::vector<trace::Trace> traces;
  /// The runner's cross-run groups, each swept as one operation.
  std::vector<std::vector<core::SweepScenario>> groups;
};

Pass make_pass(std::uint64_t seed) {
  Pass pass;
  pass.traces.push_back(trace::make_rubik_section(256, seed));
  pass.traces.push_back(trace::make_tourney_section(256, seed));
  pass.traces.push_back(trace::make_weaver_section(256, seed));
  trace::RandomTraceSpec spec;
  spec.cycles = 8;
  spec.num_buckets = 256;
  spec.nodes = 64;
  spec.roots_per_cycle = 400;
  spec.key_classes = 256;
  pass.traces.push_back(trace::make_random_trace(spec, seed));

  for (const trace::Trace& t : pass.traces) {
    for (const std::uint32_t partitions : kPartitions) {
      const sim::Assignment assignment =
          sim::Assignment::round_robin(t.num_buckets, partitions);
      std::vector<core::SweepScenario>& group = pass.groups.emplace_back();
      for (const bool pairs : {false, true}) {
        const std::uint32_t procs = pairs ? 2 * partitions : partitions;
        if (procs > kMaxProcs) continue;
        for (int run = 1; run <= 4; ++run) {
          core::SweepScenario s;
          s.label = t.name + "/p" + std::to_string(procs) +
                    (pairs ? "/pairs/r" : "/merged/r") + std::to_string(run);
          s.trace = &t;
          s.config.match_processors = procs;
          if (pairs) s.config.mapping = sim::MappingMode::ProcessorPairs;
          s.config.costs = sim::CostModel::paper_run(run);
          s.assignment = assignment;
          group.push_back(std::move(s));
        }
      }
    }
  }
  return pass;
}

/// A lower bound on the makespan, from the trace and the cost model
/// alone: per cycle, the larger of the critical path and the total work
/// spread evenly over the match processors.  Message costs are left out,
/// so the bound holds for every overhead run.  Every processor pays the
/// constant tests before its roots; a child cannot start before its
/// parent has generated it (after storing it, in the merged mapping); an
/// activation ends no sooner than its store and its successor search.
std::int64_t makespan_lower_bound(const trace::Trace& t,
                                  const sim::SimConfig& config) {
  const sim::CostModel& c = config.costs;
  const bool merged = config.mapping == sim::MappingMode::Merged;
  const std::int64_t procs = config.match_processors;
  std::int64_t total = 0;
  std::vector<std::int64_t> ready;
  for (const trace::TraceCycle& cycle : t.cycles) {
    const std::size_t n = cycle.activations.size();
    ready.assign(n, 0);
    // Trace ids are unique within a cycle and parents precede children.
    std::vector<std::pair<std::uint64_t, std::size_t>> index;
    index.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      index.emplace_back(cycle.activations[i].id.value(), i);
    }
    std::sort(index.begin(), index.end());
    std::vector<std::int64_t> children_seen(n, 0);

    std::int64_t work = procs * c.constant_tests.nanos();
    std::int64_t path = c.constant_tests.nanos();
    for (std::size_t i = 0; i < n; ++i) {
      const trace::TraceActivation& a = cycle.activations[i];
      const std::int64_t store =
          c.token_cost(a.side == rete::Side::Left).nanos();
      const std::int64_t search =
          c.per_successor.nanos() *
          static_cast<std::int64_t>(a.successors + a.instantiations);
      work += store + search;
      if (!a.parent.valid()) {
        ready[i] = c.constant_tests.nanos();
      } else {
        const auto it = std::lower_bound(
            index.begin(), index.end(),
            std::make_pair(a.parent.value(), std::size_t{0}));
        const std::size_t p = it->second;
        const trace::TraceActivation& pa = cycle.activations[p];
        const std::int64_t parent_store =
            merged ? c.token_cost(pa.side == rete::Side::Left).nanos() : 0;
        ++children_seen[p];
        ready[i] = ready[p] + parent_store +
                   c.per_successor.nanos() * children_seen[p];
      }
      const std::int64_t own =
          merged ? store + search : std::max(store, search);
      path = std::max(path, ready[i] + own);
    }
    total += std::max(path, (work + procs - 1) / procs);
  }
  return total;
}

/// Checks swept scenarios: every outcome against the reference engine and
/// the lower bound, and the 1-job outcomes against the 2-job ones.
void check_swept(const std::vector<core::SweepScenario>& scenarios,
                 const std::vector<core::SweepOutcome>& two,
                 const std::vector<core::SweepOutcome>& one, Checks& checks) {
  std::size_t count = two.size();
  if (checks.plant("sweep.count")) --count;
  checks.expect("sweep.count",
                count == scenarios.size() && one.size() == scenarios.size(),
                "outcome count differs from scenario count");
  for (std::size_t i = 0;
       i < scenarios.size() && i < two.size() && i < one.size(); ++i) {
    const core::SweepScenario& s = scenarios[i];
    sim::SimResult observed = two[i].result;
    if (checks.plant("sweep.refsim")) {
      observed.makespan = observed.makespan + SimTime::ns(1);
    }
    const std::string divergence = sim::describe_divergence(
        observed, sim::ref_simulate(*s.trace, s.config, s.assignment));
    checks.expect("sweep.refsim", divergence.empty(),
                  s.label + ": " + divergence);

    const std::int64_t bound = makespan_lower_bound(*s.trace, s.config);
    std::int64_t makespan = two[i].result.makespan.nanos();
    if (checks.plant("sweep.lower-bound")) makespan = bound - 1;
    checks.expect("sweep.lower-bound", makespan >= bound,
                  s.label + ": makespan " + std::to_string(makespan) +
                      " ns below the lower bound " + std::to_string(bound) +
                      " ns");

    core::SweepOutcome serial = one[i];
    if (checks.plant("sweep.jobs-identical")) ++serial.result.messages;
    const std::string jobs_diff =
        sim::describe_divergence(two[i].result, serial.result);
    checks.expect("sweep.jobs-identical",
                  two[i].label == serial.label && jobs_diff.empty() &&
                      two[i].baseline == serial.baseline &&
                      two[i].speedup == serial.speedup,
                  s.label + ": 1-job outcome differs from 2-job: " +
                      jobs_diff);
  }
}

/// Fresh traces for stream `k`, timed as a span of the trace layer.
Pass timed_pass(std::uint64_t seed, std::uint64_t k, Spans& spans,
                std::vector<double>& synth_ms) {
  const Clock::time_point t0 = Clock::now();
  Pass pass = make_pass(mix_seed(seed, k));
  const Clock::time_point t1 = Clock::now();
  synth_ms.push_back(micros_between(t0, t1) / 1000.0);
  spans.add("trace.synth", k, -1, t0, t1);
  return pass;
}

core::SweepRunner runner(unsigned jobs) {
  core::SweepOptions options;
  options.check_invariants = true;
  options.jobs = jobs;
  return core::SweepRunner(options);
}

/// The groups of a pass that swept without error, in pass order, with
/// their outcomes.
struct Swept {
  std::vector<core::SweepScenario> scenarios;
  std::vector<core::SweepOutcome> outcomes;
  double seconds = 0.0;  // Σ host time of the group sweeps
};

/// Sweeps `pass` one group per SweepRunner::run call, adding each group's
/// host time per scenario to `scenario_us`.  A group whose sweep throws
/// counts its scenarios as failed operations.
Swept sweep_groups(const Pass& pass, const core::SweepRunner& runner,
                   Report& report, std::vector<double>* scenario_us) {
  Swept swept;
  for (const std::vector<core::SweepScenario>& group : pass.groups) {
    report.attempted += group.size();
    const Clock::time_point t0 = Clock::now();
    std::vector<core::SweepOutcome> outcomes;
    try {
      outcomes = runner.run(group);
    } catch (const std::exception& e) {
      report.failed += group.size();
      std::cerr << "sweep failed: " << e.what() << "\n";
      continue;
    }
    const Clock::time_point t1 = Clock::now();
    swept.seconds += seconds_between(t0, t1);
    if (scenario_us != nullptr) {
      scenario_us->push_back(micros_between(t0, t1) /
                             static_cast<double>(group.size()));
    }
    swept.scenarios.insert(swept.scenarios.end(), group.begin(), group.end());
    std::move(outcomes.begin(), outcomes.end(),
              std::back_inserter(swept.outcomes));
  }
  return swept;
}

// Host seconds one pass takes on the reference host, checks included.  A
// run makes a fixed number of passes for its --seconds, so that the
// baseline cache, which keeps an entry per trace ever swept, grows by
// the same amount in every run and peak RSS stays comparable.
constexpr double kPassSeconds = 2.0;

std::uint64_t pass_count(double seconds, double seconds_per_pass) {
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::lround(seconds / seconds_per_pass)));
}

}  // namespace

Report run_sweep(const Options& options, Checks& checks) {
  Pass pass = make_pass(mix_seed(options.seed, 0));
  const core::SweepRunner one_job = runner(1);
  const core::SweepRunner two_jobs = runner(kJobs);
  const double setup_s = seconds_between(process_start(), Clock::now());

  Report report;
  std::vector<double> scenario_us;  // per group: host time / scenarios
  std::vector<double> pass_rates;   // per pass: scenarios / Σ group time
  const std::uint64_t passes = pass_count(options.seconds, kPassSeconds);
  for (std::uint64_t k = 0; k < passes; ++k) {
    if (k > 0) pass = make_pass(mix_seed(options.seed, k));
    const Swept swept = sweep_groups(pass, one_job, report, &scenario_us);
    if (swept.scenarios.empty()) continue;
    pass_rates.push_back(static_cast<double>(swept.scenarios.size()) /
                         swept.seconds);
    check_swept(swept.scenarios, two_jobs.run(swept.scenarios),
                swept.outcomes, checks);
  }
  report.add("setup_s", setup_s, "s");
  report.add("peak_rss_mb", peak_rss_mb(), "MiB");
  report.add("ops_per_s", median(pass_rates), "1/s");
  report.add("op_p50_us", median(scenario_us), "us");
  return report;
}

Paired sweep_layers(const Options& options, Checks& checks, Spans& spans,
                    Report& report) {
  const core::SweepRunner two_jobs = runner(kJobs);
  const core::SweepRunner one_job = runner(1);
  Paired paired;
  std::vector<double> two_rates, one_rates;  // scenarios/s on fresh traces
  std::vector<double> synth_ms, simulate_us, baseline_us, invariants_us;
  double simulate_s = 0.0;
  double two_job_simulate_s = 0.0;  // Σ simulate time of 2-job passes
  double two_job_wall_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t scenario_id = 0;

  // The calls the runner makes per scenario, made directly: untraced,
  // timed per scenario only, or traced, timed call by call with spans.
  // Returns the Σ simulate time of a traced loop.
  const auto direct = [&](const std::vector<core::SweepScenario>& scenarios,
                          bool traced) {
    double pass_simulate_s = 0.0;
    for (const core::SweepScenario& s : scenarios) {
      const Clock::time_point s0 = Clock::now();
      const sim::SimResult r = sim::simulate(*s.trace, s.config, s.assignment);
      const Clock::time_point s1 = traced ? Clock::now() : s0;
      sim::SimResult observed = r;
      if (checks.plant("sweep.invariants")) ++observed.local_deliveries;
      const sim::InvariantReport laws =
          sim::check_run_invariants(*s.trace, s.config, observed);
      const Clock::time_point s2 = traced ? Clock::now() : s0;
      sim::BaselineCache::shared().baseline(*s.trace);
      const Clock::time_point s3 = Clock::now();
      checks.expect("sweep.invariants", laws.ok(), s.label + laws.summary());
      if (!traced) {
        paired.untraced_us.push_back(micros_between(s0, s3));
        continue;
      }
      paired.traced_us.push_back(micros_between(s0, s3));
      const std::uint64_t id = ++scenario_id;
      const std::int64_t parent = spans.add("scenario", id, -1, s0, s3);
      spans.add("sim.simulate", id, parent, s0, s1);
      spans.add("sim.invariants", id, parent, s1, s2);
      spans.add("sim.baseline", id, parent, s2, s3);
      simulate_us.push_back(micros_between(s0, s1));
      invariants_us.push_back(micros_between(s1, s2));
      baseline_us.push_back(micros_between(s2, s3));
      pass_simulate_s += seconds_between(s0, s1);
      events += r.events;
    }
    return pass_simulate_s;
  };

  // Passes on fresh traces (streams apart from the untraced passes', so
  // the baseline cache misses as in a fresh `mpps sweep`), alternately
  // swept first at 2 jobs and first at 1 job; the other job count then
  // checks the outcomes.  The direct loop then runs each pass untraced
  // and traced, in alternating order.
  const std::uint64_t passes =
      2 * pass_count(options.seconds, 4 * kPassSeconds);
  for (std::uint64_t k = 0; k < passes; ++k) {
    const Pass pass = timed_pass(options.seed, 1000 + k, spans, synth_ms);
    std::vector<core::SweepScenario> scenarios;
    for (const auto& group : pass.groups) {
      scenarios.insert(scenarios.end(), group.begin(), group.end());
    }
    const auto n = static_cast<double>(scenarios.size());
    report.attempted += 2 * scenarios.size();
    const bool serial_first = k % 2 == 1;
    const core::SweepRunner& first = serial_first ? one_job : two_jobs;
    const core::SweepRunner& second = serial_first ? two_jobs : one_job;
    const Clock::time_point t0 = Clock::now();
    const std::vector<core::SweepOutcome> a = first.run(scenarios);
    const Clock::time_point t1 = Clock::now();
    spans.add(serial_first ? "core.sweep.jobs1" : "core.sweep.jobs2", k, -1,
              t0, t1);
    (serial_first ? one_rates : two_rates)
        .push_back(n / seconds_between(t0, t1));
    const std::vector<core::SweepOutcome> b = second.run(scenarios);
    check_swept(scenarios, serial_first ? b : a, serial_first ? a : b,
                checks);

    double pass_simulate_s = 0.0;
    for (const bool traced : {k % 2 == 0, k % 2 == 1}) {
      const double s = direct(scenarios, traced);
      if (traced) pass_simulate_s = s;
    }
    simulate_s += pass_simulate_s;
    if (!serial_first) {
      two_job_simulate_s += pass_simulate_s;
      two_job_wall_s += seconds_between(t0, t1);
    }
  }
  report.add("trace.synth_ms", median(synth_ms), "ms");
  report.add("sim.simulate_us", median(simulate_us), "us");
  report.add("sim.events_per_s", static_cast<double>(events) / simulate_s,
             "1/s");
  report.add("sim.baseline_us", median(baseline_us), "us");
  report.add("sim.invariants_us", median(invariants_us), "us");
  report.add("sweep.jobs_speedup", median(two_rates) / median(one_rates), "x");
  report.add("sweep.busy_share", two_job_simulate_s / (kJobs * two_job_wall_s),
             "ratio");
  return paired;
}

}  // namespace perfbench
