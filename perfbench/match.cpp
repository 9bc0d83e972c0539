// The `match_chain` and `match_fanout` workloads: a generated OPS5
// program run to halt through rete::Interpreter on the parallel match
// engine at 2 workers and batch 1 — the `mpps run --match-threads 2`
// path.
//
// match_chain has the shape of examples/programs/bench_chain.ops: each
// round asserts eight wmes that ripple down one 8-CE join chain, so
// rounds are deep and narrow and the engine's fixed cost per phase and
// per round dominates.  match_fanout has the shape of bench_fanout.ops:
// one trigger wme joins against 16 productions x 4 items, so rounds are
// wide and join and partition work dominate.  In both, every round fires
// two productions and the run ends with `done`, so an execution of R
// rounds fires exactly 2R + 1 times in 2R + 1 cycles.
#include <algorithm>
#include <exception>
#include <iostream>
#include <memory>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/bench.hpp"
#include "src/ops5/parser.hpp"
#include "src/pmatch/engine.hpp"
#include "src/rete/interp.hpp"
#include "src/rete/naive.hpp"
#include "src/rete/network.hpp"

namespace perfbench {
namespace {

using namespace mpps;

constexpr std::uint32_t kWorkers = 2;
// Every kSampleEvery-th cycle the conflict set is compared with the
// naive matcher.
constexpr std::uint64_t kSampleEvery = 101;
// Throughput is counted per chunk of this many consecutive cycles and
// reported as the median chunk, so a host stall of a few milliseconds
// moves one chunk, not the run's figure.
constexpr std::uint64_t kChunkCycles = 500;

/// A generated program and what running it to halt must produce.
struct Shape {
  std::string source;
  long rounds = 0;
  long first_round = 0;
};

Shape chain_program(std::uint64_t seed, long rounds) {
  std::mt19937_64 rng(seed);
  Shape shape;
  shape.rounds = rounds;
  shape.first_round = static_cast<long>(rng() % 100000);
  // Seeded class names move the hash buckets around the partition.
  std::string cls = "c";
  cls += std::to_string(rng() % 10000);
  cls += 'x';
  std::ostringstream p;
  p << "(make control ^round " << shape.first_round << " ^limit "
    << shape.first_round + rounds << ")\n";
  std::string ces;
  for (int i = 0; i < 8; ++i) ces += " (" + cls + std::to_string(i) + " ^k <x>)";
  p << "(p chain" << ces << " --> (halt))\n";
  p << "(p kick (control ^round <r> ^limit <max> ^round < <max>) -(" << cls
    << "0) -->";
  for (int i = 0; i < 8; ++i) p << " (make " << cls << i << " ^k <r>)";
  p << ")\n";
  p << "(p cleanup (control ^round <r> ^limit <max> ^round < <max>)" << ces
    << " -->";
  for (int i = 2; i <= 9; ++i) p << " (remove " << i << ")";
  p << " (modify 1 ^round (compute <r> + 1)))\n";
  p << "(p done (control ^round <r> ^limit <r>) --> (halt))\n";
  shape.source = p.str();
  return shape;
}

Shape fanout_program(std::uint64_t seed, long rounds) {
  constexpr int kSlots = 16;
  constexpr int kItemsPerSlot = 4;
  std::mt19937_64 rng(seed);
  Shape shape;
  shape.rounds = rounds;
  shape.first_round = static_cast<long>(rng() % 100000);
  const long g = static_cast<long>(rng() % 1000);
  std::vector<long> slot;
  while (slot.size() < kSlots) {
    const long s = static_cast<long>(rng() % 100000);
    if (std::find(slot.begin(), slot.end(), s) == slot.end()) slot.push_back(s);
  }
  std::vector<std::string> items;
  for (const long s : slot) {
    for (int i = 0; i < kItemsPerSlot; ++i) {
      items.push_back("(make item ^slot " + std::to_string(s) + " ^g " +
                      std::to_string(g) + ")\n");
    }
  }
  std::shuffle(items.begin(), items.end(), rng);
  std::ostringstream p;
  for (const std::string& item : items) p << item;
  // The control wme is made last: LEX then prefers `retract`, whose
  // instantiation holds the freshest timetags, over every fan match.
  p << "(make control ^round " << shape.first_round << " ^limit "
    << shape.first_round + rounds << ")\n";
  for (int i = 0; i < kSlots; ++i) {
    p << "(p fan" << i << " (trigger ^g <g>) (item ^slot " << slot[i]
      << " ^g <g>) --> (halt))\n";
  }
  p << "(p kick (control ^round <r> ^limit <max> ^round < <max>) -(trigger)"
       " --> (make trigger ^g "
    << g << "))\n";
  p << "(p retract (control ^round <r> ^limit <max> ^round < <max>)"
       " (trigger ^g <g>) --> (remove 2) (modify 1 ^round (compute <r> + 1)))\n";
  p << "(p done (control ^round <r> ^limit <r>) --> (halt))\n";
  shape.source = p.str();
  return shape;
}

/// Times every act phase the interpreter hands to the engine behind it.
class TimedEngine final : public rete::MatchEngine {
 public:
  explicit TimedEngine(std::unique_ptr<rete::MatchEngine> inner)
      : inner_(std::move(inner)) {}

  void set_listener(rete::ActivationListener* listener) override {
    inner_->set_listener(listener);
  }
  void process_change(const ops5::WmeChange& change) override {
    const Clock::time_point t0 = Clock::now();
    inner_->process_change(change);
    add(t0, Clock::now());
  }
  void process_changes(std::span<const ops5::WmeChange> changes) override {
    const Clock::time_point t0 = Clock::now();
    inner_->process_changes(changes);
    add(t0, Clock::now());
  }
  [[nodiscard]] rete::ConflictSet& conflict_set() override {
    return inner_->conflict_set();
  }
  [[nodiscard]] const ops5::Wme& wme(WmeId id) const override {
    return inner_->wme(id);
  }
  [[nodiscard]] const rete::EngineStats& stats() const override {
    return inner_->stats();
  }

  [[nodiscard]] rete::MatchEngine& inner() { return *inner_; }
  /// Match time since the last call, and the last call's interval.
  double take_us() {
    const double us = us_;
    us_ = 0.0;
    return us;
  }
  Clock::time_point last_start{};
  Clock::time_point last_end{};

 private:
  void add(Clock::time_point t0, Clock::time_point t1) {
    us_ += micros_between(t0, t1);
    last_start = t0;
    last_end = t1;
  }
  std::unique_ptr<rete::MatchEngine> inner_;
  double us_ = 0.0;
};

enum class Mode { Parallel, ParallelTraced, Serial };

rete::InterpreterOptions interpreter_options(Mode mode) {
  rete::InterpreterOptions o;
  if (mode == Mode::Serial) return o;
  pmatch::ParallelOptions po;
  po.threads = kWorkers;
  po.max_batch = 1;
  rete::MatchEngineFactory parallel = pmatch::parallel_engine_factory(po);
  if (mode == Mode::Parallel) {
    o.engine_factory = std::move(parallel);
  } else {
    o.engine_factory = [parallel](const rete::Network& net,
                                  const rete::EngineOptions& eo) {
      return std::make_unique<TimedEngine>(parallel(net, eo));
    };
  }
  return o;
}

/// What the layers of one mode's executions measured.
struct Sample {
  Reservoir cycle_us;
  Reservoir match_us;    // traced only
  Reservoir resolve_us;  // traced only
  std::vector<double> chunk_rates;  // cycles/s per kChunkCycles cycles
  double chunk_s = 0.0;
  std::uint64_t chunk_cycles = 0;
  std::uint64_t cycles = 0;
  std::uint64_t failed = 0;  // steps that threw
  // The parallel engine's public counters (traced only).
  std::uint64_t rounds = 0, phases = 0, changes = 0;
  std::uint64_t activations = 0, messages = 0;
  double busy_ns = 0.0, idle_ns = 0.0;
};

/// Runs `interp` to halt, timing each cycle, and checks its outputs.
void execute(rete::Interpreter& interp, const ops5::Program& program,
             const Shape& shape, Mode mode, Checks& checks, Spans& spans,
             std::uint64_t& cycle_id, Sample& out) {
  const auto expected = static_cast<std::size_t>(2 * shape.rounds + 1);
  auto* timed = mode == Mode::ParallelTraced
                    ? dynamic_cast<TimedEngine*>(&interp.match_engine())
                    : nullptr;
  for (std::uint64_t cycle = 1;; ++cycle) {
    const bool sample = cycle % kSampleEvery == 1;
    std::vector<ops5::Wme> before;
    if (sample) {
      for (const ops5::Wme* w : interp.wm().all()) before.push_back(*w);
    }
    const Clock::time_point t0 = Clock::now();
    bool more = false;
    try {
      more = interp.step();
    } catch (const std::exception& e) {
      // The execution cannot go on; its end state is not checked.
      ++out.failed;
      std::cerr << "match step failed: " << e.what() << "\n";
      return;
    }
    const Clock::time_point t1 = Clock::now();
    const double us = micros_between(t0, t1);
    out.cycle_us.add(us);
    ++out.cycles;
    out.chunk_s += us / 1e6;
    if (++out.chunk_cycles == kChunkCycles) {
      out.chunk_rates.push_back(static_cast<double>(kChunkCycles) /
                                out.chunk_s);
      out.chunk_s = 0.0;
      out.chunk_cycles = 0;
    }
    ++cycle_id;
    if (timed != nullptr) {
      const double match = timed->take_us();
      out.match_us.add(match);
      out.resolve_us.add(us - match);
      const std::int64_t parent =
          spans.add("interp.cycle", cycle_id, -1, t0, t1);
      spans.add("pmatch.match", cycle_id, parent, timed->last_start,
                timed->last_end);
    } else if (mode == Mode::Serial) {
      spans.add("rete.serial_cycle", cycle_id, -1, t0, t1);
    }

    if (sample) {
      // After a step the engine holds the match of the working memory as
      // it stood before the step's act phase.
      std::vector<rete::Instantiation> engine =
          interp.match_engine().conflict_set().all();
      if (checks.plant("match.conflict-set")) {
        if (engine.empty()) {
          engine.emplace_back();
        } else {
          engine.pop_back();
        }
      }
      std::vector<const ops5::Wme*> live;
      for (const ops5::Wme& w : before) live.push_back(&w);
      std::vector<rete::Instantiation> naive = rete::naive_match(program, live);
      std::sort(engine.begin(), engine.end(), instantiation_less);
      std::sort(naive.begin(), naive.end(), instantiation_less);
      checks.expect("match.conflict-set", engine == naive,
                    "cycle " + std::to_string(cycle) + ": engine holds " +
                        std::to_string(engine.size()) +
                        " instantiations, naive matcher " +
                        std::to_string(naive.size()));
    }
    if (!more || cycle > expected + 10) break;
  }

  std::size_t firings = interp.firings().size();
  if (checks.plant("match.firings")) ++firings;
  checks.expect("match.firings", firings == expected,
                std::to_string(firings) + " firings, expected " +
                    std::to_string(expected));
  std::size_t cycles = interp.cycle();
  if (checks.plant("match.cycles")) ++cycles;
  checks.expect("match.cycles", cycles == expected,
                std::to_string(cycles) + " cycles, expected " +
                    std::to_string(expected));
  bool halted = interp.halted();
  if (checks.plant("match.halted")) halted = false;
  checks.expect("match.halted", halted, "run did not end in halt");
  long round = -1;
  for (const ops5::Wme* w : interp.wm().all()) {
    if (w->wme_class() == Symbol::intern("control")) {
      round = w->get(Symbol::intern("round")).as_int();
    }
  }
  if (checks.plant("match.final-round")) ++round;
  checks.expect("match.final-round", round == shape.first_round + shape.rounds,
                "final control ^round " + std::to_string(round) +
                    ", expected " +
                    std::to_string(shape.first_round + shape.rounds));

  if (timed != nullptr) {
    auto& engine = dynamic_cast<pmatch::ParallelEngine&>(timed->inner());
    out.rounds += engine.rounds();
    out.phases += engine.phases();
    out.changes += engine.changes();
    for (const pmatch::WorkerStats& w : engine.worker_stats()) {
      out.activations += w.activations;
      out.messages += w.messages_sent;
      out.busy_ns += static_cast<double>(w.busy_ns);
      out.idle_ns += static_cast<double>(w.idle_ns);
    }
  }
}

/// Median round trip of a WM change that reaches no join through a fresh
/// pmatch::ParallelEngine over `net`: the engine's fixed cost of one BSP
/// phase at `workers` worker threads.
double empty_phase_us(const rete::Network& net, std::uint32_t workers) {
  pmatch::ParallelOptions po;
  po.threads = workers;
  pmatch::ParallelEngine engine(net, po);
  ops5::Wme inert(Symbol::intern("perfbench-inert"),
                  {{Symbol::intern("v"), ops5::Value{1L}}});
  std::vector<double> us;
  for (std::uint64_t i = 1; i <= 2000; ++i) {
    inert.rebind_id(WmeId{i});
    for (const auto kind :
         {ops5::WmeChange::Kind::Add, ops5::WmeChange::Kind::Delete}) {
      const Clock::time_point t0 = Clock::now();
      engine.process_change(ops5::WmeChange{kind, inert});
      us.push_back(micros_between(t0, Clock::now()));
    }
  }
  return median(us);
}

using MakeProgram = Shape (*)(std::uint64_t, long);

MakeProgram program_of(MatchShape shape) {
  return shape == MatchShape::Chain ? chain_program : fanout_program;
}
// Rounds per generated program: thousands, so one execution is a long
// run of identical rounds.
long rounds_of(MatchShape shape) {
  return shape == MatchShape::Chain ? 1500 : 2000;
}

/// Runs generated programs (stream `first_stream` onwards) until
/// `seconds` have passed, whole executions only: each program once in
/// every mode of `modes`, in alternating order from one program to the
/// next.  out[i] gathers the executions in modes[i].
std::vector<Sample> run_programs(const Options& options, MatchShape kind,
                                 std::vector<Mode> modes,
                                 std::uint64_t first_stream, Checks& checks,
                                 Spans& spans, double* setup_s) {
  std::vector<Sample> out(modes.size());
  std::uint64_t cycle_id = first_stream << 32;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));
  for (std::uint64_t k = first_stream;; ++k) {
    const Shape shape =
        program_of(kind)(mix_seed(options.seed, k), rounds_of(kind));
    const ops5::Program program = ops5::parse_program(shape.source);
    for (std::size_t j = 0; j < modes.size(); ++j) {
      const std::size_t i = k % 2 == 0 ? j : modes.size() - 1 - j;
      rete::Interpreter interp(program, interpreter_options(modes[i]));
      interp.load_initial_wmes();
      if (setup_s != nullptr && k == first_stream && j == 0) {
        *setup_s = seconds_between(process_start(), Clock::now());
      }
      execute(interp, program, shape, modes[i], checks, spans, cycle_id,
              out[i]);
    }
    if (Clock::now() >= deadline) return out;
  }
}

}  // namespace

Report run_match(const Options& options, MatchShape kind, Checks& checks) {
  Spans off(false);
  double setup_s = 0.0;
  const Sample s = run_programs(options, kind, {Mode::Parallel}, 0, checks,
                                off, &setup_s)
                       .front();
  Report report;
  report.attempted = s.cycles + s.failed;
  report.failed = s.failed;
  report.add("setup_s", setup_s, "s");
  report.add("peak_rss_mb", peak_rss_mb(), "MiB");
  report.add("ops_per_s", median(s.chunk_rates), "1/s");
  report.add("op_p50_us", median(s.cycle_us.values()), "us");
  return report;
}

Paired match_layers(const Options& options, MatchShape kind,
                    std::uint32_t empty_phase_workers, Checks& checks,
                    Spans& spans, Report& report) {
  const std::vector<Sample> paired =
      run_programs(options, kind, {Mode::Parallel, Mode::ParallelTraced},
                   1000, checks, spans, nullptr);
  const Sample& traced = paired[1];
  // The serial engine on one program of the same shape, the reference
  // floor for the parallel rows.
  Options one = options;
  one.seconds = 0.0;
  const Sample serial = run_programs(one, kind, {Mode::Serial}, 2000, checks,
                                     spans, nullptr)
                            .front();
  for (const Sample* s : {&paired[0], &traced, &serial}) {
    report.attempted += s->cycles + s->failed;
    report.failed += s->failed;
  }
  const Shape shape =
      program_of(kind)(mix_seed(options.seed, 3000), rounds_of(kind));
  std::vector<double> parse_ms, compile_ms;
  for (std::uint64_t i = 0; i < 20; ++i) {
    const Clock::time_point t0 = Clock::now();
    const ops5::Program parsed = ops5::parse_program(shape.source);
    const Clock::time_point t1 = Clock::now();
    const rete::Network net = rete::Network::compile(parsed);
    const Clock::time_point t2 = Clock::now();
    spans.add("ops5.parse", i, -1, t0, t1);
    spans.add("rete.compile", i, -1, t1, t2);
    parse_ms.push_back(micros_between(t0, t1) / 1000.0);
    compile_ms.push_back(micros_between(t1, t2) / 1000.0);
  }
  const double empty_us = empty_phase_us(
      rete::Network::compile(ops5::parse_program(shape.source)),
      empty_phase_workers);

  const auto per = [](double num, std::uint64_t den) {
    return num / static_cast<double>(std::max<std::uint64_t>(den, 1));
  };
  report.add("ops5.parse_ms", median(parse_ms), "ms");
  report.add("rete.compile_ms", median(compile_ms), "ms");
  report.add("pmatch.match_us", median(traced.match_us.values()), "us");
  report.add("interp.resolve_act_us", median(traced.resolve_us.values()), "us");
  report.add("pmatch.empty_phase_us", empty_us, "us");
  report.add("pmatch.rounds_per_phase",
             per(static_cast<double>(traced.rounds), traced.phases), "count");
  report.add("pmatch.activations_per_change",
             per(static_cast<double>(traced.activations), traced.changes),
             "count");
  report.add("pmatch.messages_per_change",
             per(static_cast<double>(traced.messages), traced.changes),
             "count");
  report.add("pmatch.busy_share",
             traced.busy_ns / std::max(traced.busy_ns + traced.idle_ns, 1.0),
             "ratio");
  report.add("rete.serial_cycle_us", median(serial.cycle_us.values()), "us");
  return Paired{paired[0].cycle_us.values(), traced.cycle_us.values()};
}

}  // namespace perfbench
