// Tests for the ParallelEngine's schedule-control seam: a controlled
// (cooperative, thread-free) engine driven by an identity controller must
// agree with the serial engine cycle for cycle, the engine validates
// every permutation a controller hands back, and the incompatible
// profiler+schedule combination is rejected at construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/ops5/parser.hpp"
#include "src/pmatch/engine.hpp"
#include "src/pmatch/schedule.hpp"
#include "src/rete/interp.hpp"
#include "src/obs/profiler.hpp"
#include "tests/pmatch_test_util.hpp"

namespace mpps {
namespace {

using pmatch_test::flatten;
using pmatch_test::load_program;
using pmatch_test::random_program;

/// Keeps every ordering exactly as the engine presents it (a valid
/// FIFO-respecting schedule, and the order the free-running engine
/// gathers rounds in: ascending sender, emission order within each).
struct IdentityControl : pmatch::ScheduleControl {
  void order_round(std::uint32_t, std::uint32_t,
                   std::span<const pmatch::ScheduledOp> ops,
                   std::vector<std::uint32_t>& order) override {
    order.resize(ops.size());
    std::iota(order.begin(), order.end(), 0u);
  }
  void order_merge(std::uint32_t, std::span<const pmatch::ScheduledOp> ops,
                   std::vector<std::uint32_t>& order) override {
    order.resize(ops.size());
    std::iota(order.begin(), order.end(), 0u);
  }
};

/// Serial vs controlled-parallel lockstep over a full interpreter run.
void run_controlled_lockstep(const std::string& source, std::uint32_t threads,
                             pmatch::ScheduleControl& control) {
  rete::InterpreterOptions serial_opts;
  serial_opts.max_cycles = 2000;
  rete::Interpreter serial(ops5::parse_program(source), serial_opts);

  pmatch::ParallelOptions popts;
  popts.threads = threads;
  popts.num_buckets = 8;
  popts.schedule = &control;
  rete::InterpreterOptions parallel_opts = serial_opts;
  parallel_opts.engine_factory = pmatch::parallel_engine_factory(popts);
  rete::Interpreter parallel(ops5::parse_program(source), parallel_opts);

  serial.load_initial_wmes();
  parallel.load_initial_wmes();
  bool running = true;
  std::size_t cycle = 0;
  while (running && cycle < serial_opts.max_cycles) {
    ++cycle;
    running = serial.step();
    ASSERT_EQ(running, parallel.step()) << "cycle " << cycle;
    ASSERT_EQ(flatten(serial.engine().conflict_set()),
              flatten(parallel.match_engine().conflict_set()))
        << "conflict sets diverge at cycle " << cycle;
  }
  EXPECT_EQ(serial.halted(), parallel.halted());
}

TEST(PmatchSchedule, ControlledIdentityMatchesSerial) {
  for (const char* program : {"counter.ops", "blocks.ops", "pairings.ops"}) {
    for (std::uint32_t threads : {1u, 2u, 4u}) {
      SCOPED_TRACE(std::string(program) + " threads " +
                   std::to_string(threads));
      IdentityControl control;
      run_controlled_lockstep(load_program(program), threads, control);
    }
  }
}

TEST(PmatchSchedule, ControlledIdentityMatchesSerialOnRandomPrograms) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    IdentityControl control;
    run_controlled_lockstep(random_program(seed), 2, control);
  }
}

/// Drives one fused phase with enough join traffic to reach round 1 (a
/// two-CE production's single join emits conflict deltas directly in
/// round 0, so three CEs are needed for round-ordered work items).
template <typename Control>
void run_join_phase(Control& control) {
  const ops5::Program program = ops5::parse_program(
      "(p pair (a ^k <x>) (b ^k <x>) (ctx ^tag on) --> (remove 1))\n");
  const rete::Network net = rete::Network::compile(program);
  pmatch::ParallelOptions popts;
  popts.threads = 2;
  popts.num_buckets = 4;
  popts.max_batch = 0;
  popts.schedule = &control;
  pmatch::ParallelEngine engine(net, popts);
  ops5::WorkingMemory wm;
  wm.add(ops5::Wme(Symbol::intern("ctx"),
                   {{Symbol::intern("tag"), ops5::Value::sym("on")}}));
  for (long k = 1; k <= 3; ++k) {
    wm.add(ops5::Wme(Symbol::intern("a"),
                     {{Symbol::intern("k"), ops5::Value(k)}}));
    wm.add(ops5::Wme(Symbol::intern("b"),
                     {{Symbol::intern("k"), ops5::Value(k)}}));
  }
  const std::vector<ops5::WmeChange> changes = wm.drain_changes();
  engine.process_changes(changes);
}

TEST(PmatchSchedule, TruncatedRoundOrderThrows) {
  struct Truncating final : IdentityControl {
    void order_round(std::uint32_t, std::uint32_t,
                     std::span<const pmatch::ScheduledOp> ops,
                     std::vector<std::uint32_t>& order) override {
      order.assign(ops.empty() ? 0 : ops.size() - 1, 0u);
    }
  } control;
  EXPECT_THROW(run_join_phase(control), RuntimeError);
}

TEST(PmatchSchedule, DuplicateIndexInOrderThrows) {
  struct Duplicating final : IdentityControl {
    void order_round(std::uint32_t, std::uint32_t,
                     std::span<const pmatch::ScheduledOp> ops,
                     std::vector<std::uint32_t>& order) override {
      order.assign(ops.size(), 0u);  // right size, not a permutation
    }
  } control;
  EXPECT_THROW(run_join_phase(control), RuntimeError);
}

TEST(PmatchSchedule, DescendingSenderRoundOrderIsStillCorrect) {
  // Taking the senders' streams highest sender first is a legal schedule:
  // each sender's FIFO is intact, so the conflict set must not change.
  struct DescendingSenders final : IdentityControl {
    void order_round(std::uint32_t, std::uint32_t,
                     std::span<const pmatch::ScheduledOp> ops,
                     std::vector<std::uint32_t>& order) override {
      order.resize(ops.size());
      std::iota(order.begin(), order.end(), 0u);
      std::stable_sort(order.begin(), order.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return ops[a].sender > ops[b].sender;
                       });
    }
  } control;
  for (std::uint32_t threads : {2u, 4u}) {
    SCOPED_TRACE(threads);
    run_controlled_lockstep(load_program("pairings.ops"), threads, control);
    run_controlled_lockstep(random_program(3), threads, control);
  }
}

TEST(PmatchSchedule, ProfilerPlusScheduleThrowsAtConstruction) {
  const ops5::Program program = ops5::parse_program(
      "(p pair (a ^k <x>) (b ^k <x>) --> (remove 1))\n");
  const rete::Network net = rete::Network::compile(program);
  IdentityControl control;
  obs::Profiler profiler;
  pmatch::ParallelOptions popts;
  popts.threads = 2;
  popts.schedule = &control;
  popts.profiler = &profiler;
  EXPECT_THROW(pmatch::ParallelEngine engine(net, popts), RuntimeError);
}

TEST(PmatchSchedule, ControlledEngineSpawnsNoThreads) {
  // The controlled engine runs phases cooperatively on the calling
  // thread; worker stats exist but accumulate no barrier wait time from
  // free-running threads.  Mostly this asserts construction/destruction
  // is clean without ever starting the thread pool.
  IdentityControl control;
  run_join_phase(control);
}

}  // namespace
}  // namespace mpps
