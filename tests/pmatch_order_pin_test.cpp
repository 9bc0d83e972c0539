// Pins the parallel match engine's multi-thread merge order.  The other
// determinism tests compare a run with itself, so they cannot see the
// order drift; these digests of the activation-record stream and of the
// conflict-set order are fixed values.  They depend on symbol interning
// order (symbol join keys hash by intern id), so this suite is its own
// test binary: nothing else interns symbols before it runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/ops5/parser.hpp"
#include "src/pmatch/engine.hpp"
#include "src/rete/interp.hpp"
#include "tests/pmatch_test_util.hpp"

namespace mpps {
namespace {

using pmatch_test::load_program;

/// FNV-1a digests of what the multi-thread merge produces: the activation
/// stream the listener sees (id, parent, node, side, tag, bucket, in
/// delivery order) and the conflict set's entry order after every cycle.
struct OrderDigest : rete::ActivationListener {
  std::uint64_t activations = 0xCBF29CE484222325ull;
  std::uint64_t conflicts = 0xCBF29CE484222325ull;

  static void mix(std::uint64_t& h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i, v >>= 8) {
      h = (h ^ (v & 0xFF)) * 0x100000001B3ull;
    }
  }
  void on_activation(const rete::ActivationRecord& r) override {
    mix(activations, r.id.value());
    mix(activations, r.parent.valid() ? r.parent.value() : 0);
    mix(activations, r.node.value());
    mix(activations, static_cast<std::uint64_t>(r.side));
    mix(activations, static_cast<std::uint64_t>(r.tag));
    mix(activations, r.bucket);
  }
  void add_conflict_set(const rete::ConflictSet& cs) {
    for (const rete::Instantiation& inst : cs.all()) {
      mix(conflicts, inst.production.value());
      for (WmeId w : inst.token.wmes) mix(conflicts, w.value());
    }
    mix(conflicts, cs.size());
  }
};

TEST(PmatchDeterminism, MultiThreadOrderingIsPinned) {
  // The free-running engine's merge order at >1 threads is a contract of
  // its own (traces, activation ids and LEX ties depend on it), not just
  // "equal to itself run to run".  These digests were recorded when the
  // next round was still assembled by a (sender, seq) sort; any change to
  // how a round's input is gathered must reproduce them exactly.
  struct Pin {
    const char* program;
    std::uint32_t threads;
    std::uint32_t batch;
    std::uint64_t activations;
    std::uint64_t conflicts;
  };
  const Pin pins[] = {
      {"bench_chain.ops", 2, 1, 0x69eaf256f95d78f9ull,
       0xa3c614c1d5a81653ull},
      {"bench_chain.ops", 2, 16, 0x505af45a895140d7ull,
       0x8e2580c08c529bd3ull},
      {"bench_chain.ops", 4, 1, 0x898f47bf47740c01ull,
       0x458dc320da15c713ull},
      {"bench_chain.ops", 4, 16, 0xca8bef17d25cc42aull,
       0x8e2580c08c529bd3ull},
      {"bench_chain.ops", 8, 1, 0x4ef636c21a9f7f69ull,
       0x31178d88514c2d33ull},
      {"bench_chain.ops", 8, 16, 0x6808d45c12a5767cull,
       0x8e2580c08c529bd3ull},
      {"bench_fanout.ops", 2, 1, 0x5b2ef58c8f794167ull,
       0xea34e770cfa7b917ull},
      {"bench_fanout.ops", 2, 16, 0x7b245dcaf57dd927ull,
       0xea34e770cfa7b917ull},
      {"bench_fanout.ops", 4, 1, 0x6ddd13a83eca4e1full,
       0x22539060994e8a17ull},
      {"bench_fanout.ops", 4, 16, 0x164b97f386358833ull,
       0x22539060994e8a17ull},
      {"bench_fanout.ops", 8, 1, 0x1d57dbe9b534581bull,
       0x772ba906cf018c97ull},
      {"bench_fanout.ops", 8, 16, 0x34d470937f912dcfull,
       0x772ba906cf018c97ull},
      {"pairings.ops", 2, 1, 0xf235c999ca6be4e2ull,
       0xd03054240f30339aull},
      {"pairings.ops", 2, 16, 0x72ed6ef704a62c25ull,
       0xefd2291f9943a5aull},
      {"pairings.ops", 4, 1, 0xb95b657c9de46c20ull,
       0xad2bc5c473a04b1aull},
      {"pairings.ops", 4, 16, 0xf1b66f8fff3fd2e5ull,
       0xad6a61420104059aull},
      {"pairings.ops", 8, 1, 0xca8b0ee4a09122eeull,
       0xd3da1942fde819aull},
      {"pairings.ops", 8, 16, 0xcc4076f1f378fb4aull,
       0x5c198e16b0b681daull},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(std::string(pin.program) + " threads " +
                 std::to_string(pin.threads) + " batch " +
                 std::to_string(pin.batch));
    pmatch::ParallelOptions popts;
    popts.threads = pin.threads;
    popts.max_batch = pin.batch;
    rete::InterpreterOptions options;
    options.max_cycles = 2000;
    options.engine_factory = pmatch::parallel_engine_factory(popts);
    rete::Interpreter interp(ops5::parse_program(load_program(pin.program)),
                             options);
    OrderDigest digest;
    interp.match_engine().set_listener(&digest);
    interp.load_initial_wmes();
    digest.add_conflict_set(interp.match_engine().conflict_set());
    while (interp.step()) {
      digest.add_conflict_set(interp.match_engine().conflict_set());
    }
    digest.add_conflict_set(interp.match_engine().conflict_set());
    EXPECT_GT(interp.firings().size(), 0u);
    EXPECT_EQ(digest.activations, pin.activations)
        << std::hex << "activations 0x" << digest.activations;
    EXPECT_EQ(digest.conflicts, pin.conflicts)
        << std::hex << "conflicts 0x" << digest.conflicts;
  }
}

}  // namespace
}  // namespace mpps
