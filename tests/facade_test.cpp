// The public facade (src/mpps.hpp) end to end: everything a downstream
// user is promised — parse, compile, serial and parallel matching, trace
// collection, simulation, sweeps — reached ONLY through the facade's
// re-exported names and builders.  If a rename inside a sub-namespace
// breaks this suite, the facade (the public contract) regressed.
#include "src/mpps.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

// Two-CE productions so matching exercises the beta network (and thus
// the ActivationListener the Collector hangs off — single-CE productions
// take the direct alpha path and record no trace activations).
constexpr const char* kProgram = R"(
  (make job ^id 1)
  (make job ^id 2)
  (make worker ^id 1)
  (make worker ^id 2)
  (p assign (job ^id <i>) (worker ^id <i>) --> (remove 1))
)";

TEST(Facade, ParseCompileRun) {
  const mpps::Program program = mpps::parse_program(kProgram);
  const mpps::Network net = mpps::Network::compile(program);
  EXPECT_FALSE(net.productions().empty());

  mpps::InterpreterOptions options;
  options.engine = mpps::EngineOptionsBuilder().num_buckets(64).build();
  mpps::Interpreter interp(program, options);
  interp.load_initial_wmes();
  const auto result = interp.run();
  EXPECT_EQ(result.firings, 2u);
}

TEST(Facade, ParallelEngineThroughBuilder) {
  mpps::Registry registry;
  const mpps::ParallelOptions popts = mpps::ParallelOptionsBuilder()
                                          .threads(2)
                                          .random_partition(7)
                                          .metrics(&registry)
                                          .build();
  EXPECT_EQ(popts.threads, 2u);
  mpps::InterpreterOptions options;
  options.engine_factory = mpps::parallel_engine_factory(popts);
  mpps::Interpreter interp(mpps::parse_program(kProgram), options);
  interp.load_initial_wmes();
  const auto result = interp.run();
  EXPECT_EQ(result.firings, 2u);
  const auto& engine =
      dynamic_cast<const mpps::ParallelEngine&>(interp.match_engine());
  EXPECT_EQ(engine.threads(), 2u);
  EXPECT_EQ(engine.worker_stats().size(), 2u);
}

TEST(Facade, BatchedParallelEngineThroughBuilder) {
  const mpps::ParallelOptions popts = mpps::ParallelOptionsBuilder()
                                          .threads(2)
                                          .max_batch(16)
                                          .build();
  EXPECT_EQ(popts.max_batch, 16u);
  mpps::InterpreterOptions options;
  options.engine_factory = mpps::parallel_engine_factory(popts);
  mpps::Interpreter interp(mpps::parse_program(kProgram), options);
  interp.load_initial_wmes();
  const auto result = interp.run();
  EXPECT_EQ(result.firings, 2u);
  const auto& engine =
      dynamic_cast<const mpps::ParallelEngine&>(interp.match_engine());
  // Batching fuses phases, so the engine ran no more phases than changes.
  EXPECT_LE(engine.phases(), engine.changes());
}

TEST(Facade, BatchMisuseThrowsDocumentedErrors) {
  // The begin_batch()/flush() contract holds at the facade layer too:
  // flush without an open batch and a double begin_batch both raise
  // mpps::RuntimeError, and the engine stays usable after the throw.
  const mpps::Program program = mpps::parse_program(kProgram);
  const mpps::Network net = mpps::Network::compile(program);
  const mpps::ParallelOptions popts =
      mpps::ParallelOptionsBuilder().threads(2).build();
  mpps::ParallelEngine engine(net, popts);
  EXPECT_THROW(engine.flush(), mpps::RuntimeError);
  engine.begin_batch();
  EXPECT_THROW(engine.begin_batch(), mpps::RuntimeError);
  // Still inside the (single) open batch: flushing works and the engine
  // processes changes normally afterwards.
  engine.flush();
  EXPECT_FALSE(engine.batching());
  mpps::WorkingMemory wm;
  wm.add(mpps::Wme(mpps::Symbol::intern("job"),
                   {{mpps::Symbol::intern("id"), mpps::Value(9L)}}));
  for (const mpps::WmeChange& change : wm.drain_changes()) {
    engine.process_change(change);
  }
  EXPECT_EQ(engine.changes(), 1u);
}

TEST(Facade, ModelCheckerIsReachable) {
  // The model checker's supported surface: corpus, exhaustive check,
  // schedule IDs and single-schedule replay.
  const std::vector<mpps::Scenario> corpus = mpps::builtin_corpus();
  ASSERT_FALSE(corpus.empty());
  mpps::CheckOptions options;
  const mpps::ScenarioReport report =
      mpps::check_scenario(corpus.front(), options);
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(
      mpps::run_schedule(corpus.front(), mpps::ScheduleId::parse("-"))
          .has_value());
}

TEST(Facade, EveryBuilderSetterRejectsInvalidInputNamingTheField) {
  // The unified builder error contract: every setter validates in the
  // setter itself, throws mpps::UsageError, and the message names the
  // offending field — no builder defers validation to build() or coerces
  // silently.  One table row per reject path.
  struct RejectCase {
    const char* field;                 // must appear in the message
    std::function<void()> poke;       // invokes the setter with bad input
  };
  const std::vector<RejectCase> cases = {
      {"match_processors",
       [] { mpps::SimConfigBuilder().match_processors(0); }},
      {"run", [] { mpps::SimConfigBuilder().run(-1); }},
      {"run", [] { mpps::SimConfigBuilder().run(5); }},
      {"num_buckets", [] { mpps::EngineOptionsBuilder().num_buckets(0); }},
      {"threads", [] { mpps::ParallelOptionsBuilder().threads(0); }},
      {"num_buckets",
       [] { mpps::ParallelOptionsBuilder().num_buckets(0); }},
      {"threads", [] { mpps::ServeOptionsBuilder().threads(0); }},
      {"num_buckets", [] { mpps::ServeOptionsBuilder().num_buckets(0); }},
      {"admission_batch",
       [] { mpps::ServeOptionsBuilder().admission_batch(0); }},
      {"queue_capacity",
       [] { mpps::ServeOptionsBuilder().queue_capacity(0); }},
      {"max_sessions",
       [] { mpps::ServeOptionsBuilder().max_sessions(0); }},
      {"latency_bounds_us",
       [] { mpps::ServeOptionsBuilder().latency_bounds_us({}); }},
      {"latency_bounds_us",
       [] { mpps::ServeOptionsBuilder().latency_bounds_us({4, 2, 8}); }},
  };
  for (const RejectCase& c : cases) {
    try {
      c.poke();
      ADD_FAILURE() << c.field << ": invalid input was accepted";
    } catch (const mpps::UsageError& e) {
      EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
          << "message does not name the field: " << e.what();
    }
  }
  // The happy paths still configure what they say.
  EXPECT_EQ(mpps::ParallelOptionsBuilder().threads(3).build().threads, 3u);
  EXPECT_EQ(
      mpps::ServeOptionsBuilder().admission_batch(9).build().admission_batch,
      9u);
  EXPECT_EQ(mpps::SimConfigBuilder().match_processors(5).build()
                .match_processors,
            5u);
}

TEST(Facade, CollectTraceSimulateAndSweep) {
  // Record a trace through the facade's Collector...
  const mpps::Program program = mpps::parse_program(kProgram);
  mpps::InterpreterOptions options;
  mpps::Interpreter interp(program, options);
  mpps::Collector collector(options.engine.num_buckets);
  interp.match_engine().set_listener(&collector);
  interp.load_initial_wmes();
  bool running = true;
  while (running) {
    collector.begin_cycle();
    running = interp.step();
  }
  const mpps::Trace trace = collector.take("facade");
  EXPECT_GT(trace.total_activations(), 0u);

  // ...replay it on the simulated machine via the SimConfig builder...
  const mpps::SimConfig config = mpps::SimConfigBuilder()
                                     .match_processors(4)
                                     .run(2)
                                     .termination(
                                         mpps::TerminationModel::AckCounting)
                                     .build();
  const mpps::SimResult result = mpps::simulate(
      trace, config,
      mpps::Assignment::round_robin(trace.num_buckets, config.partitions()));
  EXPECT_GT(result.makespan.nanos(), 0);

  // ...and sweep two processor counts through SweepRunner.
  mpps::SweepOptions sweep_options;
  sweep_options.jobs = 1;
  std::vector<mpps::SweepScenario> scenarios;
  for (const std::uint32_t procs : {2u, 4u}) {
    mpps::SweepScenario scenario;
    scenario.label = "p" + std::to_string(procs);
    scenario.trace = &trace;
    scenario.config = mpps::SimConfigBuilder().match_processors(procs).build();
    scenario.assignment =
        mpps::Assignment::round_robin(trace.num_buckets, procs);
    scenarios.push_back(std::move(scenario));
  }
  const auto outcomes = mpps::SweepRunner(sweep_options).run(scenarios);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_GT(outcomes[0].speedup, 0.0);
}

TEST(Facade, TraceRoundTripAndPipeline) {
  const mpps::PipelineResult piped =
      mpps::record_trace_from_source(kProgram, "facade");
  std::ostringstream os;
  mpps::write_trace(os, piped.trace);
  std::istringstream is(os.str());
  const mpps::Trace back = mpps::read_trace(is);
  EXPECT_EQ(back.total_activations(), piped.trace.total_activations());
}

TEST(Facade, CliIsReachable) {
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(mpps::run_cli({"help"}, out, err), 0);
  EXPECT_NE(out.str().find("simulate"), std::string::npos);
}

TEST(Facade, ProfilerThroughBuilder) {
  // The whole profiling surface through facade names only: Profiler
  // wired via the builder, the report types, the category names, and
  // the text renderer.
  mpps::Profiler profiler;
  const mpps::ParallelOptions popts = mpps::ParallelOptionsBuilder()
                                          .threads(2)
                                          .profiler(&profiler)
                                          .build();
  ASSERT_EQ(popts.profiler, &profiler);
  mpps::InterpreterOptions options;
  options.engine_factory = mpps::parallel_engine_factory(popts);
  mpps::Interpreter interp(mpps::parse_program(kProgram), options);
  interp.load_initial_wmes();
  interp.run();

  EXPECT_TRUE(profiler.attached());
  const mpps::ProfileReport report = profiler.report();
  ASSERT_EQ(report.workers.size(), 2u);
  EXPECT_GE(report.min_attributed_pct(), 0.0);
  EXPECT_GT(report.phases, 0u);
  EXPECT_STREQ(mpps::prof_category_name(mpps::ProfCategory::BarrierWait),
               "barrier_wait");
  std::ostringstream os;
  mpps::print_profile_report(os, report);
  EXPECT_NE(os.str().find("wall-clock phase attribution"), std::string::npos);

  // Measured lanes export through the facade's Tracer.
  mpps::Tracer tracer;
  profiler.export_chrome_trace(tracer);
  std::ostringstream trace_json;
  tracer.write_chrome_json(trace_json);
  EXPECT_NE(trace_json.str().find("measured worker 0"), std::string::npos);
}

TEST(Facade, ServeSessionTransactionSurface) {
  // The serving surface through facade names only: ServeOptionsBuilder,
  // ServeEngine, Session/Transaction, TxResult, stats and the latency
  // report.
  const mpps::ServeOptions sopts =
      mpps::ServeOptionsBuilder().threads(2).admission_batch(4).build();
  mpps::ServeEngine engine(
      mpps::parse_program("(p assign (job ^id <i>) (worker ^id <i>) "
                          "--> (remove 1))"),
      sopts);
  mpps::Session session = engine.open_session();
  mpps::Transaction tx;
  tx.add(mpps::ops5::parse_wme("(job ^id 1)"))
      .add(mpps::ops5::parse_wme("(worker ^id 1)"));
  const mpps::TxResult result = session.transact(std::move(tx));
  EXPECT_EQ(result.added.size(), 2u);
  EXPECT_EQ(result.fired.size(), 1u);
  const mpps::ServeStats stats = engine.stats();
  EXPECT_EQ(stats.transactions, 1u);
  EXPECT_EQ(stats.cross_session_deltas, 0u);
  const mpps::LatencyReport report = engine.latency_report();
  EXPECT_EQ(report.transactions, 1u);
  EXPECT_LE(report.p50_us, report.p99_us);
  session.close();
}

TEST(Facade, ProcessChangesShimMatchesTransactionPath) {
  // `ParallelEngine::process_changes` is deprecated as a direct entry
  // point and now rides the begin_batch()/flush() transaction path as a
  // thin shim.  Differential proof at the facade layer: the same change
  // stream through the shim and through explicit transactions lands the
  // identical conflict set, for batch sizes that chunk evenly and not.
  const mpps::Program program = mpps::parse_program(kProgram);
  const mpps::Network net = mpps::Network::compile(program);

  std::vector<mpps::WmeChange> changes;
  std::uint64_t next_id = 1;
  for (const char* text :
       {"(job ^id 1)", "(job ^id 2)", "(job ^id 3)", "(worker ^id 1)",
        "(worker ^id 2)", "(worker ^id 4)", "(job ^id 4)"}) {
    mpps::Wme w = mpps::ops5::parse_wme(text);
    w.rebind_id(mpps::WmeId{next_id++});
    changes.push_back({mpps::WmeChange::Kind::Add, w});
  }
  changes.push_back({mpps::WmeChange::Kind::Delete, changes[0].wme});

  auto flatten = [](mpps::ParallelEngine& engine) {
    std::vector<std::pair<std::uint32_t, std::vector<std::uint64_t>>> out;
    for (const auto& inst : engine.conflict_set().all()) {
      std::vector<std::uint64_t> wmes;
      for (mpps::WmeId w : inst.token.wmes) wmes.push_back(w.value());
      out.emplace_back(inst.production.value(), std::move(wmes));
    }
    std::sort(out.begin(), out.end());
    return out;
  };

  for (const std::uint32_t batch : {1u, 3u, 0u}) {
    const mpps::ParallelOptions popts = mpps::ParallelOptionsBuilder()
                                            .threads(2)
                                            .max_batch(batch)
                                            .build();
    mpps::ParallelEngine shim(net, popts);
    shim.process_changes(changes);

    mpps::ParallelEngine transacted(net, popts);
    const std::size_t chunk = batch == 0 ? changes.size() : batch;
    for (std::size_t i = 0; i < changes.size(); i += chunk) {
      transacted.begin_batch();
      for (std::size_t j = i; j < std::min(i + chunk, changes.size()); ++j) {
        transacted.process_change(changes[j]);
      }
      transacted.flush();
    }

    EXPECT_EQ(flatten(shim), flatten(transacted)) << "batch " << batch;
    EXPECT_EQ(shim.phases(), transacted.phases()) << "batch " << batch;
  }
}

}  // namespace
