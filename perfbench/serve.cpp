// The `serve` workload: one serve::ServeEngine with 1 match worker and 4
// sessions opened during set-up, driven by a single generator thread.
// Each transaction adds one of the program's constant (make ...) wmes to
// a session and retracts that session's oldest wme beyond a window.
//
//   Phase 1, open loop: transactions are due at a fixed rate well below
//   capacity, round-robin over the sessions, and each is timed from when
//   it was due to when the generator saw its future resolve.  At most
//   kWindow are in flight, so a host stall delays the generator (and
//   shows in the latencies) instead of growing a backlog in memory.
//   Phase 2, windowed closed loop: a new transaction is submitted as soon
//   as one of the kWindow in flight completes; this measures capacity,
//   counted per chunk of kChunkTx completions and reported as the median
//   chunk.
//
// The generator spins instead of sleeping: a sleep woke up milliseconds
// late on the reference host, which would time the scheduler, not mpps.
#include <algorithm>
#include <deque>
#include <exception>
#include <future>
#include <iostream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/bench.hpp"
#include "src/ops5/parser.hpp"
#include "src/rete/naive.hpp"
#include "src/serve/serve.hpp"

namespace perfbench {
namespace {

using namespace mpps;

constexpr std::uint32_t kSessions = 4;
constexpr std::uint32_t kWorkers = 1;
constexpr std::size_t kWmWindow = 32;    // live wmes per session
// Phase 1 rate.  Every transaction then finds the dispatcher and the
// worker asleep; at 2000 tx/s some found them awake, and the open-loop p50
// of 10-second runs on the reference host split between about 60 and
// 160 us.  At 5000 tx/s the open loop came within reach of capacity in
// the host's slow phases, where its p50 grew to milliseconds.
constexpr double kOfferedPerS = 500.0;
constexpr std::size_t kWindow = 64;     // transactions in flight, at most
constexpr std::uint64_t kChunkTx = 1000;

/// A small order-fulfilment rule base: a 3-way join, a 2-way join with
/// a constant test, and a negated CE.  Its structure is fixed -- which
/// order names which customer and quantity, which customers are gold --
/// and the seed only picks the constants, so every seed has the same
/// join fan-out.
std::string serve_program(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto distinct = [&](std::size_t n, long span) {
    std::vector<long> v;
    while (v.size() < n) {
      const long x = 1 + static_cast<long>(rng() % static_cast<std::uint64_t>(span));
      if (std::find(v.begin(), v.end(), x) == v.end()) v.push_back(x);
    }
    return v;
  };
  const std::vector<long> custs = distinct(4, 100000);
  const std::vector<long> qtys = distinct(3, 1000);
  const std::vector<long> orders = distinct(8, 100000);
  const std::vector<long> sites = distinct(4, 1000);
  std::ostringstream p;
  for (std::size_t i = 0; i < orders.size(); ++i) {
    p << "(make order ^id " << orders[i] << " ^cust " << custs[i % 4]
      << " ^qty " << qtys[i % 3] << ")\n";
  }
  for (std::size_t i = 0; i < custs.size(); ++i) {
    p << "(make cust ^id " << custs[i] << " ^tier "
      << (i % 2 == 0 ? "gold" : "silver") << ")\n";
  }
  for (std::size_t i = 0; i < sites.size(); ++i) {
    p << "(make stock ^qty " << qtys[i % 3] << " ^site " << sites[i] << ")\n";
  }
  p << "(p ship (order ^cust <c> ^qty <q>) (cust ^id <c>) (stock ^qty <q>)"
       " --> (halt))\n"
       "(p vip (cust ^id <c> ^tier gold) (order ^cust <c>) --> (halt))\n"
       "(p idle (cust ^id <c>) -(order ^cust <c>) --> (halt))\n";
  return p.str();
}

std::vector<ops5::Wme> payloads(const ops5::Program& program) {
  std::vector<ops5::Wme> out;
  for (const auto& make : program.initial_wmes) {
    std::vector<std::pair<Symbol, ops5::Value>> attrs;
    for (const auto& [attr, term] : make.slots) {
      attrs.emplace_back(attr, term.constant);
    }
    out.emplace_back(make.wme_class, std::move(attrs));
  }
  return out;
}

/// The generator's view of one session: what it has added and not yet
/// retracted, and the totals of its transaction results.
struct Client {
  serve::Session session;
  std::mt19937_64 rng;
  std::deque<std::pair<std::uint64_t, std::size_t>> live;  // local id, payload
  std::uint64_t next_local = 1;
  std::uint64_t fired = 0;
  std::uint64_t retracted = 0;
};

struct InFlight {
  std::future<serve::TxResult> result;
  std::uint32_t client = 0;
  std::uint64_t expect_added = 0;
  std::uint64_t id = 0;
  Clock::time_point due;
  Clock::time_point submitted;
};

class Generator {
 public:
  Generator(serve::ServeEngine& engine, const std::vector<ops5::Wme>& payloads,
            std::uint64_t seed, Checks& checks, Spans& spans)
      : payloads_(payloads), checks_(checks), spans_(spans) {
    inflight_.reserve(kWindow);
    for (std::uint32_t c = 0; c < kSessions; ++c) {
      clients_.push_back(
          Client{engine.open_session(), std::mt19937_64(mix_seed(seed, c)),
                 {}, 1, 0, 0});
    }
  }

  /// Phase 1: offered load at `rate` until `end`; each transaction's
  /// latency from its due time goes to `latency_us`.
  void open_loop(double rate, Clock::time_point end, bool traced,
                 Reservoir& latency_us) {
    const Clock::time_point start = Clock::now();
    for (std::uint64_t k = 0;; ++k) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(static_cast<double>(k) /
                                                    rate));
      if (due >= end) break;
      Clock::time_point now = Clock::now();
      while (now < due || inflight_.size() >= kWindow) {
        if (poll(traced, &latency_us) == 0) std::this_thread::yield();
        now = Clock::now();
      }
      submit(due, traced);
      late_us.add(micros_between(due, inflight_.back().submitted));
    }
    drain(traced, &latency_us);
  }

  /// Phase 2: kWindow transactions in flight until `end`; returns the
  /// completion rate of each chunk of kChunkTx transactions.
  std::vector<double> closed_loop(Clock::time_point end, bool traced) {
    std::vector<double> rates;
    Clock::time_point chunk_start = Clock::now();
    std::uint64_t chunk_end = completed_ + kChunkTx;
    while (Clock::now() < end) {
      while (inflight_.size() < kWindow) submit(Clock::now(), traced);
      if (poll(traced, nullptr) == 0) std::this_thread::yield();
      if (completed_ >= chunk_end) {
        const Clock::time_point now = Clock::now();
        rates.push_back(static_cast<double>(kChunkTx + completed_ -
                                            chunk_end) /
                        seconds_between(chunk_start, now));
        chunk_start = now;
        chunk_end = completed_ + kChunkTx;
      }
    }
    drain(traced, nullptr);
    return rates;
  }

  /// Compares each session's share of the conflict set with the naive
  /// matcher over the wmes the generator left live in that session, and
  /// with the session's Σ fired − Σ retracted.  Every future is resolved.
  void check(const serve::ServeEngine& engine, const ops5::Program& program) {
    std::vector<std::vector<rete::Instantiation>> by_session(kSessions);
    bool isolated = true;
    for (rete::Instantiation inst : engine.conflict_snapshot()) {
      const std::uint32_t owner = inst.token.wmes.empty()
                                      ? kSessions
                                      : serve::ServeEngine::session_of(
                                            inst.token.wmes.front());
      for (WmeId& w : inst.token.wmes) {
        isolated = isolated && serve::ServeEngine::session_of(w) == owner;
        w = serve::ServeEngine::local_id(w);
      }
      const std::uint32_t index = owner - first_ordinal();
      if (index >= kSessions) {
        isolated = false;
        continue;
      }
      by_session[index].push_back(std::move(inst));
    }
    std::uint64_t cross = engine.stats().cross_session_deltas;
    if (checks_.plant("serve.isolation")) ++cross;
    checks_.expect("serve.isolation", isolated && cross == 0,
                   "instantiations span sessions (" + std::to_string(cross) +
                       " cross-session deltas)");

    if (checks_.plant("serve.fired-retracted")) {
      // A transaction result credited to the wrong session.
      ++clients_[1].fired;
      --clients_[0].fired;
    }
    for (std::uint32_t c = 0; c < kSessions; ++c) {
      std::vector<rete::Instantiation>& held = by_session[c];
      if (checks_.plant("serve.snapshot") && !held.empty()) held.pop_back();
      std::vector<ops5::Wme> wmes;
      for (const auto& [local, payload] : clients_[c].live) {
        wmes.push_back(payloads_[payload]);
        wmes.back().rebind_id(WmeId{local});
      }
      std::vector<const ops5::Wme*> live;
      for (const ops5::Wme& w : wmes) live.push_back(&w);
      std::vector<rete::Instantiation> naive = rete::naive_match(program, live);
      std::sort(held.begin(), held.end(), instantiation_less);
      std::sort(naive.begin(), naive.end(), instantiation_less);
      checks_.expect("serve.snapshot", held == naive,
                     "session " + std::to_string(c) + " holds " +
                         std::to_string(held.size()) +
                         " instantiations, naive matcher " +
                         std::to_string(naive.size()));
      const auto net = static_cast<std::int64_t>(clients_[c].fired) -
                       static_cast<std::int64_t>(clients_[c].retracted);
      checks_.expect("serve.fired-retracted",
                     net == static_cast<std::int64_t>(held.size()),
                     "session " + std::to_string(c) + ": fired - retracted = " +
                         std::to_string(net) + ", conflict set holds " +
                         std::to_string(held.size()));
    }
  }

  void close() {
    for (Client& c : clients_) c.session.close();
  }

  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  Reservoir late_us;          // due -> submit
  Reservoir submit_us;        // inside Session::submit (traced)
  Reservoir complete_us;      // submit return -> observed (traced)

 private:
  std::uint32_t first_ordinal() const { return clients_.front().session.id(); }

  void submit(Clock::time_point due, bool traced) {
    const auto client = static_cast<std::uint32_t>(next_client_++ % kSessions);
    Client& c = clients_[client];
    serve::Transaction tx;
    while (c.live.size() >= kWmWindow) {
      tx.remove(WmeId{c.live.front().first});
      c.live.pop_front();
    }
    const std::size_t payload = c.rng() % payloads_.size();
    tx.add(payloads_[payload]);
    // The engine assigns a session's local ids in submission order.
    const std::uint64_t local = c.next_local++;
    c.live.emplace_back(local, payload);
    const Clock::time_point t0 = Clock::now();
    std::future<serve::TxResult> result = c.session.submit(std::move(tx));
    const Clock::time_point t1 = Clock::now();
    if (traced) submit_us.add(micros_between(t0, t1));
    inflight_.push_back(
        InFlight{std::move(result), client, local, ++tx_id_, due, t1});
  }

  /// Settles every resolved future; returns how many.
  std::size_t poll(bool traced, Reservoir* latency_us) {
    std::size_t settled = 0;
    for (std::size_t i = 0; i < inflight_.size();) {
      if (inflight_[i].result.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      const Clock::time_point seen = Clock::now();
      InFlight f = std::move(inflight_[i]);
      inflight_[i] = std::move(inflight_.back());
      inflight_.pop_back();
      settle(f, seen, traced, latency_us);
      ++settled;
    }
    return settled;
  }

  void drain(bool traced, Reservoir* latency_us) {
    while (!inflight_.empty()) {
      if (poll(traced, latency_us) == 0) std::this_thread::yield();
    }
  }

  void settle(InFlight& f, Clock::time_point seen, bool traced,
              Reservoir* latency_us) {
    serve::TxResult r;
    try {
      r = f.result.get();
    } catch (const std::exception& e) {
      ++failed_;
      std::cerr << "transaction " << f.id << " failed: " << e.what() << "\n";
      return;
    }
    Client& c = clients_[f.client];
    std::uint64_t added = r.added.size() == 1 ? r.added.front().value() : 0;
    if (checks_.plant("serve.added-ids")) ++added;
    checks_.expect("serve.added-ids", added == f.expect_added,
                   "transaction " + std::to_string(f.id) + " added local id " +
                       std::to_string(added) + ", expected " +
                       std::to_string(f.expect_added));
    c.fired += r.fired.size();
    c.retracted += r.retracted;
    ++completed_;
    if (latency_us == nullptr) return;
    latency_us->add(micros_between(f.due, seen));
    if (traced) {
      complete_us.add(micros_between(f.submitted, seen));
      const std::int64_t parent = spans_.add("serve.tx", f.id, -1, f.due, seen);
      spans_.add("serve.complete", f.id, parent, f.submitted, seen);
    }
  }

  const std::vector<ops5::Wme>& payloads_;
  Checks& checks_;
  Spans& spans_;
  std::vector<Client> clients_;
  std::vector<InFlight> inflight_;
  std::uint64_t next_client_ = 0;
  std::uint64_t tx_id_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
};

/// The engine, its program and the generator with its sessions open.
struct Setup {
  ops5::Program program;
  std::vector<ops5::Wme> wmes;
  std::unique_ptr<serve::ServeEngine> engine;
  std::unique_ptr<Generator> gen;

  Setup(const Options& options, Checks& checks, Spans& spans)
      : program(ops5::parse_program(serve_program(mix_seed(options.seed, 0)))),
        wmes(payloads(program)) {
    serve::ServeOptions serve_options;
    serve_options.match.threads = kWorkers;
    serve_options.max_sessions = kSessions;
    engine = std::make_unique<serve::ServeEngine>(program, serve_options);
    gen = std::make_unique<Generator>(*engine, wmes, options.seed, checks,
                                      spans);
  }

  /// Checks the outcome, then closes the sessions and the engine.
  void finish() {
    gen->check(*engine, program);
    gen->close();
    engine->shutdown();
  }
};

Clock::time_point after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

}  // namespace

Report run_serve(const Options& options, Checks& checks) {
  Spans off(false);
  Setup setup(options, checks, off);
  const double setup_s = seconds_between(process_start(), Clock::now());
  Reservoir latency_us;
  setup.gen->open_loop(kOfferedPerS, after(options.seconds / 2), false,
                       latency_us);
  const std::vector<double> tx_rates =
      setup.gen->closed_loop(after(options.seconds / 2), false);
  setup.finish();

  Report report;
  report.attempted = setup.gen->completed() + setup.gen->failed();
  report.failed = setup.gen->failed();
  report.add("setup_s", setup_s, "s");
  report.add("peak_rss_mb", peak_rss_mb(), "MiB");
  report.add("ops_per_s", median(tx_rates), "1/s");
  report.add("op_p50_us", median(latency_us.values()), "us");
  return report;
}

Paired serve_layers(const Options& options, Checks& checks, Spans& spans,
                    Report& report) {
  Setup setup(options, checks, spans);
  Generator& gen = *setup.gen;
  // The open loop in 16 slices, alternately untraced and traced, so both
  // see the same engine state and host.
  const double slice_s = options.seconds / 2 / 16;
  Reservoir untraced_us, traced_us;
  for (int slice = 0; slice < 16; ++slice) {
    const bool traced = slice % 2 == 1;
    gen.open_loop(kOfferedPerS, after(slice_s), traced,
                  traced ? traced_us : untraced_us);
  }
  gen.closed_loop(after(options.seconds / 2), true);
  const serve::ServeStats stats = setup.engine->stats();
  const serve::LatencyReport histogram = setup.engine->latency_report();
  setup.finish();

  report.attempted += gen.completed() + gen.failed();
  report.failed += gen.failed();
  report.add("serve.submit_us", median(gen.submit_us.values()), "us");
  report.add("serve.complete_us", median(gen.complete_us.values()), "us");
  report.add("serve.fused_per_phase",
             static_cast<double>(stats.transactions) /
                 static_cast<double>(std::max<std::uint64_t>(stats.batches, 1)),
             "count");
  report.add("serve.gen_late_us", median(gen.late_us.values()), "us");
  report.add("serve.tx_p99_us", quantile(untraced_us.values(), 0.99), "us");
  report.add("serve.hist_p50_us", histogram.p50_us, "us");
  return Paired{untraced_us.values(), traced_us.values()};
}

}  // namespace perfbench
