// Shared pieces of the end-to-end benchmark: options, timing helpers,
// the result report, named correctness checks with planted-error hooks,
// and the in-memory span recorder of the traced mode.
#pragma once

#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "src/rete/conflict.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// The instant the process began running static initialisers: the start
/// of the cold set-up that `setup_s` measures.
Clock::time_point process_start();

/// Peak resident set (VmHWM) of this process in MiB.
double peak_rss_mb();

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// A 64-bit mix of the run seed with a stream index, so every pass or
/// program instance gets its own reproducible input seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// A uniform sample of at most 2^13 values from a stream of any length
/// (reservoir sampling).  Its memory (64 KiB) is touched up front, so peak
/// RSS does not depend on how many operations a run managed.
class Reservoir {
 public:
  explicit Reservoir(std::uint64_t seed = 1);
  void add(double value);
  [[nodiscard]] const std::vector<double>& values() const { return values_; }

 private:
  static constexpr std::size_t kCapacity = std::size_t{1} << 13;
  std::vector<double> values_;
  std::uint64_t seen_ = 0;
  std::mt19937_64 rng_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Name of the check whose observed value is deliberately corrupted
  /// (the planted-wrong-answer mode); empty in a normal run.
  std::string plant;
  std::string out_dir = ".bench_out";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints: operations attempted and failed plus either the
/// end-to-end metrics (untraced) or the per-layer metrics (traced).
/// An operation that throws (a sweep group whose runner fails, a cycle
/// whose step throws, a transaction whose future holds an error) counts
/// as failed and the run goes on.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

/// Per-operation host times of the same inputs run untraced and traced,
/// alternately, within one run: the base of `tracing.overhead_pct` and of
/// the traced run's `op_p90_us`.
struct Paired {
  std::vector<double> untraced_us;
  std::vector<double> traced_us;
};

/// Named correctness checks.  Each check site asks `plant(name)` before
/// comparing; in the planted-wrong-answer mode the first site of the
/// chosen check corrupts its own copy of the observed value, so the test
/// can show that the check rejects it.
class Checks {
 public:
  explicit Checks(std::string plant) : plant_(std::move(plant)) {}

  /// True exactly once, at the first site of the planted check.
  bool plant(std::string_view name);
  /// Records one evaluation of `name`; prints `detail` on failure.
  void expect(std::string_view name, bool ok, const std::string& detail);

  [[nodiscard]] bool ok() const { return failures_ == 0; }
  /// A plant was requested but no site of that check ever ran.
  [[nodiscard]] bool plant_unused() const {
    return !plant_.empty() && !planted_;
  }
  [[nodiscard]] std::uint64_t evaluated() const { return evaluated_; }

 private:
  std::string plant_;
  bool planted_ = false;
  std::uint64_t evaluated_ = 0;
  std::uint64_t failures_ = 0;
};

/// Spans recorded by the benchmark around its calls into each layer.
/// Kept in memory and written as JSON when the run ends.  Spans of one
/// scenario, cycle or transaction share `id`; `parent` is the index of
/// the enclosing span (-1 at top level).
class Spans {
 public:
  explicit Spans(bool on) : on_(on) {}

  [[nodiscard]] bool on() const { return on_; }
  /// Appends a span and returns its index (-1 when recording is off).
  std::int64_t add(const char* name, std::uint64_t id, std::int64_t parent,
                   Clock::time_point start, Clock::time_point end);
  void write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t id;
    std::int64_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  bool on_;
  std::vector<Span> spans_;
};

/// A total order on instantiations (production, then token wme ids), for
/// comparing conflict sets as sorted lists.
bool instantiation_less(const mpps::rete::Instantiation& a,
                        const mpps::rete::Instantiation& b);

enum class MatchShape { Chain, Fanout };

// Each workload has an untraced run, which returns the end-to-end
// metrics, and layer probes, which add the per-layer metrics of the
// modules it loads to `report`, record spans, and return their paired
// untraced and traced operation times.
Report run_sweep(const Options& options, Checks& checks);
Report run_match(const Options& options, MatchShape shape, Checks& checks);
Report run_serve(const Options& options, Checks& checks);

Paired sweep_layers(const Options& options, Checks& checks, Spans& spans,
                    Report& report);
Paired match_layers(const Options& options, MatchShape shape,
                    std::uint32_t empty_phase_workers, Checks& checks,
                    Spans& spans, Report& report);
Paired serve_layers(const Options& options, Checks& checks, Spans& spans,
                    Report& report);

}  // namespace perfbench
