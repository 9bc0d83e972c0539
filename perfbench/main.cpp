// mppsbench: one workload of the end-to-end benchmark per invocation.
//
//   mppsbench --workload sweep|match_chain|match_fanout|serve --seed N
//             --seconds S --trace 0|1 [--plant CHECK] [--out DIR]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.  Exit code 0 when every check
// passed, 1 when one failed, 2 on a usage error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "perfbench/bench.hpp"

namespace perfbench {
namespace {

// Initialised before main runs, so set-up time includes loading and
// static construction of the library.
const Clock::time_point kProcessStart = Clock::now();

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string result_line(bool correct, const Report& r) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    os << (i == 0 ? "" : ", ") << json_string(m.name)
       << ": {\"value\": " << json_number(m.value)
       << ", \"unit\": " << json_string(m.unit) << "}";
  }
  os << "}}";
  return os.str();
}

enum class Group { Sweep, Match, Serve };

struct Workload {
  const char* name;
  Group group;
  MatchShape shape;  // the program of the match probes
};

constexpr Workload kWorkloads[] = {
    {"sweep", Group::Sweep, MatchShape::Chain},
    {"match_chain", Group::Match, MatchShape::Chain},
    {"match_fanout", Group::Match, MatchShape::Fanout},
    {"serve", Group::Serve, MatchShape::Chain},
};

Report run_untraced(const Workload& w, const Options& o, Checks& checks) {
  switch (w.group) {
    case Group::Sweep: return run_sweep(o, checks);
    case Group::Match: return run_match(o, w.shape, checks);
    case Group::Serve: return run_serve(o, checks);
  }
  return {};
}

/// The traced run prints every per-layer metric.  It spends 80% of its
/// time on the probes of the workload's own modules, which run the same
/// inputs untraced and traced alternately, and the rest on brief probes
/// of the modules the workload does not load, on their reference inputs.
/// `tracing.overhead_pct` compares the medians of the paired operation
/// times; `op_p90_us` is the p90 of the untraced ones.
Report run_traced(const Workload& w, const Options& o, Checks& checks,
                  Spans& spans) {
  Options part = o;
  Report report;
  Paired own;
  for (const Group g : {Group::Sweep, Group::Match, Group::Serve}) {
    part.seconds = (g == w.group ? 0.8 : 0.1) * o.seconds;
    Paired paired;
    switch (g) {
      case Group::Sweep:
        paired = sweep_layers(part, checks, spans, report);
        break;
      case Group::Match:
        paired = match_layers(part, w.shape, w.group == Group::Serve ? 1 : 2,
                              checks, spans, report);
        break;
      case Group::Serve:
        paired = serve_layers(part, checks, spans, report);
        break;
    }
    if (g == w.group) own = std::move(paired);
  }
  report.add("op_p90_us", quantile(own.untraced_us, 0.9), "us");
  report.add("tracing.overhead_pct",
             (median(own.traced_us) / median(own.untraced_us) - 1.0) * 100.0,
             "%");
  return report;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "mppsbench: " << why
            << "\nusage: mppsbench --workload sweep|match_chain|match_fanout|"
               "serve --seed N --seconds S --trace 0|1 [--plant CHECK] "
               "[--out DIR]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(o.seconds > 0.0) ||
          o.seconds > 120.0) {
        usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      o.trace = value == "1";
    } else if (flag == "--plant") {
      o.plant = value;
    } else if (flag == "--out") {
      o.out_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("missing --workload");
  return o;
}

}  // namespace

Clock::time_point process_start() { return kProcessStart; }

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

Reservoir::Reservoir(std::uint64_t seed) : rng_(seed) {
  values_.assign(kCapacity, 0.0);
  values_.clear();
}

void Reservoir::add(double value) {
  ++seen_;
  if (values_.size() < kCapacity) {
    values_.push_back(value);
    return;
  }
  const std::uint64_t slot = rng_() % seen_;
  if (slot < kCapacity) values_[slot] = value;
}

bool instantiation_less(const mpps::rete::Instantiation& a,
                        const mpps::rete::Instantiation& b) {
  if (a.production != b.production) {
    return a.production.value() < b.production.value();
  }
  return std::lexicographical_compare(
      a.token.wmes.begin(), a.token.wmes.end(), b.token.wmes.begin(),
      b.token.wmes.end(), [](mpps::WmeId x, mpps::WmeId y) {
        return x.value() < y.value();
      });
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 over (seed, stream).
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

bool Checks::plant(std::string_view name) {
  if (planted_ || plant_ != name) return false;
  planted_ = true;
  return true;
}

void Checks::expect(std::string_view name, bool ok,
                    const std::string& detail) {
  ++evaluated_;
  if (ok) return;
  if (++failures_ <= 10) {
    std::cerr << "check failed: " << name << ": " << detail << "\n";
  }
}

std::int64_t Spans::add(const char* name, std::uint64_t id,
                        std::int64_t parent, Clock::time_point start,
                        Clock::time_point end) {
  if (!on_) return -1;
  const auto ns = [](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t - kProcessStart)
        .count();
  };
  spans_.push_back(Span{name, id, parent, ns(start), ns(end)});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void Spans::write(const std::string& path) const {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"i\": " << i << ", \"name\": " << json_string(s.name)
        << ", \"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = parse(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (options.workload == w.name) workload = &w;
  }
  if (workload == nullptr) usage("unknown workload " + options.workload);
  Checks checks(options.plant);
  Spans spans(options.trace);
  Report report;
  try {
    report = options.trace ? run_traced(*workload, options, checks, spans)
                           : run_untraced(*workload, options, checks);
  } catch (const std::exception& e) {
    std::cerr << "mppsbench: " << options.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  if (checks.plant_unused()) usage("no check named " + options.plant);

  const bool correct = checks.ok() && checks.evaluated() > 0;
  const std::string line = result_line(correct, report);
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  const std::string stem = options.out_dir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed);
  if (!ec) {
    std::ofstream(stem + "-trace" + (options.trace ? "1" : "0") + ".json")
        << line << "\n";
    if (spans.on()) spans.write(stem + ".spans.json");
  }
  std::cout << line << std::endl;
  return correct ? 0 : 1;
}
