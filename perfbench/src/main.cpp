// The benchmark driver.
//
//   perfbench --workload <lan_storm|glb_chaos|mobility_mix> --seed <n>
//             --seconds <s> [--trace 0|1] [--commit <id>] [--span-out <path>]
//
// Untraced (--trace 0): repeats the workload's seeded round until --seconds
// have passed, checks every round, and prints the end-to-end metrics.
// Traced (--trace 1, run through the perfbench_traced binary): rounds with
// spans on, then rounds with spans off at 4 workers and at 1 worker, then
// the layer replays, and prints the per-layer metrics with the
// reconciliation table.  Either way the last line is one JSON object
// (run.py turns it into the benchmark's result line).  Exit code 1 when a
// correctness check fired, 2 on a usage error.
#include <algorithm>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "report.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string span_out;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") a.workload = value;
      else if (key == "--seed") a.seed = std::stoull(value);
      else if (key == "--seconds") a.seconds = std::stod(value);
      else if (key == "--trace") a.trace = std::stoi(value) != 0;
      else if (key == "--commit") a.commit = value;
      else if (key == "--span-out") a.span_out = value;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

// Rounds until the budget is spent: at least `min_rounds`, and never more
// rounds once `budget_s` has passed.
std::vector<Round> run_rounds(const std::function<Round(const RunConfig&)>& run,
                              const RunConfig& cfg, double budget_s, int min_rounds) {
  std::vector<Round> rounds;
  const double start = wall_now();
  while (static_cast<int>(rounds.size()) < min_rounds || wall_now() - start < budget_s) {
    rounds.push_back(run(cfg));
    // Later rounds are checked against the first through their digest, so
    // their latency samples can go: the process peak is then one round's
    // peak, whatever the number of rounds.
    if (rounds.size() > 1) {
      rounds.back().latencies_us = std::vector<std::int64_t>();
      rounds.back().latencies_by_kind.clear();
    }
  }
  return rounds;
}

// Every round must pass its checks and reproduce the first round's sim
// results bit for bit.
void check_rounds(const std::vector<Round>& rounds, std::uint64_t digest,
                  const char* what, std::vector<std::string>& failures) {
  for (const Round& r : rounds) {
    for (const auto& f : r.failures) failures.push_back(f);
    if (r.digest != digest) {
      failures.push_back(std::string("sim-time results differ between rounds (") + what + ")");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload <lan_storm|glb_chaos|mobility_mix> "
                 "--seed <n> --seconds <s> [--trace 0|1] [--commit <id>] "
                 "[--span-out <path>]\n";
    return 2;
  }
  std::function<Round(const RunConfig&)> run;
  std::function<ReplayShapes(const RunConfig&)> shapes;
  bool sharded = true;
  if (args.workload == "lan_storm") {
    run = [](const RunConfig& c) { return run_lan_storm(c); };
    shapes = storm_replay_shapes;
  } else if (args.workload == "glb_chaos") {
    run = [](const RunConfig& c) { return run_glb_chaos(c); };
    shapes = glb_replay_shapes;
  } else if (args.workload == "mobility_mix") {
    run = [](const RunConfig& c) { return run_mobility_mix(c); };
    shapes = mix_replay_shapes;
    sharded = false;
  } else {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  if (args.trace && !allocations_counted()) {
    std::cerr << "--trace 1 needs the perfbench_traced binary\n";
    return 2;
  }

  RunConfig cfg;
  cfg.seed = args.seed;
  if (!sharded) cfg.workers = 1;

  const std::string provenance =
      "{\"hardware_threads\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"cpu_model\": " + json_string(cpu_model()) +
      ", \"compiler\": " + json_string(std::string("g++ ") + __VERSION__) +
      ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
      ", \"commit\": " + json_string(args.commit) +
      ", \"seed\": " + std::to_string(args.seed) +
      ", \"workers\": " + std::to_string(cfg.workers) + "}";
  std::cout << "provenance " << provenance << "\n";

  std::vector<std::string> failures;
  std::vector<Metric> metrics;
  std::vector<Round> main_rounds;
  const double steal0 = host_steal_s();
  const double wall0 = wall_now();
  if (!args.trace) {
    main_rounds = run_rounds(run, cfg, args.seconds, 3);
    check_rounds(main_rounds, main_rounds.front().digest, "untraced", failures);
    metrics = end_to_end(main_rounds, peak_rss_mb());
    // p99.9 is reported only with at least ten samples beyond it.
    const std::size_t samples = main_rounds.front().latencies_us.size();
    std::cout << "sim latency samples per round: " << samples << " ("
              << samples / 1000 << " beyond p99.9)\n";
    if (samples < 10'000) failures.push_back("fewer than 10 samples beyond p99.9");
    const Round& first = main_rounds.front();
    std::cout << "error_rate = "
              << static_cast<double>(first.failed) /
                     static_cast<double>(std::max<std::int64_t>(1, first.attempted))
              << " fraction (failed " << first.failed << " of " << first.attempted
              << " ops per round)\n";
  } else {
    TracedInputs in;
    in.workload = args.workload;
    in.sharded = sharded;
    set_tracing(true);
    (void)take_span_totals();
    in.traced = run_rounds(run, cfg, args.seconds * 0.5, 2);
    set_tracing(false);
    in.spans = take_span_totals();
    const std::uint64_t digest = in.traced.front().digest;
    check_rounds(in.traced, digest, "traced", failures);
    if (sharded) {
      // The engine anomaly record: the same seed at N workers and at 1,
      // interleaved, with window timing on and spans off.  Digests must
      // match the traced rounds' (determinism at any worker count).
      RunConfig multi = cfg;
      multi.time_windows = true;
      RunConfig single = multi;
      single.workers = 1;
      for (int i = 0; i < 2; ++i) {
        in.single.push_back(run(single));
        in.multi.push_back(run(multi));
      }
      check_rounds(in.single, digest, "1 worker vs N workers", failures);
      check_rounds(in.multi, digest, "window-timed", failures);
    }
    in.replay = run_replays(shapes(cfg));
    if (!args.span_out.empty() && !write_span_sample(args.span_out)) {
      std::cerr << "cannot write span sample to " << args.span_out << "\n";
    }
    metrics = per_layer(in);
    main_rounds = std::move(in.traced);
  }

  for (const Metric& m : metrics) {
    if (m.applies) {
      std::cout << m.name << " = " << json_number(m.value) << " " << m.unit << "\n";
    } else {
      std::cout << m.name << " = n/a (not measured on " << args.workload << "; reads 0)\n";
    }
  }
  for (const auto& f : failures) std::cout << "CHECK FAILED: " << f << "\n";

  // Host contention shows up as steal time on a virtual machine; a run
  // whose steal share is high measured a slower host, not slower code.
  std::cout << "host steal share = "
            << (host_steal_s() - steal0) /
                   ((wall_now() - wall0) * std::max(1u, std::thread::hardware_concurrency()))
            << " (steal CPU-s per CPU-s, whole run)\n";

  std::int64_t attempted = 0, failed = 0;
  double ops_per_s = 0;
  {
    std::vector<double> rates;
    for (const Round& r : main_rounds) {
      attempted += r.attempted;
      failed += r.failed;
      rates.push_back(static_cast<double>(r.completed) / r.wall_s);
    }
    ops_per_s = median(rates);
  }
  std::ostringstream json;
  json << "{\"workload\": " << json_string(args.workload)
       << ", \"trace\": " << (args.trace ? 1 : 0)
       << ", \"correct\": " << (failures.empty() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"rounds\": " << main_rounds.size()
       << ", \"ops_per_s\": " << json_number(ops_per_s)
       << ", \"provenance\": " << provenance << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i ? ", " : "") << json_string(metrics[i].name) << ": {\"value\": "
         << json_number(metrics[i].value) << ", \"unit\": " << json_string(metrics[i].unit)
         << "}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return failures.empty() ? 0 : 1;
}
