#include "report.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

namespace perfbench {

void fold_latencies(Round& round) {
  std::vector<std::int64_t> sorted = round.latencies_us;
  std::sort(sorted.begin(), sorted.end());
  for (std::int64_t v : sorted) round.digest = fnv_fold(round.digest, static_cast<std::uint64_t>(v));
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double host_steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double fields[8] = {};
  in >> cpu;
  for (double& f : fields) in >> f;
  const long hz = sysconf(_SC_CLK_TCK);
  return cpu == "cpu" && hz > 0 ? fields[7] / static_cast<double>(hz) : 0.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<Metric> end_to_end(const std::vector<Round>& rounds, double rss_mb) {
  std::vector<double> rate, cpu_rate, setup;
  for (const Round& r : rounds) {
    rate.push_back(static_cast<double>(r.completed) / r.wall_s);
    cpu_rate.push_back(static_cast<double>(r.completed) / r.cpu_s);
    setup.push_back(r.setup_s);
  }
  // Sim-time results are identical in every round (the caller checks the
  // digests), so the first round stands for all.
  const Round& first = rounds.front();
  std::vector<std::int64_t> lat = first.latencies_us;
  std::sort(lat.begin(), lat.end());
  const double sim_s = static_cast<double>(first.sim_span_us) / 1e6;
  const double errors = static_cast<double>(first.failed) /
                        static_cast<double>(std::max<std::int64_t>(1, first.attempted));
  return {
      {"ops_per_s", median(rate), "ops/s"},
      {"ops_per_cpu_s", median(cpu_rate), "ops/s"},
      {"sim_ops_per_s", static_cast<double>(first.completed) / sim_s, "ops/s"},
      {"sim_latency_p50_us", static_cast<double>(percentile(lat, 0.50)), "us"},
      {"sim_latency_p99_us", static_cast<double>(percentile(lat, 0.99)), "us"},
      {"sim_latency_p999_us", static_cast<double>(percentile(lat, 0.999)), "us"},
      {"success_rate", 1.0 - errors, "fraction"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", rss_mb, "MiB"},
  };
}

namespace {

double span_mean_ns(const SpanTotals& t, bool self = false) {
  if (t.count == 0) return 0;
  return static_cast<double>(self ? t.self_ns : t.total_ns) / static_cast<double>(t.count);
}

const SpanTotals& span(const TracedInputs& in, SpanKind k) {
  return in.spans[static_cast<std::size_t>(k)];
}

std::vector<double> window_times(const std::vector<Round>& rounds) {
  std::vector<double> all;
  for (const Round& r : rounds) {
    all.insert(all.end(), r.window_host_us.begin(), r.window_host_us.end());
  }
  std::sort(all.begin(), all.end());
  return all;
}

}  // namespace

std::vector<Metric> per_layer(const TracedInputs& in) {
  const Round& r = in.traced.front();
  const bool storm = in.workload == "lan_storm";
  const bool glb = in.workload == "glb_chaos";
  const bool mix = in.workload == "mobility_mix";
  const double ops = static_cast<double>(std::max<std::int64_t>(1, r.attempted));
  auto per_op = [&](const char* key) { return r.counter(key) / ops; };
  auto per_kop = [&](const char* key) { return 1000.0 * r.counter(key) / ops; };

  std::vector<Metric> m;
  auto add = [&](std::string name, double value, std::string unit, bool applies = true) {
    m.push_back({std::move(name), applies ? value : 0.0, std::move(unit), applies});
  };

  // --- sim ---
  add("sim.event_queue.push_pop_ns", in.replay.push_pop_ns, "ns");
  add("sim.driver.predicate_checks_per_op", per_op("sim.predicate_checks"), "count", mix);
  add("sim.driver.wakeups_per_op", per_op("sim.wakeups"), "count", mix);
  {
    double windows_per_kop = 0, ops_per_window = 0, p50 = 0, p99 = 0, cpu_wall = 0, speedup = 0;
    if (in.sharded && !in.multi.empty() && !in.single.empty()) {
      const Round& w = in.multi.front();
      windows_per_kop = 1000.0 * static_cast<double>(w.windows) / ops;
      ops_per_window = ops / static_cast<double>(std::max<std::int64_t>(1, w.windows));
      const std::vector<double> times = window_times(in.multi);
      p50 = percentile(times, 0.50);
      p99 = percentile(times, 0.99);
      std::vector<double> cw, multi_rate, single_rate;
      for (const Round& x : in.multi) {
        cw.push_back(x.cpu_s / x.wall_s);
        multi_rate.push_back(static_cast<double>(x.completed) / x.wall_s);
      }
      for (const Round& x : in.single) {
        single_rate.push_back(static_cast<double>(x.completed) / x.wall_s);
      }
      cpu_wall = median(cw);
      speedup = median(multi_rate) / median(single_rate);
    }
    add("sim.sharded.windows_per_kop", windows_per_kop, "count", in.sharded);
    add("sim.sharded.ops_per_window", ops_per_window, "count", in.sharded);
    add("sim.sharded.window_host_us_p50", p50, "us", in.sharded);
    add("sim.sharded.window_host_us_p99", p99, "us", in.sharded);
    add("sim.sharded.cpu_per_wall", cpu_wall, "ratio", in.sharded);
    add("sim.sharded.speedup_vs_1w", speedup, "ratio", in.sharded);
  }

  // --- net ---
  const double messages = per_op("net.messages_sent");
  add("net.messages_per_op", messages, "count");
  add("net.bytes_per_op", per_op("net.bytes_sent"), "bytes");
  add("net.post_deliver_ns", in.replay.post_deliver_ns, "ns");
  add("net.drops_per_kop", per_kop("net.messages_dropped"), "count");

  // --- rmi ---
  add("rmi.envelope.encode_ns", in.replay.envelope_encode_ns, "ns");
  add("rmi.envelope.decode_ns", in.replay.envelope_decode_ns, "ns");
  {
    const double fast = r.counter("envelope.fast_path_headers");
    const double list = r.counter("envelope.list_path_headers");
    add("rmi.envelope.fast_path_share", fast + list > 0 ? fast / (fast + list) : 0, "fraction");
  }
  add("rmi.transport.call_issue_ns", span_mean_ns(span(in, SpanKind::StormCall)), "ns", storm);
  add("rmi.transport.service_host_ns", span_mean_ns(span(in, SpanKind::StormService)), "ns", storm);
  add("rmi.transport.callback_host_ns",
      span_mean_ns(span(in, SpanKind::StormCallback), /*self=*/true), "ns", storm);
  add("rmi.transport.reply_cache_evictions_per_kop", per_kop("rmi.reply_cache_evictions"), "count");
  add("rmi.transport.retransmissions_per_kop", per_kop("rmi.retransmissions"), "count");
  add("rmi.transport.duplicates_suppressed_per_kop", per_kop("rmi.duplicates_suppressed"), "count");
  {
    const double calls = r.counter("rmi.calls");
    const double retrans = r.counter("rmi.retransmissions");
    add("rmi.transport.first_delivery_ratio", calls + retrans > 0 ? calls / (calls + retrans) : 0,
        "fraction");
  }
  add("rmi.transport.failures_per_kop", per_kop("rmi.failures"), "count");
  add("rmi.channel.retries_per_kop", per_kop("rmi.retries"), "count");
  add("rmi.channel.deadline_exceeded_per_kop", per_kop("rmi.deadline_exceeded"), "count");

  // --- serial ---
  add("serial.proto.invoke_request_encode_ns", in.replay.request_encode_ns, "ns", !storm);
  add("serial.proto.invoke_request_decode_ns", in.replay.request_decode_ns, "ns", !storm);
  add("serial.object_state_roundtrip_ns", in.replay.state_roundtrip_ns, "ns", !storm);
  add("serial.payload_copy_bytes_per_op", per_op("serial.deep_copy_bytes"), "bytes");
  add("serial.allocations_per_op", per_op("serial.allocations"), "count");

  // --- rts ---
  add("rts.invoke_host_us", span_mean_ns(span(in, SpanKind::MixInvoke)) / 1e3, "us", mix);
  add("rts.move_host_us", span_mean_ns(span(in, SpanKind::MixMove)) / 1e3, "us", mix);
  add("rts.lookup_hops_per_op", per_op("rts.lookup_hops"), "count");
  {
    const double migrations = r.counter("rts.migrations");
    add("rts.class_fetch_ratio", migrations > 0 ? r.counter("rts.class_fetches") / migrations : 0,
        "fraction");
  }
  add("rts.async.redirects_per_kop", per_kop("rts.async_redirects"), "count");
  add("rts.stale_hints_rejected_per_kop", per_kop("rts.stale_hints_rejected"), "count");
  add("rts.migrations_per_kop", per_kop("rts.migrations"), "count");
  add("rts.dist.lifeline_steals_per_kop", per_kop("rts.lifeline_steals"), "count");
  add("rts.dist.useful_expand_ratio", r.counter("glb.useful_expands") / ops, "fraction", glb);

  // --- core: the shape of the paper's Table 3 ---
  const std::pair<const char*, SpanKind> attrs[] = {
      {"rpc", SpanKind::CoreRpc},   {"cod", SpanKind::CoreCod},
      {"rev", SpanKind::CoreRev},   {"grev", SpanKind::CoreGrev},
      {"cle", SpanKind::CoreCle},   {"magent", SpanKind::CoreMagent}};
  for (const auto& [name, kind] : attrs) {
    add(std::string("core.") + name + ".host_us", span_mean_ns(span(in, kind)) / 1e3, "us", mix);
  }
  for (const auto& [name, kind] : attrs) {
    double p50 = 0;
    auto it = r.latencies_by_kind.find(name);
    if (mix && it != r.latencies_by_kind.end()) {
      std::vector<std::int64_t> lat = it->second;
      std::sort(lat.begin(), lat.end());
      p50 = static_cast<double>(percentile(lat, 0.5));
    }
    add(std::string("core.") + name + ".sim_us_p50", p50, "us", mix);
  }

  // --- reconciliation: layer ns/op + benchmark handler self time vs the
  // end-to-end host ns/op.  Replay costs are scaled by the counts per op;
  // each message is taken to cost two queue operations (its delivery and
  // one CPU or timer step).  Host ns/op is CPU time summed over threads,
  // so at N workers it includes what the workers spent waiting at barriers.
  {
    const std::vector<Round>& basis = in.sharded ? in.multi : in.traced;
    std::vector<double> cpu_ns, wall_ns;
    for (const Round& x : basis) {
      const double n = static_cast<double>(std::max<std::int64_t>(1, x.attempted));
      cpu_ns.push_back(x.cpu_s * 1e9 / n);
      wall_ns.push_back(x.wall_s * 1e9 / n);
    }
    const double host_cpu = median(cpu_ns);
    const double host_wall = median(wall_ns);
    double traced_ops = 0;
    for (const Round& x : in.traced) traced_ops += static_cast<double>(x.attempted);
    auto span_per_op = [&](SpanKind k, bool self) {
      const SpanTotals& t = span(in, k);
      return static_cast<double>(self ? t.self_ns : t.total_ns) / std::max(1.0, traced_ops);
    };
    std::vector<std::pair<std::string, double>> terms = {
        {"sim.event_queue (replay x 2/message)", in.replay.push_pop_ns * 2 * messages},
        {"net.post_deliver (replay x messages)", in.replay.post_deliver_ns * messages},
        {"rmi.envelope (replay x messages)",
         (in.replay.envelope_encode_ns + in.replay.envelope_decode_ns) * messages},
        {"serial.proto (replay x invocations)",
         (in.replay.request_encode_ns + in.replay.request_decode_ns) * per_op("rts.invocations")},
        {"serial.object_state (replay x migrations)",
         in.replay.state_roundtrip_ns * per_op("rts.migrations")},
    };
    if (storm) {
      terms.push_back({"rmi.transport.call (span)", span_per_op(SpanKind::StormCall, false)});
      terms.push_back({"rmi.transport.service+reply (span)", span_per_op(SpanKind::StormService, false)});
      terms.push_back({"bench handler self: callback", span_per_op(SpanKind::StormCallback, true)});
    }
    if (glb) {
      terms.push_back({"rts.async_client expand issue (span)", span_per_op(SpanKind::GlbExpand, false)});
      terms.push_back({"bench handler self: continuation", span_per_op(SpanKind::GlbCallback, true)});
    }
    double sum = 0;
    std::cout << "reconciliation (" << in.workload << ", host ns per op):\n";
    for (const auto& [name, ns] : terms) {
      std::printf("  %-44s %12.1f\n", name.c_str(), ns);
      sum += ns;
    }
    std::printf("  %-44s %12.1f\n", "sum of layers", sum);
    std::printf("  %-44s %12.1f\n", "end-to-end host CPU ns/op", host_cpu);
    std::printf("  %-44s %12.1f\n", "end-to-end host wall ns/op", host_wall);
    std::printf("  %-44s %12.1f  (%.1f%% of CPU ns/op)\n", "residual (CPU - sum)", host_cpu - sum,
                host_cpu > 0 ? 100.0 * (host_cpu - sum) / host_cpu : 0.0);
    add("trace.host_cpu_ns_per_op", host_cpu, "ns");
    add("trace.layer_sum_ns_per_op", sum, "ns");
    add("trace.residual_ns_per_op", host_cpu - sum, "ns");
    add("trace.residual_share", host_cpu > 0 ? (host_cpu - sum) / host_cpu : 0, "fraction");
  }
  return m;
}

}  // namespace perfbench
