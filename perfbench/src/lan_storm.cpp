// lan_storm: 16 nodes on the sharded engine, one shard per node, every
// ordered pair a link that keeps `window` echo calls in flight through a
// default-configured rmi::Transport, over a LAN cost model.  Every message
// crosses shards, so window barriers, mailboxes and the transport's
// reply-cache ring carry the host time; no rts/core code runs.
#include <algorithm>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "common/verb.hpp"
#include "counters.hpp"
#include "net/cost_model.hpp"
#include "net/network.hpp"
#include "rmi/transport.hpp"
#include "serial/chain.hpp"
#include "serial/reader.hpp"
#include "serial/writer.hpp"
#include "sim/sharded.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace mage;

// The cost model bench/bench_storm.cpp's sharded runs use: a fast LAN whose
// cross-node floor (500us propagation + 50us receive CPU) is the engine's
// conservative lookahead, with RMI CPU overheads zeroed so each window
// holds hundreds of events per shard.
net::CostModel storm_model() {
  net::CostModel m = net::CostModel::zero();
  m.propagation_us = 500;
  m.per_message_cpu_us = 50;
  m.bytes_per_usec = 1250.0;  // 10 Gb/s
  m.connection_setup_us = 500;
  m.local_invoke_us = 1;
  return m;
}

constexpr std::uint64_t kWarmupSeq = ~0ull;

struct Link {
  rmi::Transport* transport = nullptr;
  sim::Simulation* sim = nullptr;  // the caller's shard
  common::NodeId dst;
  std::int64_t next_seq = 0;
  std::int64_t total = 0;
  std::vector<std::int64_t> issued_at;  // sim us, by seq
  std::vector<std::uint8_t>* completions = nullptr;
  std::vector<std::int64_t>* latencies = nullptr;  // the caller's node
  std::int64_t* completed = nullptr;               // the caller's node
  std::int64_t* failed = nullptr;
  std::int64_t* echo_mismatches = nullptr;
};

struct NodeState {
  std::vector<std::int64_t> last_seq;  // per caller, FIFO check
  std::uint64_t digest = kFnvOffset;
  std::int64_t order_violations = 0;
  std::vector<std::int64_t> latencies;
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  std::int64_t echo_mismatches = 0;
};

}  // namespace

StormShape storm_shape(const RunConfig& cfg) {
  StormShape shape;
  shape.calls_per_link = std::max(8, 1200 * cfg.scale_pct / 100);
  return shape;
}

std::vector<std::size_t> storm_body_sizes(std::uint64_t seed, int count) {
  // Log-uniform over 16..1024 bytes: small control-like calls beside
  // page-sized payloads, so fragment handling and wire time both vary.
  common::Rng rng(seed ^ 0x5707Dull);
  std::vector<std::size_t> sizes(static_cast<std::size_t>(count));
  for (auto& s : sizes) s = std::size_t{16} << rng.next_below(7);
  return sizes;
}

std::vector<std::string> check_storm(const StormEvidence& e) {
  std::vector<std::string> failures;
  const auto n = static_cast<std::size_t>(e.shape.nodes);
  const auto calls = static_cast<std::size_t>(e.shape.calls_per_link);
  std::int64_t missing = 0, doubled = 0;
  for (const auto& link : e.completions) {
    for (std::uint8_t c : link) {
      if (c == 0) ++missing;
      if (c > 1) ++doubled;
    }
  }
  if (e.completions.size() != n * (n - 1)) {
    failures.push_back("storm: wrong link count");
  }
  if (missing != 0) {
    failures.push_back("storm: " + std::to_string(missing) +
                       " calls never completed");
  }
  if (doubled != 0) {
    failures.push_back("storm: " + std::to_string(doubled) +
                       " calls completed more than once");
  }
  std::int64_t not_once = 0;
  for (std::size_t node = 0; node < n; ++node) {
    for (std::size_t caller = 0; caller < n; ++caller) {
      if (caller == node) continue;
      for (std::size_t seq = 0; seq < calls; ++seq) {
        if (e.executions[(node * n + caller) * calls + seq] != 1) ++not_once;
      }
    }
  }
  if (not_once != 0) {
    failures.push_back("storm: " + std::to_string(not_once) +
                       " requests not executed exactly once");
  }
  if (e.order_violations != 0) {
    failures.push_back("storm: " + std::to_string(e.order_violations) +
                       " per-link FIFO violations");
  }
  if (e.echo_mismatches != 0) {
    failures.push_back("storm: " + std::to_string(e.echo_mismatches) +
                       " echo replies differ from their requests");
  }
  if (e.call_failures != 0) {
    failures.push_back("storm: " + std::to_string(e.call_failures) +
                       " calls failed");
  }
  return failures;
}

Round run_lan_storm(const RunConfig& cfg, StormEvidence* evidence_out) {
  Round round;
  StormEvidence ev;
  ev.shape = storm_shape(cfg);
  const int n = ev.shape.nodes;
  const int calls = ev.shape.calls_per_link;
  const auto un = static_cast<std::size_t>(n);
  const auto ucalls = static_cast<std::size_t>(calls);

  const double setup_start = wall_now();
  const net::CostModel model = storm_model();
  sim::ShardedSim ssim(un, cfg.seed, net::Network::min_link_latency(model));
  net::Network net(ssim, model);

  // Request bodies depend only on seq: one immutable table built during
  // set-up, so a call bumps a refcount instead of running a Writer.
  const std::vector<std::size_t> sizes = storm_body_sizes(cfg.seed, calls);
  std::vector<serial::Buffer> bodies;
  bodies.reserve(ucalls + 1);
  for (std::size_t s = 0; s <= ucalls; ++s) {
    const std::size_t pad = s < ucalls ? sizes[s] : 0;
    serial::Writer w(8 + pad);
    w.write_u64(s < ucalls ? s : kWarmupSeq);
    for (std::size_t b = 0; b < pad; ++b) {
      w.write_u8(static_cast<std::uint8_t>(s + b));
    }
    bodies.push_back(w.take());
  }

  std::vector<common::NodeId> ids;
  for (int i = 0; i < n; ++i) ids.push_back(net.add_node("n" + std::to_string(i)));
  spread_link_latencies(net, cfg.seed, 200);
  std::vector<std::unique_ptr<rmi::Transport>> transports;
  for (int i = 0; i < n; ++i) {
    transports.push_back(std::make_unique<rmi::Transport>(net, ids[i]));
  }

  std::vector<NodeState> nodes(un);
  for (auto& s : nodes) s.last_seq.assign(un, -1);
  ev.executions.assign(un * un * ucalls, 0);

  const common::VerbId echo = common::intern_verb("perfbench.echo");
  for (std::size_t i = 0; i < un; ++i) {
    NodeState* state = &nodes[i];
    std::uint8_t* exec = ev.executions.data() + i * un * ucalls;
    transports[i]->register_service(
        echo, [state, exec, ucalls](common::NodeId caller,
                                    const serial::BufferChain& body,
                                    rmi::Replier replier) {
          serial::ChainReader r(body);
          const std::uint64_t seq = r.read_u64();
          Span span(SpanKind::StormService, seq);
          if (seq != kWarmupSeq) {
            const std::size_t from = caller.value() - 1;
            ++exec[from * ucalls + seq];
            auto& last = state->last_seq[from];
            if (static_cast<std::int64_t>(seq) <= last) {
              ++state->order_violations;
            }
            last = static_cast<std::int64_t>(seq);
            state->digest = fnv_fold(fnv_fold(state->digest, caller.value()), seq);
          }
          replier.ok(body);
        });
  }

  std::vector<Link> links;
  links.reserve(un * (un - 1));
  ev.completions.assign(un * (un - 1), std::vector<std::uint8_t>(ucalls, 0));
  for (std::size_t i = 0; i < un; ++i) {
    for (std::size_t j = 0; j < un; ++j) {
      if (i == j) continue;
      Link link;
      link.transport = transports[i].get();
      link.sim = &net.node_sim(ids[i]);
      link.dst = ids[j];
      link.total = calls;
      link.issued_at.assign(ucalls, 0);
      link.completions = &ev.completions[links.size()];
      link.latencies = &nodes[i].latencies;
      link.completed = &nodes[i].completed;
      link.failed = &nodes[i].failed;
      link.echo_mismatches = &nodes[i].echo_mismatches;
      links.push_back(std::move(link));
    }
  }
  for (auto& s : nodes) s.latencies.reserve((un - 1) * ucalls);

  // Connection warm-up: one call per link, outside the measured phase.
  // Counted per caller node: each slot has exactly one writing shard.
  for (auto& link : links) {
    link.transport->call(link.dst, echo, bodies[ucalls], [&link](rmi::CallResult r) {
      if (r.ok) ++*link.completed;
    });
  }
  ssim.run_until_idle(cfg.workers);
  round.setup_s = wall_now() - setup_start;
  for (auto& s : nodes) {
    if (s.completed != n - 1) round.failures.push_back("storm: connection warm-up lost calls");
    s.completed = 0;
  }

  // The closed loop: each completion issues the link's next call.
  std::function<void(Link&)> launch = [&](Link& link) {
    if (link.next_seq >= link.total) return;
    const std::int64_t seq = link.next_seq++;
    link.issued_at[static_cast<std::size_t>(seq)] = link.sim->now();
    Span span(SpanKind::StormCall, static_cast<std::uint64_t>(seq));
    link.transport->call(
        link.dst, echo, bodies[static_cast<std::size_t>(seq)],
        [&link, &launch, &bodies, seq](rmi::CallResult r) {
          Span cb(SpanKind::StormCallback, static_cast<std::uint64_t>(seq));
          const auto useq = static_cast<std::size_t>(seq);
          auto& done = (*link.completions)[useq];
          if (done < 255) ++done;
          if (!r.ok) {
            ++*link.failed;
          } else {
            serial::ChainReader reader(r.body);
            if (r.body.size() != bodies[useq].size() ||
                reader.read_u64() != useq) {
              ++*link.echo_mismatches;
            }
            ++*link.completed;
            link.latencies->push_back(link.sim->now() - link.issued_at[useq]);
          }
          launch(link);
        });
  };

  const std::int64_t total = static_cast<std::int64_t>(links.size()) * calls;
  auto all_done = [&] {
    std::int64_t sum = 0;
    for (const auto& s : nodes) sum += s.completed + s.failed;
    return sum == total;
  };

  WindowClock window_clock(ssim, cfg.time_windows, &round.window_host_us);
  const CounterSnapshot before = snapshot(ssim);
  common::SimTime start_us = sim::Simulation::kNoDeadline;
  for (auto& link : links) start_us = std::min(start_us, link.sim->now());

  const double cpu0 = cpu_now();
  const double wall0 = wall_now();
  for (auto& link : links) {
    for (int w = 0; w < ev.shape.window; ++w) launch(link);
  }
  const bool drained = ssim.run_until(all_done, cfg.workers);
  round.wall_s = wall_now() - wall0;
  round.cpu_s = cpu_now() - cpu0;
  window_clock.pause();
  round.windows = ssim.windows();
  round.counters = delta(before, snapshot(ssim));
  if (!drained) round.failures.push_back("storm: run stopped before all calls completed");

  common::SimTime end_us = 0;
  for (std::size_t i = 0; i < un; ++i) end_us = std::max(end_us, net.node_sim(ids[i]).now());
  round.sim_span_us = end_us - start_us;

  round.attempted = total;
  for (const auto& s : nodes) {
    round.completed += s.completed;
    ev.order_violations += s.order_violations;
    ev.echo_mismatches += s.echo_mismatches;
    ev.node_digests.push_back(s.digest);
    round.latencies_us.insert(round.latencies_us.end(), s.latencies.begin(),
                              s.latencies.end());
  }
  // Error results and never-completed calls both count as failed ops.
  round.failed = total - round.completed;
  ev.call_failures = round.failed;

  for (std::uint64_t d : ev.node_digests) round.digest = fnv_fold(round.digest, d);
  round.digest = fnv_fold(round.digest, static_cast<std::uint64_t>(round.sim_span_us));
  fold_latencies(round);

  for (auto& f : check_storm(ev)) round.failures.push_back(std::move(f));
  if (evidence_out != nullptr) *evidence_out = std::move(ev);
  return round;
}

ReplayShapes storm_replay_shapes(const RunConfig& cfg) {
  ReplayShapes shapes;
  const StormShape shape = storm_shape(cfg);
  shapes.model = storm_model();
  for (std::size_t s : storm_body_sizes(cfg.seed, 64)) shapes.body_sizes.push_back(s + 8);
  // Per shard: (nodes-1) links x window calls issued, as many served; each
  // in-flight call holds about one pending event (delivery, CPU step or
  // retry timer) at a time.
  shapes.queue_depth = static_cast<std::size_t>(2 * (shape.nodes - 1) * shape.window);
  return shapes;
}

}  // namespace perfbench
