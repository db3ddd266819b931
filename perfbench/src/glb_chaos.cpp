// glb_chaos: lifeline global load balancing over an rts::DistMap, in the
// shape of bench/support/glb_harness.hpp (kept separate so a change to the
// harness cannot silently change the benchmark).  Six namespaces on six
// shards expand an unbalanced tree through AsyncClient drivers while
// per-node lifeline Rebalancers migrate the map partitions, all of which
// start on nodes 0 and 1, under seeded loss bursts and partitions.
//
// Faults are applied by the driver between segments of run_until (each
// segment stops at the next fault's time), not through the network's
// boundary-hook applier, so the traced run can own the boundary hook for
// window timing.  Segment ends are a pure function of event times, so the
// run stays bit-identical at any worker count.
#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "counters.hpp"
#include "net/cost_model.hpp"
#include "net/fault_schedule.hpp"
#include "net/network.hpp"
#include "rmi/channel.hpp"
#include "rmi/transport.hpp"
#include "rts/async_client.hpp"
#include "rts/class_world.hpp"
#include "rts/directory.hpp"
#include "rts/dist/dist_map.hpp"
#include "rts/dist/layout.hpp"
#include "rts/dist/rebalancer.hpp"
#include "rts/protocol.hpp"
#include "rts/server.hpp"
#include "serial/writer.hpp"
#include "sim/sharded.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace mage;
using Map = rts::dist::DistMap<std::uint64_t, std::int64_t>;
using Partition = rts::dist::MapPartition<std::uint64_t, std::int64_t>;

// Children of tree node `id` at `depth`, a pure function of (seed, id):
// the first full_depth levels branch 4 ways (a wide parallel frontier of
// 4^full_depth subtree roots); below that the process is subcritical
// (E[children] = 0.22*4 + 0.08*1 = 0.96) with a heavy tail.  Summing many
// such subtrees keeps the round size steady from seed to seed.
int branching(std::uint64_t seed, std::uint64_t id, int depth,
              const GlbShape& shape) {
  if (depth < shape.full_depth) return 4;
  if (depth >= shape.max_depth) return 0;
  const std::uint64_t r =
      common::SplitMix64(seed ^ (id * 0x9E3779B97F4A7C15ull)).next() % 100;
  if (r < 22) return 4;
  if (r < 30) return 1;
  return 0;
}

// child_of and glb_model are a deliberate fork of the harness's: with the
// tree numbering and the cost model pinned here, an edit to the harness
// cannot move this benchmark's sim-time figures.
std::uint64_t child_of(std::uint64_t id, int j) {
  return 5 * id + 1 + static_cast<std::uint64_t>(j);
}

net::CostModel glb_model() {
  net::CostModel m = net::CostModel::zero();
  m.propagation_us = 200;
  m.per_message_cpu_us = 20;
  m.connection_setup_us = 100;
  m.local_invoke_us = 1;
  return m;
}

// Simulated CPU per expand.  Small enough that no node's service time
// becomes the bottleneck, so a round's simulated throughput does not hinge
// on where the migrations happen to leave the partitions.
constexpr common::SimDuration kWorkCostUs = 40;

// The rebalancers migrate during their first kRebalanceTicks ticks (about
// 250 simulated ms); the faults start after that.  A partition that cuts a
// migration's transfer stalls the partition for the transfer's 150 ms
// retransmit period, longer than AsyncClient's chase budget, and expands
// then fail (README.md, "Known runtime defects").
constexpr std::int64_t kRebalanceTicks = 60;
constexpr common::SimTime kFaultsFromUs = 300'000;

// Seeded chaos over `span` from kFaultsFromUs (a full-size round lasts about
// 1.3 simulated seconds): partition/heal pairs between random node pairs.
// Outages are harness-sized (1-2.5 ms), so transport retransmission and
// chase redirects ride them out.  No crashes: a crash would lose live
// partition state, which no layer here replicates.  No loss bursts: under
// loss the runtime can lose a partition in migration (README.md).
net::FaultSchedule fault_schedule(std::uint64_t seed, int nodes,
                                  common::SimDuration span) {
  common::Rng rng(seed ^ 0x61Bull);
  auto node = [&] {
    return common::NodeId{static_cast<std::uint32_t>(
        rng.next_below(static_cast<std::uint64_t>(nodes)) + 1)};
  };
  net::FaultSchedule schedule;
  for (int cut = 0; cut < 48; ++cut) {
    const common::NodeId a = node();
    common::NodeId b = node();
    while (b == a) b = node();
    schedule.partition_for(kFaultsFromUs + rng.next_below(static_cast<std::uint64_t>(span)), a, b,
                           1'000 + rng.next_below(1'500));
  }
  return schedule;
}

void apply_fault(net::Network& net, const net::FaultEvent& e) {
  if (e.kind == net::FaultKind::Partition) net.set_partitioned(e.a, e.b, true);
  if (e.kind == net::FaultKind::Heal) net.set_partitioned(e.a, e.b, false);
}

}  // namespace

GlbShape glb_shape(const RunConfig& cfg) {
  GlbShape shape;
  // 4^6 = 4096 subtree roots per round at full scale (about 50k expands),
  // 4^3 for the self-tests.
  shape.full_depth = cfg.scale_pct >= 50 ? 6 : 3;
  shape.max_depth = shape.full_depth + 15;
  return shape;
}

namespace {

std::uint64_t subtree_size(std::uint64_t seed, const GlbShape& shape,
                           std::uint64_t root, int root_depth) {
  std::vector<std::pair<std::uint64_t, int>> stack{{root, root_depth}};
  std::uint64_t count = 0;
  while (!stack.empty()) {
    const auto [id, depth] = stack.back();
    stack.pop_back();
    ++count;
    const int kids = branching(seed, id, depth, shape);
    for (int j = 0; j < kids; ++j) stack.emplace_back(child_of(id, j), depth + 1);
  }
  return count;
}

}  // namespace

std::uint64_t glb_tree_size(std::uint64_t seed, const GlbShape& shape) {
  return subtree_size(seed, shape, 1, 0);
}

std::vector<std::string> check_glb(const GlbEvidence& e) {
  std::vector<std::string> failures;
  if (!e.drained) failures.push_back("glb: run did not drain");
  if (e.live_partitions != e.partitions) {
    failures.push_back("glb: " + std::to_string(e.partitions - e.live_partitions) +
                       " map partitions have no live binding");
  }
  if (e.processed != e.tree_size) {
    failures.push_back("glb: " + std::to_string(e.processed) +
                       " expands completed, tree has " +
                       std::to_string(e.tree_size) + " nodes");
  }
  if (e.map_count != e.tree_size) {
    failures.push_back("glb: map holds " + std::to_string(e.map_count) +
                       " keys, tree has " + std::to_string(e.tree_size));
  }
  if (e.map_sum != static_cast<std::int64_t>(e.tree_size)) {
    failures.push_back("glb: map values sum to " + std::to_string(e.map_sum) +
                       ", expected one per tree node");
  }
  if (e.exec_violations != 0) {
    failures.push_back("glb: " + std::to_string(e.exec_violations) +
                       " keys not executed exactly once");
  }
  if (e.fifo_violations != 0) {
    failures.push_back("glb: " + std::to_string(e.fifo_violations) +
                       " wire-FIFO violations");
  }
  return failures;
}

Round run_glb_chaos(const RunConfig& cfg, GlbEvidence* evidence_out) {
  Round round;
  GlbEvidence ev;
  const GlbShape shape = glb_shape(cfg);
  const int n = shape.nodes;
  const auto un = static_cast<std::size_t>(n);
  const std::string base = "pbmap";

  const double setup_start = wall_now();
  const net::CostModel model = glb_model();
  sim::ShardedSim ssim(un, cfg.seed, net::Network::min_link_latency(model));
  net::Network net(ssim, model);
  net.set_fifo_checks(true);

  rts::ClassWorld world;
  Map::register_class(world, "PbPartition", kWorkCostUs);
  rts::Directory directory;

  std::vector<common::NodeId> ids;
  for (int i = 0; i < n; ++i) ids.push_back(net.add_node("g" + std::to_string(i)));
  spread_link_latencies(net, cfg.seed, 50);

  // Drivers: a generous per-attempt transport budget (same request id, so
  // at-most-once safe) rides out the faults; no channel retries.  Probes
  // are idempotent, so they hedge and retry.
  rmi::CallPolicy drive_policy;
  drive_policy.attempt_timeout_us = 3'000;
  drive_policy.attempt_transmissions = 64;
  rmi::CallPolicy probe_policy;
  probe_policy.attempt_timeout_us = 3'000;
  probe_policy.attempt_transmissions = 8;
  probe_policy.max_retries = 2;
  probe_policy.backoff_base_us = 2'000;
  probe_policy.backoff_multiplier = 2.0;
  probe_policy.hedge_after_us = 550;

  std::vector<std::unique_ptr<rmi::Transport>> transports;
  std::vector<std::unique_ptr<rts::MageServer>> servers;
  std::vector<std::unique_ptr<rts::AsyncClient>> clients;
  std::vector<std::unique_ptr<rts::AsyncClient>> probers;
  std::vector<std::unique_ptr<Map>> maps;
  for (std::size_t i = 0; i < un; ++i) {
    transports.push_back(std::make_unique<rmi::Transport>(net, ids[i]));
    servers.push_back(
        std::make_unique<rts::MageServer>(*transports[i], world, directory));
    servers[i]->class_cache().install("PbPartition");
    clients.push_back(std::make_unique<rts::AsyncClient>(*servers[i], drive_policy));
    probers.push_back(std::make_unique<rts::AsyncClient>(*servers[i], probe_policy));
  }
  for (std::size_t i = 0; i < un; ++i) {
    maps.push_back(std::make_unique<Map>(*clients[i], base, shape.partitions));
  }
  // Skewed deployment: every partition starts on node 0 or 1.
  for (std::size_t p = 0; p < shape.partitions; ++p) {
    Map::bind_partition(*servers[p % 2], directory, "PbPartition", base, p);
  }

  // Per-node load: invocations served per tick, sampled shard-locally.
  constexpr common::SimDuration kLoadTickUs = 2'000;
  std::vector<std::function<void(std::int64_t)>> load_ticks(un);
  for (std::size_t i = 0; i < un; ++i) {
    auto& sim = net.node_sim(ids[i]);
    load_ticks[i] = [&net, &sim, id = ids[i], self = &load_ticks[i]](std::int64_t last) {
      const std::int64_t now = sim.stats().counter("rts.invocations");
      net.set_load(id, static_cast<double>(now - last));
      sim.schedule_after(kLoadTickUs, [self, now] { (*self)(now); }, sim::Wake::No);
    };
    sim.schedule_at(0, [self = &load_ticks[i]] { (*self)(0); }, sim::Wake::No);
  }

  // Lifeline rebalancers: each steals toward itself from its ring
  // predecessor and its antipode when idle; ticks staggered per node.
  std::vector<std::unique_ptr<rts::dist::Rebalancer>> rebalancers;
  for (int i = 0; i < n; ++i) {
    rts::dist::Rebalancer::Config config;
    config.prefix = rts::dist::partition_prefix(base);
    config.lifeline = true;
    config.tick_us = 4'000;
    config.start_at_us = 2'000 + 137 * i;
    config.min_load = 1.0;
    config.skew_margin = 1.0;
    config.idle_ceiling = 0.5;
    config.max_moves_per_tick = 1;
    config.max_ticks = kRebalanceTicks;
    config.buddies = {ids[static_cast<std::size_t>((i + n - 1) % n)],
                      ids[static_cast<std::size_t>((i + n / 2) % n)]};
    rebalancers.push_back(std::make_unique<rts::dist::Rebalancer>(
        net, *probers[static_cast<std::size_t>(i)],
        *clients[static_cast<std::size_t>(i)], ids, std::move(config)));
    rebalancers.back()->start();
  }

  round.setup_s = wall_now() - setup_start;
  ev.tree_size = glb_tree_size(cfg.seed, shape);

  // Static work assignment, planned from the seed before the run: the
  // complete upper levels (depth < full_depth) go round-robin across
  // drivers, and the subtree roots at full_depth go largest first to the
  // least-loaded driver, so every driver has about the same number of
  // expands and the round's length does not hinge on one heavy driver.
  // Each driver then expands what its own subtrees produce; every tree
  // node has exactly one driver at any worker count.
  struct Driver {
    std::deque<std::pair<std::uint64_t, int>> frontier;
    std::uint64_t planned = 0;
    std::int64_t inflight = 0;
    std::int64_t processed = 0;
    std::int64_t attempts = 0;
    std::vector<std::int64_t> latencies;
  };
  std::vector<Driver> drivers(un);
  {
    std::vector<std::uint64_t> level{1};
    for (int depth = 0; depth < shape.full_depth; ++depth) {
      std::vector<std::uint64_t> below;
      for (std::size_t k = 0; k < level.size(); ++k) {
        Driver& d = drivers[k % un];
        d.frontier.push_back({level[k], depth});
        ++d.planned;
        for (int j = 0; j < 4; ++j) below.push_back(child_of(level[k], j));
      }
      level = std::move(below);
    }
    std::vector<std::pair<std::uint64_t, std::uint64_t>> roots;  // (size, id)
    for (std::uint64_t id : level) {
      roots.push_back({subtree_size(cfg.seed, shape, id, shape.full_depth), id});
    }
    std::sort(roots.begin(), roots.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    for (const auto& [size, id] : roots) {
      Driver* least = &drivers[0];
      for (Driver& d : drivers) {
        if (d.planned < least->planned) least = &d;
      }
      least->frontier.push_back({id, shape.full_depth});
      least->planned += size;
    }
  }

  std::function<void(std::size_t)> pump = [&](std::size_t g) {
    Driver& driver = drivers[g];
    auto& sim = net.node_sim(ids[g]);
    while (driver.inflight < shape.window && !driver.frontier.empty()) {
      const auto [id, depth] = driver.frontier.front();
      driver.frontier.pop_front();
      ++driver.inflight;
      ++driver.attempts;
      const common::SimTime issued = sim.now();
      Span span(SpanKind::GlbExpand, id);
      maps[g]
          ->expand(id, 1)
          .then([&, g, id, depth, issued](std::int64_t&) {
            Span cb(SpanKind::GlbCallback, id);
            Driver& d = drivers[g];
            d.latencies.push_back(net.node_sim(ids[g]).now() - issued);
            ++d.processed;
            if (depth >= shape.full_depth) {
              const int kids = branching(cfg.seed, id, depth, shape);
              for (int j = 0; j < kids; ++j) {
                d.frontier.push_back({child_of(id, j), depth + 1});
              }
            }
            --d.inflight;
            pump(g);
          })
          .on_error([&, g, id, depth](const std::string&) {
            // Transient (fault window, partition mid-flight): requeue.
            // Safe because expand is first-write-wins idempotent.
            Span cb(SpanKind::GlbCallback, id);
            Driver& d = drivers[g];
            d.frontier.push_back({id, depth});
            --d.inflight;
            pump(g);
          });
    }
  };

  const std::vector<net::FaultEvent> faults =
      fault_schedule(cfg.seed, n, 1'000'000).sorted();
  std::size_t next_fault = 0;
  auto done = [&] {
    for (const auto& d : drivers) {
      if (d.inflight != 0 || !d.frontier.empty()) return false;
    }
    // Let in-flight partition transfers land before reading state.
    for (std::size_t p = 0; p < shape.partitions; ++p) {
      const std::string name = rts::dist::partition_name(base, p);
      for (const auto& server : servers) {
        if (server->in_transit(name)) return false;
      }
    }
    return true;
  };

  WindowClock window_clock(ssim, cfg.time_windows, &round.window_host_us);
  const CounterSnapshot before = snapshot(ssim);
  std::int64_t windows = 0;

  const double cpu0 = cpu_now();
  const double wall0 = wall_now();
  for (std::size_t g = 0; g < un; ++g) pump(g);
  // Generous virtual-time deadline: a liveness bug fails the round instead
  // of hanging it.
  constexpr common::SimTime kDeadlineUs = 60'000'000;
  while (true) {
    const bool last = next_fault >= faults.size();
    const common::SimTime stop = last ? kDeadlineUs : faults[next_fault].at - 1;
    const bool reached = ssim.run_until(done, cfg.workers, stop);
    windows += ssim.windows();
    window_clock.pause();
    if (reached || last) {
      ev.drained = reached;
      break;
    }
    const common::SimTime at = faults[next_fault].at;
    while (next_fault < faults.size() && faults[next_fault].at == at) {
      apply_fault(net, faults[next_fault++]);
    }
  }
  round.wall_s = wall_now() - wall0;
  round.cpu_s = cpu_now() - cpu0;
  round.windows = windows;
  round.counters = delta(before, snapshot(ssim));

  common::SimTime end_us = 0;
  for (const auto& id : ids) end_us = std::max(end_us, net.node_sim(id).now());
  round.sim_span_us = end_us;

  // Verification reads partition state directly; content digests fold in
  // partition-index order, so the digest does not depend on placement.
  ev.content_digest = rts::dist::kFnvOffset;
  for (std::size_t p = 0; p < shape.partitions; ++p) {
    const std::string name = rts::dist::partition_name(base, p);
    for (const auto& server : servers) {
      if (!server->registry().has_local(name) || server->in_transit(name)) continue;
      auto& part = dynamic_cast<Partition&>(server->registry().local(name));
      ev.content_digest = rts::dist::fold_hash(ev.content_digest, part.digest());
      ev.map_count += part.size();
      ev.map_sum += part.reduce_plus();
      ev.exec_violations += part.exec_violations();
      ++ev.live_partitions;
      break;
    }
  }
  ev.partitions = shape.partitions;
  ev.fifo_violations = static_cast<std::int64_t>(round.counter("net.fifo_violations"));

  for (const auto& d : drivers) {
    ev.processed += static_cast<std::uint64_t>(d.processed);
    round.attempted += d.attempts;
    round.latencies_us.insert(round.latencies_us.end(), d.latencies.begin(),
                              d.latencies.end());
  }
  round.completed = static_cast<std::int64_t>(ev.processed);
  round.failed = round.attempted - round.completed;
  round.counters["glb.useful_expands"] = static_cast<double>(ev.map_count);

  round.digest = fnv_fold(round.digest, ev.content_digest);
  round.digest = fnv_fold(round.digest, static_cast<std::uint64_t>(round.sim_span_us));
  round.digest = fnv_fold(round.digest, static_cast<std::uint64_t>(round.attempted));
  fold_latencies(round);

  for (auto& f : check_glb(ev)) round.failures.push_back(std::move(f));
  if (evidence_out != nullptr) *evidence_out = ev;
  return round;
}

ReplayShapes glb_replay_shapes(const RunConfig& cfg) {
  ReplayShapes shapes;
  const GlbShape shape = glb_shape(cfg);
  shapes.model = glb_model();
  shapes.component = rts::dist::partition_name("pbmap", 0);
  shapes.method = "expand";
  serial::Writer w;
  w.write_u64(123456789);
  w.write_i64(1);
  shapes.args = w.take();
  const rts::proto::InvokeRequest req{shapes.component, shapes.method, shapes.args};
  // Expand requests and their small replies.
  shapes.body_sizes = {req.encode().size(), 24};
  // Per shard: window expands in flight, plus load and rebalancer ticks.
  shapes.queue_depth = static_cast<std::size_t>(2 * shape.window + 2);
  // A partition at its fair share of the tree.
  auto state = std::make_unique<Partition>();
  const std::uint64_t keys = glb_tree_size(cfg.seed, shape) / shape.partitions;
  for (std::uint64_t k = 0; k < keys; ++k) state->expand(k * 7919, 1);
  shapes.state = std::move(state);
  shapes.blank = std::make_unique<Partition>();
  return shapes;
}

}  // namespace perfbench

