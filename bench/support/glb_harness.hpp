// Lifeline-style global load balancing over a DistMap — the shared
// workload behind examples/glb_tree.cpp, tests/dist_chaos_test.cpp, and
// `bench_storm --glb`.
//
// The workload is unbalanced tree expansion (the UTS shape the lifeline
// GLB literature uses): tree node ids are STRUCTURAL (child j of node n is
// 5n+1+j), and the branching factor at each node is a pure hash of
// (seed, id) — subcritical on average, heavy-tailed in practice — so the
// tree is a function of the seed alone, not of discovery order or worker
// count.  Every tree node is expanded exactly once into a DistMap<u64,i64>
// whose 8 partitions all start crammed on namespaces 0 and 1.  Six driver
// chains (one per namespace) expand their statically assigned subtrees
// through the AsyncClient facade while per-node lifeline Rebalancers
// migrate hot partitions toward idle nodes: work follows data, and the
// service load spreads.
//
// Chaos mode overlays a seed-generated fault schedule — loss bursts and a
// partition/heal pair racing the partition migrations.  (No node crashes:
// a crash would vaporize live partition state; surviving that needs the
// replicated state machine of a later PR, not a collection layer.)
// Drivers ride out faults two ways: a generous transport budget (same
// request id — at-most-once safe), and application-level requeue of
// failed expands — safe because `expand` is first-write-wins idempotent
// (a duplicate lands in dup_hits, never in the data).
//
// The result digest folds partition content digests in partition-index
// order: pure map content, no clocks, no placement — so runs at 1, 2, and
// 8 workers must be bit-identical, clean or chaotic.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "net/cost_model.hpp"
#include "net/fault_schedule.hpp"
#include "net/network.hpp"
#include "rmi/channel.hpp"
#include "rmi/transport.hpp"
#include "rts/async_client.hpp"
#include "rts/directory.hpp"
#include "rts/dist/dist_map.hpp"
#include "rts/dist/layout.hpp"
#include "rts/dist/rebalancer.hpp"
#include "rts/future.hpp"
#include "rts/server.hpp"
#include "sim/sharded.hpp"

namespace mage::glb {

struct GlbParams {
  int nodes = 6;              // namespaces = driver chains = shards
  std::size_t partitions = 8; // DistMap partitions, all seeded on nodes 0-1
  std::uint64_t seed = 1;
  bool chaos = false;
  int window = 3;                       // in-flight expands per driver
  common::SimDuration work_cost_us = 150;  // simulated CPU per expand
  int max_depth = 16;
  common::SimTime fault_t0_us = 1'000;
  common::SimDuration fault_span_us = 6'000;
};

// Children of tree node `id` at `depth`: a pure function of (seed, id), so
// every driver — and every worker count — sees the same tree.  Depth 0-1
// always branch fully (a guaranteed parallel frontier); beyond that the
// process is subcritical (E[children] = 0.22*4 + 0.08*1 = 0.96 < 1) with a
// heavy tail, capped at max_depth.
inline int branching(std::uint64_t seed, std::uint64_t id, int depth,
                     int max_depth) {
  if (depth < 2) return 4;
  if (depth >= max_depth) return 0;
  const std::uint64_t r =
      common::SplitMix64(seed ^ (id * 0x9E3779B97F4A7C15ull)).next() % 100;
  if (r < 22) return 4;
  if (r < 30) return 1;
  return 0;
}

inline std::uint64_t child_of(std::uint64_t id, int j) {
  return 5 * id + 1 + static_cast<std::uint64_t>(j);
}

// Driver-side ground truth: the tree is a pure function of the seed, so
// its size is computable without touching the federation.
inline std::uint64_t tree_size(std::uint64_t seed, int max_depth) {
  std::deque<std::pair<std::uint64_t, int>> frontier{{1, 0}};
  std::uint64_t count = 0;
  while (!frontier.empty()) {
    const auto [id, depth] = frontier.front();
    frontier.pop_front();
    ++count;
    const int kids = branching(seed, id, depth, max_depth);
    for (int j = 0; j < kids; ++j) frontier.emplace_back(child_of(id, j), depth + 1);
  }
  return count;
}

inline net::CostModel glb_model() {
  net::CostModel m = net::CostModel::zero();
  m.propagation_us = 200;
  m.per_message_cpu_us = 20;
  m.connection_setup_us = 100;
  m.local_invoke_us = 1;
  return m;
}

// Chaos program: loss bursts + partition/heal pairs racing the partition
// migrations.  Deliberately no crash_for — see the header comment.
inline net::FaultSchedule glb_fault_schedule(const GlbParams& params) {
  common::Rng rng(params.seed ^ 0x61Bull);
  const auto n = static_cast<std::uint64_t>(params.nodes);
  const common::SimTime t0 = params.fault_t0_us;
  const common::SimDuration span = params.fault_span_us;
  auto node = [&] {
    return common::NodeId{static_cast<std::uint32_t>(rng.next_below(n) + 1)};
  };
  net::FaultSchedule schedule;
  schedule.loss_burst(t0 + rng.next_below(span / 3),
                      0.05 + 0.25 * rng.next_double(),
                      span / 6 + rng.next_below(span / 6));
  const std::uint64_t partitions = 1 + rng.next_below(2);
  for (std::uint64_t i = 0; i < partitions; ++i) {
    const common::NodeId a = node();
    common::NodeId b = node();
    while (b == a) b = node();
    schedule.partition_for(t0 + rng.next_below(span / 2), a, b,
                           span / 6 + rng.next_below(span / 4));
  }
  return schedule;
}

struct GlbRun {
  // Diagnostics only (not part of the determinism contract): what the
  // requeued expands actually failed with.
  std::map<std::string, std::int64_t> error_counts;
  bool completed = false;
  std::uint64_t tree_size = 0;
  std::uint64_t processed = 0;   // driver-side expand completions
  std::uint64_t digest = 0;      // partition digests folded in index order
  std::uint64_t map_count = 0;   // keys stored across partitions
  std::int64_t map_sum = 0;      // sum of values (all 1s when exactly-once)
  std::uint64_t exec_violations = 0;  // keys whose exec counter != 1
  std::int64_t dup_hits = 0;     // duplicate expands absorbed (chaos only)
  std::int64_t requeues = 0;     // app-level retries after chase failures
  std::int64_t migrations = 0;        // "rts.migrations"
  std::int64_t lifeline_steals = 0;   // "rts.lifeline_steals"
  std::int64_t rebalance_moves = 0;   // "rts.rebalance_moves"
  std::int64_t table_repairs = 0;     // "rts.dist_table_repairs"
  std::int64_t relocates = 0;
  std::int64_t redirects = 0;
  std::int64_t faults_applied = 0;
  std::int64_t windows = 0;

  [[nodiscard]] bool exactly_once() const {
    return exec_violations == 0 && map_count == tree_size &&
           map_sum == static_cast<std::int64_t>(tree_size) &&
           processed == tree_size;
  }
};

inline GlbRun run_glb(const GlbParams& params, int threads) {
  using rts::dist::DistMap;
  using Map = DistMap<std::uint64_t, std::int64_t>;
  const int n = params.nodes;
  const std::string base = "glbmap";
  const net::CostModel model = glb_model();

  sim::ShardedSim ssim(static_cast<std::size_t>(n), params.seed,
                       net::Network::min_link_latency(model));
  net::Network net(ssim, model);

  rts::ClassWorld world;
  Map::register_class(world, "GlbPartition", params.work_cost_us);
  rts::Directory directory;

  std::vector<common::NodeId> ids;
  for (int i = 0; i < n; ++i) ids.push_back(net.add_node("n" + std::to_string(i)));

  std::vector<std::unique_ptr<rmi::Transport>> transports;
  std::vector<std::unique_ptr<rts::MageServer>> servers;
  std::vector<std::unique_ptr<rts::AsyncClient>> clients;
  std::vector<std::unique_ptr<rts::AsyncClient>> probers;
  std::vector<std::unique_ptr<Map>> maps;
  // Drivers: generous per-attempt transport budget (same request id —
  // at-most-once safe) to ride out the fault window; NO channel retries.
  rmi::CallPolicy drive_policy;
  drive_policy.attempt_timeout_us = 3'000;
  drive_policy.attempt_transmissions = 64;
  // Probes are idempotent: hedge and retry freely.
  rmi::CallPolicy probe_policy;
  probe_policy.attempt_timeout_us = 3'000;
  probe_policy.attempt_transmissions = 8;
  probe_policy.max_retries = 2;
  probe_policy.backoff_base_us = 2'000;
  probe_policy.backoff_multiplier = 2.0;
  probe_policy.hedge_after_us = 550;
  for (int i = 0; i < n; ++i) {
    transports.push_back(std::make_unique<rmi::Transport>(net, ids[i]));
    servers.push_back(
        std::make_unique<rts::MageServer>(*transports[i], world, directory));
    servers[i]->class_cache().install("GlbPartition");
    clients.push_back(
        std::make_unique<rts::AsyncClient>(*servers[i], drive_policy));
    probers.push_back(
        std::make_unique<rts::AsyncClient>(*servers[i], probe_policy));
  }
  for (int i = 0; i < n; ++i) {
    maps.push_back(std::make_unique<Map>(*clients[i], base, params.partitions));
  }

  // Deliberately skewed deployment: every partition starts on node 0 or 1.
  for (std::size_t p = 0; p < params.partitions; ++p) {
    Map::bind_partition(*servers[p % 2], directory, "GlbPartition", base, p);
  }

  // Per-node load metric: invocations served per tick (the storm_balancer
  // pattern — each node samples its own shard-local counter).
  constexpr common::SimDuration kLoadTickUs = 2'000;
  std::vector<std::function<void(std::int64_t)>> load_ticks(n);
  for (int i = 0; i < n; ++i) {
    auto& sim = net.node_sim(ids[i]);
    load_ticks[i] = [&net, &sim, id = ids[i],
                     self = &load_ticks[i]](std::int64_t last) {
      const std::int64_t now = sim.stats().counter("rts.invocations");
      net.set_load(id, static_cast<double>(now - last));
      sim.schedule_after(kLoadTickUs, [self, now] { (*self)(now); },
                         sim::Wake::No);
    };
    sim.schedule_at(0, [self = &load_ticks[i]] { (*self)(0); }, sim::Wake::No);
  }

  // Lifeline rebalancers: one per node, stealing toward itself from its
  // ring predecessor and its antipode when idle.  Ticks are staggered per
  // node (deterministically) so steal rounds don't thunder together.
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
    config.buddies = {ids[(i + n - 1) % n], ids[(i + n / 2) % n]};
    rebalancers.push_back(std::make_unique<rts::dist::Rebalancer>(
        net, *probers[i], *clients[i], ids, std::move(config)));
    rebalancers.back()->start();
  }

  GlbRun run;
  run.tree_size = tree_size(params.seed, params.max_depth);

  if (params.chaos) {
    net.set_fifo_checks(true);
    net.set_fault_schedule(glb_fault_schedule(params));
    // Horizon ticks keep virtual time moving past the last schedule entry.
    const common::SimTime horizon =
        params.fault_t0_us + params.fault_span_us * 2;
    for (common::SimTime t = 500; t <= horizon; t += 500) {
      net.node_sim(ids[0]).schedule_at(t, [] {}, sim::Wake::No);
    }
  }

  // --- drivers: one windowed expand chain per namespace --------------------
  //
  // Static work assignment: driver 0 owns depths 0-1 (their children are
  // the depth-2 seeds, so they never enqueue); the 16 depth-2 subtree
  // roots go round-robin across all drivers, and from depth 2 on each
  // driver expands whatever its own subtrees produce.  Every tree node has
  // exactly one statically determined driver — worker count never changes
  // who expands what, only how the shards interleave.
  struct Driver {
    std::deque<std::pair<std::uint64_t, int>> frontier;
    std::int64_t inflight = 0;
    std::int64_t processed = 0;
    std::int64_t requeues = 0;
  };
  std::vector<Driver> drivers(n);
  drivers[0].frontier.push_back({1, 0});
  std::vector<std::uint64_t> depth2;
  for (int j = 0; j < 4; ++j) {
    const std::uint64_t d1 = child_of(1, j);
    drivers[0].frontier.push_back({d1, 1});
    for (int k = 0; k < 4; ++k) depth2.push_back(child_of(d1, k));
  }
  for (std::size_t k = 0; k < depth2.size(); ++k) {
    drivers[k % n].frontier.push_back({depth2[k], 2});
  }

  std::function<void(int)> pump = [&](int g) {
    Driver& driver = drivers[g];
    while (driver.inflight < params.window && !driver.frontier.empty()) {
      const auto [id, depth] = driver.frontier.front();
      driver.frontier.pop_front();
      ++driver.inflight;
      maps[g]
          ->expand(id, 1)
          .then([&, g, id, depth](std::int64_t&) {
            Driver& d = drivers[g];
            ++d.processed;
            // Depth 0-1 children are the statically assigned depth-2
            // seeds; enqueue only from depth 2 down.
            if (depth >= 2) {
              const int kids =
                  branching(params.seed, id, depth, params.max_depth);
              for (int j = 0; j < kids; ++j) {
                d.frontier.push_back({child_of(id, j), depth + 1});
              }
            }
            --d.inflight;
            pump(g);
          })
          .on_error([&, g, id, depth](const std::string& error) {
            ++run.error_counts[error];
            // Transient (fault window / partition mid-flight): requeue.
            // Safe because expand is first-write-wins idempotent.
            Driver& d = drivers[g];
            ++d.requeues;
            d.frontier.push_back({id, depth});
            --d.inflight;
            pump(g);
          });
    }
  };
  for (int g = 0; g < n; ++g) pump(g);

  auto done = [&] {
    for (const auto& d : drivers) {
      if (d.inflight != 0 || !d.frontier.empty()) return false;
    }
    if (net.pending_fault_events() != 0) return false;
    // Let in-flight partition transfers land: a migration that raced the
    // final expands can still hold a stale source copy (in transit) while
    // the destination serves — verification must read settled state.
    for (std::size_t p = 0; p < params.partitions; ++p) {
      const std::string name = rts::dist::partition_name(base, p);
      for (int i = 0; i < n; ++i) {
        if (servers[i]->in_transit(name)) return false;
      }
    }
    return true;
  };
  // Generous virtual-time deadline: a liveness bug fails the run instead
  // of hanging it.
  run.completed = ssim.run_until(done, threads, /*deadline=*/120'000'000);

  // --- verification: read partition state directly (driver-side) ----------
  //
  // After the run every partition lives in exactly one registry; fold
  // content digests in partition-index order so the digest is placement-
  // independent.
  if (!run.completed) {
    // Stall dump: where does every node believe each partition lives?
    for (std::size_t p = 0; p < params.partitions; ++p) {
      const std::string name = rts::dist::partition_name(base, p);
      std::string line = name + ":";
      for (int i = 0; i < n; ++i) {
        auto& reg = servers[i]->registry();
        // Appended piecewise: `"literal" + std::string` trips gcc 12's
        // -Wrestrict false positive.
        line.append(" n").append(std::to_string(i));
        if (reg.has_local(name)) line += "=LOCAL";
        if (servers[i]->in_transit(name)) line += "=TRANSIT";
        if (auto f = reg.forward(name)) {
          line.append("->").append(std::to_string(f->value()));
        }
        line.append("@").append(std::to_string(reg.epoch_of(name)));
        line.append("/k").append(
            std::to_string(clients[i]->known_epoch(name)));
      }
      run.error_counts[line] = -1;
    }
  }
  run.digest = rts::dist::kFnvOffset;
  for (std::size_t p = 0; p < params.partitions; ++p) {
    const std::string name = rts::dist::partition_name(base, p);
    for (int i = 0; i < n; ++i) {
      if (!servers[i]->registry().has_local(name)) continue;
      if (servers[i]->in_transit(name)) continue;  // stale source copy
      auto& partition = dynamic_cast<rts::dist::MapPartition<std::uint64_t, std::int64_t>&>(
          servers[i]->registry().local(name));
      run.digest = rts::dist::fold_hash(run.digest, partition.digest());
      run.map_count += partition.size();
      run.map_sum += partition.reduce_plus();
      run.exec_violations += partition.exec_violations();
      run.dup_hits += partition.dup_hits();
      break;
    }
  }
  for (const auto& d : drivers) {
    run.processed += static_cast<std::uint64_t>(d.processed);
    run.requeues += d.requeues;
  }
  run.migrations = ssim.counter("rts.migrations");
  run.lifeline_steals = ssim.counter("rts.lifeline_steals");
  run.rebalance_moves = ssim.counter("rts.rebalance_moves");
  run.table_repairs = ssim.counter("rts.dist_table_repairs");
  run.relocates = ssim.counter("rts.async_relocates");
  run.redirects = ssim.counter("rts.async_redirects");
  run.faults_applied = ssim.counter("net.faults_applied");
  run.windows = ssim.windows();
  return run;
}

}  // namespace mage::glb
