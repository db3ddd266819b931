// Many-client load balancer on the MULTI-CORE storm mesh — the rts-layer
// workload for the sharded simulation, now written entirely against the
// rts::AsyncClient facade (docs/API.md): no raw protocol structs, no
// hand-rolled Moved-hint chasing, no nested CallResult callbacks.
//
// Topology: N namespaces on a sim::ShardedSim (one event-queue shard per
// node, worker threads, conservative lookahead), each running a full
// rts::MageServer.  K "Session" components all start crammed onto two
// nodes.  Every node runs a generator that keeps a window of asynchronous
// invokes in flight against randomly chosen sessions — each invoke is one
// `client.invoke<int64>(name, "work").then(issue next)` chain; the facade
// chases Moved hints, honors epoch fences, and re-locates on its own.  A
// rebalancer on node 0 polls every node's load with `when_all` over
// hedged `load_of` probes and `move()`s one session from the hottest node
// to the coolest — the paper's Section 3.1 policy, running *inside* the
// simulated federation.
//
// The hedged/retriable channel stats the probe client exports
// (rmi.hedged_calls, rmi.hedge_wins, rmi.cancelled_calls, rmi.retries,
// rmi.deadline_exceeded) are printed with the run summary.
//
// The run executes three times — 1, 2, and 8 worker threads — and asserts
// all three produce identical per-node service counts, final placement,
// and migration counts: the sharded determinism contract, observed from
// the application layer through the async facade.
//
// Build & run:  ./build/example_storm_balancer
#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "net/cost_model.hpp"
#include "net/network.hpp"
#include "rmi/channel.hpp"
#include "rmi/transport.hpp"
#include "rts/async_client.hpp"
#include "rts/directory.hpp"
#include "rts/future.hpp"
#include "rts/server.hpp"
#include "sim/sharded.hpp"

namespace {

using namespace mage;

constexpr int kNodes = 8;
constexpr int kSessions = 24;
constexpr int kInvokesPerNode = 250;
constexpr int kGeneratorWindow = 4;
constexpr common::SimDuration kWorkCostUs = 200;
constexpr common::SimDuration kLoadTickUs = 5'000;
constexpr common::SimDuration kRebalanceTickUs = 10'000;

class Session : public rts::MageObject {
 public:
  std::string class_name() const override { return "Session"; }
  void serialize(serial::Writer& w) const override { w.write_i64(served_); }
  void deserialize(serial::Reader& r) override { served_ = r.read_i64(); }

  std::int64_t work() { return ++served_; }

 private:
  std::int64_t served_ = 0;
};

std::string session_name(int s) { return "sess" + std::to_string(s); }

// Fast LAN with a 220us cross-node floor (the conservative lookahead) and
// cheap compiled marshalling — modern_lan, but with enough propagation to
// keep the conservative windows well-fed.
net::CostModel balancer_model() {
  net::CostModel m = net::CostModel::modern_lan();
  m.propagation_us = 200;
  m.per_message_cpu_us = 20;
  return m;
}

// The probe client's policy: load probes are idempotent, so they may hedge
// (duplicate) and retry freely — the cookbook's "impatient read" recipe.
rmi::CallPolicy probe_policy() {
  rmi::CallPolicy policy;
  policy.attempt_timeout_us = 3'000;
  policy.attempt_transmissions = 8;
  policy.max_retries = 2;
  policy.backoff_base_us = 2'000;
  policy.backoff_multiplier = 2.0;
  policy.backoff_jitter = 0.25;  // drawn from node 0's own stream
  policy.hedge_after_us = 550;
  return policy;
}

struct RunResult {
  std::vector<std::int64_t> served_per_node;  // generator completions
  std::vector<std::size_t> final_placement;   // sessions hosted per node
  std::int64_t migrations = 0;
  std::int64_t redirects = 0;
  std::int64_t relocates = 0;
  std::int64_t invocations = 0;
  std::int64_t hedged = 0;
  std::int64_t hedge_wins = 0;
  std::int64_t cancelled = 0;
  std::int64_t retries = 0;
  std::int64_t deadline_exceeded = 0;
  std::int64_t windows = 0;
  double wall_sec = 0;
};

RunResult run(int threads) {
  const net::CostModel model = balancer_model();
  sim::ShardedSim ssim(kNodes, /*seed=*/0xB0B5,
                       net::Network::min_link_latency(model));
  net::Network net(ssim, model);

  rts::ClassWorld world;
  rts::ClassBuilder<Session>(world, "Session").method("work", &Session::work,
                                                      kWorkCostUs);
  rts::Directory directory;

  std::vector<common::NodeId> ids;
  for (int i = 0; i < kNodes; ++i) {
    ids.push_back(net.add_node("n" + std::to_string(i)));
  }
  std::vector<std::unique_ptr<rmi::Transport>> transports;
  std::vector<std::unique_ptr<rts::MageServer>> servers;
  std::vector<std::unique_ptr<rts::AsyncClient>> clients;
  for (int i = 0; i < kNodes; ++i) {
    transports.push_back(std::make_unique<rmi::Transport>(net, ids[i]));
    servers.push_back(
        std::make_unique<rts::MageServer>(*transports[i], world, directory));
    servers[i]->class_cache().install("Session");
    // Default policy: no channel retries/hedges — mage.invoke is not
    // idempotent; only transport retransmission is at-most-once safe.
    clients.push_back(std::make_unique<rts::AsyncClient>(*servers[i]));
  }
  // Node 0 additionally runs the balancer: a hedged+retriable probe client
  // for the idempotent load polls, and a mover for the convergent moves.
  rts::AsyncClient prober(*servers[0], probe_policy());
  rts::AsyncClient& mover = *clients[0];

  // Deliberately imbalanced deployment: every session starts on node 0 or
  // 1, so the load policy has real work to do.
  for (int s = 0; s < kSessions; ++s) {
    const int home = s % 2;
    rts::ComponentInfo info;
    info.name = session_name(s);
    info.class_name = "Session";
    info.home = ids[home];
    info.is_public = true;
    directory.announce(info);
    servers[home]->registry().bind(info.name, world.instantiate("Session"));
  }

  // --- generators: one per node, window of async invoke chains -------------
  struct Generator {
    std::int64_t issued = 0;
    std::int64_t completed = 0;
  };
  std::vector<Generator> gens(kNodes);
  std::int64_t failures = 0;

  // Issue the next invoke for generator g: one future chain per in-flight
  // request; completions re-issue on the generator node's own shard, with
  // the next session drawn from that shard's RNG.
  std::function<void(int)> issue = [&](int g) {
    Generator& gen = gens[g];
    if (gen.issued >= kInvokesPerNode) return;
    ++gen.issued;
    const int s =
        static_cast<int>(net.node_sim(ids[g]).rng().next_below(kSessions));
    clients[g]
        ->invoke<std::int64_t>(session_name(s), "work")
        .then([&, g](std::int64_t&) {
          ++gens[g].completed;
          issue(g);
        })
        .on_error([&](const std::string&) { ++failures; });
  };

  // --- per-node load metric: invocations served per tick -------------------
  // Each node samples its own shard-local "rts.invocations" counter and
  // publishes the delta as its load — all on the owning shard, per the
  // set_load threading contract.  The recurring tick functions live in a
  // pre-sized vector (stable addresses, no shared_ptr self-capture cycle);
  // actions still queued when the run stops only ever get destroyed, never
  // invoked, so the raw pointers cannot dangle into a running callback.
  std::vector<std::function<void(std::int64_t)>> load_ticks(kNodes);
  for (int i = 0; i < kNodes; ++i) {
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

  // --- rebalancer on node 0: poll loads, migrate hot -> cool ---------------
  std::int64_t moves_requested = 0;
  std::function<void()> rebalance = [&] {
    std::vector<rts::MageFuture<double>> probes;
    probes.reserve(kNodes);
    for (int i = 0; i < kNodes; ++i) probes.push_back(prober.load_of(ids[i]));
    rts::when_all(probes)
        .then([&](std::vector<double>& loads) {
          int hot = 0, cool = 0;
          for (int j = 1; j < kNodes; ++j) {
            if (loads[j] > loads[hot]) hot = j;
            if (loads[j] < loads[cool]) cool = j;
          }
          if (hot != cool && loads[hot] > 0) {
            // Migrate one session node 0 believes lives on `hot`.
            for (int s = 0; s < kSessions; ++s) {
              if (mover.believed_host(session_name(s)) != ids[hot]) continue;
              ++moves_requested;
              // Best-effort: a move that raced another is just skipped.
              mover.move(session_name(s), ids[cool])
                  .on_error([](const std::string&) {});
              break;
            }
          }
        })
        .on_error([](const std::string&) {
          // A probe round that lost a node is skipped; the next tick polls
          // again.
        });
    net.node_sim(ids[0]).schedule_after(kRebalanceTickUs,
                                        [&rebalance] { rebalance(); },
                                        sim::Wake::No);
  };
  net.node_sim(ids[0]).schedule_at(0, [&rebalance] { rebalance(); },
                                   sim::Wake::No);

  // Prime every generator's window (driver-side, before workers start).
  for (int g = 0; g < kNodes; ++g) {
    for (int w = 0; w < kGeneratorWindow; ++w) issue(g);
  }

  const std::int64_t total =
      static_cast<std::int64_t>(kNodes) * kInvokesPerNode;
  const auto start = std::chrono::steady_clock::now();
  const bool done = ssim.run_until(
      [&] {
        std::int64_t sum = failures;
        for (const auto& g : gens) sum += g.completed;
        return sum == total;
      },
      threads);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (!done) {
    std::cerr << "storm_balancer drained before all invokes completed\n";
    std::exit(1);
  }
  if (failures != 0) {
    std::cerr << "storm_balancer: " << failures << " invokes failed\n";
    std::exit(1);
  }

  RunResult result;
  result.wall_sec = wall;
  result.windows = ssim.windows();
  result.migrations = ssim.counter("rts.migrations");
  result.invocations = ssim.counter("rts.invocations");
  result.redirects = ssim.counter("rts.async_redirects");
  result.relocates = ssim.counter("rts.async_relocates");
  result.hedged = ssim.counter("rmi.hedged_calls");
  result.hedge_wins = ssim.counter("rmi.hedge_wins");
  result.cancelled = ssim.counter("rmi.cancelled_calls");
  result.retries = ssim.counter("rmi.retries");
  result.deadline_exceeded = ssim.counter("rmi.deadline_exceeded");
  for (const auto& g : gens) result.served_per_node.push_back(g.completed);
  for (int i = 0; i < kNodes; ++i) {
    result.final_placement.push_back(
        servers[i]->registry().local_names().size());
  }
  (void)moves_requested;
  return result;
}

}  // namespace

int main() {
  std::cout << "storm_balancer: " << kNodes << " namespaces, " << kSessions
            << " sessions (all starting on 2 nodes), " << kInvokesPerNode
            << " invokes/node through the AsyncClient facade\n\n";

  const int worker_counts[] = {1, 2, 8};
  std::vector<RunResult> results;
  for (int threads : worker_counts) {
    results.push_back(run(threads));
    const RunResult& r = results.back();
    std::cout << threads << " worker" << (threads == 1 ? ":  " : "s: ")
              << r.invocations << " invocations, " << r.migrations
              << " migrations, " << r.redirects << " redirects chased, "
              << r.relocates << " relocates, " << r.windows << " windows, "
              << r.wall_sec << " s\n";
  }
  const RunResult& base = results.front();
  const RunResult& last = results.back();

  std::cout << "\nchannel stats (8-worker run): " << last.hedged
            << " hedged calls (" << last.hedge_wins << " hedge wins), "
            << last.cancelled << " losers cancelled, " << last.retries
            << " channel retries, " << last.deadline_exceeded
            << " deadline expiries\n";
  std::cout << "final placement (sessions per node): ";
  for (auto c : last.final_placement) std::cout << c << " ";
  std::cout << "\nserved per node: ";
  for (auto c : last.served_per_node) std::cout << c << " ";
  std::cout << "\n\n";

  for (std::size_t i = 1; i < results.size(); ++i) {
    const RunResult& r = results[i];
    if (r.served_per_node != base.served_per_node ||
        r.final_placement != base.final_placement ||
        r.migrations != base.migrations || r.redirects != base.redirects ||
        r.invocations != base.invocations) {
      std::cerr << "FAIL: " << worker_counts[i] << "-worker run diverged "
                << "from the 1-worker run — sharded determinism contract "
                << "broken at the rts layer\n";
      return 1;
    }
  }
  if (last.migrations == 0) {
    std::cerr << "FAIL: load policy never migrated a session\n";
    return 1;
  }
  // The policy must actually have spread the cluster: the two seed nodes
  // cannot still hold everything.
  if (last.final_placement[0] + last.final_placement[1] ==
      static_cast<std::size_t>(kSessions)) {
    std::cerr << "FAIL: all sessions still on the two seed nodes\n";
    return 1;
  }
  std::cout << "OK: identical per-node service counts and placement at 1/2/8 "
            << "workers; " << last.migrations << " migrations under load\n";
  return 0;
}
