// Deterministic chaos: scheduled fault injection on the sharded engine,
// proven replayable from a single seed.
//
// The property under test (ISSUE 5): with a net::FaultSchedule applied at
// ShardedSim window boundaries, one seed yields a bit-identical run —
// including every loss decision, drop, retransmission and re-delivery —
// at ANY worker-thread count, while the RMI/rts guarantees (at-most-once,
// per-link FIFO, no invoke lost once connectivity returns) hold
// throughout.  The harness lives in tests/support/chaos_harness.hpp;
// bench_storm --chaos re-runs the same machinery at bench scale.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "rmi/envelope.hpp"
#include "rts/directory.hpp"
#include "rts/protocol.hpp"
#include "rts/server.hpp"
#include "support/chaos_harness.hpp"

namespace mage {
namespace {

namespace proto = rts::proto;
using testing::ChaosParams;
using testing::ChaosRun;
using testing::chaos_model;
using testing::random_fault_schedule;
using testing::run_chaos_storm;

// The acceptance seeds: three distinct chaos programs, each guaranteed to
// contain a loss burst, a partition/heal pair, and a crash/restart.
const std::uint64_t kSeeds[] = {0xA1, 0xB2C3, 0xDEADBEEF};

TEST(ChaosSchedule, EverySeedContainsTheMandatoryFaultKinds) {
  for (const std::uint64_t seed : kSeeds) {
    const net::FaultSchedule schedule =
        random_fault_schedule(seed, ChaosParams{});
    int loss_changes = 0, partitions = 0, heals = 0, crashes = 0,
        restarts = 0, link_losses = 0;
    for (const net::FaultEvent& e : schedule.events()) {
      switch (e.kind) {
        case net::FaultKind::LossRate: ++loss_changes; break;
        case net::FaultKind::Partition: ++partitions; break;
        case net::FaultKind::Heal: ++heals; break;
        case net::FaultKind::Crash: ++crashes; break;
        case net::FaultKind::Restart: ++restarts; break;
        case net::FaultKind::LinkLoss: ++link_losses; break;
      }
    }
    // A burst is a raise + a restore.
    EXPECT_GE(loss_changes, 2) << "seed " << seed;
    EXPECT_GE(partitions, 1) << "seed " << seed;
    EXPECT_EQ(heals, partitions) << "seed " << seed;
    EXPECT_EQ(crashes, 1) << "seed " << seed;
    EXPECT_EQ(restarts, 1) << "seed " << seed;
    EXPECT_EQ(link_losses, 0) << "seed " << seed;  // not generated
    // And the generator is itself deterministic.
    const net::FaultSchedule again =
        random_fault_schedule(seed, ChaosParams{});
    ASSERT_EQ(schedule.size(), again.size());
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      EXPECT_EQ(schedule.events()[i].at, again.events()[i].at);
      EXPECT_EQ(schedule.events()[i].kind, again.events()[i].kind);
    }
  }
}

// Asserts the semantic chaos properties on one run: liveness (everything
// completed, nothing failed), at-most-once via execution counters, FIFO
// via the wire self-check, and a fully applied schedule.
void expect_chaos_invariants(const ChaosRun& run, std::uint64_t seed,
                             int threads) {
  SCOPED_TRACE("seed " + std::to_string(seed) + ", threads " +
               std::to_string(threads));
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(run.failed_calls, 0);                // (d) nothing lost forever
  EXPECT_TRUE(run.every_invoke_exactly_once());  // (b) at-most-once + liveness
  EXPECT_EQ(run.fifo_violations, 0);             // (c) per-link FIFO
  EXPECT_EQ(run.evicted_reexecutions, 0);  // adequately sized reply cache
  EXPECT_EQ(run.pending_fault_events, 0);  // the whole program applied
  // The run was genuinely chaotic: scheduled faults dropped messages and
  // forced retransmissions that were then deduplicated.
  EXPECT_GT(run.faults_applied, 4);
  EXPECT_GT(run.messages_dropped_by_schedule, 0);
  EXPECT_GT(run.retransmissions, 0);
  EXPECT_GT(run.duplicates_suppressed, 0);
}

TEST(ChaosStorm, SeedReplaysBitIdenticallyAt1_2_8Workers) {
  for (const std::uint64_t seed : kSeeds) {
    const ChaosRun one = run_chaos_storm(seed, 1);
    const ChaosRun two = run_chaos_storm(seed, 2);
    const ChaosRun eight = run_chaos_storm(seed, 8);
    expect_chaos_invariants(one, seed, 1);
    expect_chaos_invariants(two, seed, 2);
    expect_chaos_invariants(eight, seed, 8);
    // (a) determinism: identical per-node digests (execution order AND
    // shard-local timestamps) at every worker count — the faults included.
    EXPECT_EQ(one.node_digests, two.node_digests) << "seed " << seed;
    EXPECT_EQ(one.node_digests, eight.node_digests) << "seed " << seed;
    // The whole counter picture replays too, not just the digests.
    EXPECT_EQ(one.retransmissions, two.retransmissions);
    EXPECT_EQ(one.retransmissions, eight.retransmissions);
    EXPECT_EQ(one.messages_dropped, two.messages_dropped);
    EXPECT_EQ(one.messages_dropped, eight.messages_dropped);
    EXPECT_EQ(one.duplicates_suppressed, eight.duplicates_suppressed);
  }
}

TEST(ChaosStorm, DifferentSeedsProduceDifferentChaos) {
  const ChaosRun a = run_chaos_storm(kSeeds[0], 2);
  const ChaosRun b = run_chaos_storm(kSeeds[1], 2);
  EXPECT_NE(a.node_digests, b.node_digests);
}

// The same workload + schedule on the single-queue driver engine: faults
// apply at exact times instead of window boundaries, but every semantic
// property must hold identically — single-threaded and sharded fault
// behavior are equivalent where it matters.
TEST(ChaosStorm, DriverEngineHoldsTheSameProperties) {
  for (const std::uint64_t seed : kSeeds) {
    const ChaosRun run = run_chaos_storm(seed, /*threads=*/0);
    expect_chaos_invariants(run, seed, 0);
  }
}

TEST(FaultSchedule, DriverModeAppliesEntriesAtExactTimes) {
  sim::Simulation sim(7);
  net::Network net(sim, chaos_model());
  const auto a = net.add_node("a");
  const auto b = net.add_node("b");

  net::FaultSchedule schedule;
  schedule.loss_burst(1'000, 0.5, 2'000);     // loss 0.5 in [1ms, 3ms)
  schedule.partition_for(2'000, a, b, 1'500); // cut in [2ms, 3.5ms)
  schedule.crash_for(4'000, b, 1'000);        // down in [4ms, 5ms)
  net.set_fault_schedule(std::move(schedule));
  EXPECT_EQ(net.pending_fault_events(), 6u);

  sim.run_until([&] { return false; }, 999);  // t < first entry
  EXPECT_EQ(net.pending_fault_events(), 6u);
  sim.run_until([&] { return false; }, 2'500);
  EXPECT_EQ(net.pending_fault_events(), 4u);  // burst start + partition in
  EXPECT_TRUE(net.node_down(b) == false);
  sim.run_until([&] { return false; }, 4'500);
  EXPECT_EQ(net.pending_fault_events(), 1u);  // only the restart left
  EXPECT_TRUE(net.node_down(b));
  sim.run_until([&] { return false; }, 6'000);
  EXPECT_EQ(net.pending_fault_events(), 0u);
  EXPECT_FALSE(net.node_down(b));
  // Every link transition bumped the epoch: the partition's cut and heal,
  // plus b's crash and restart (a restarted endpoint resets its wire_seq
  // counters, so the FIFO self-check re-anchors on the new epoch).
  EXPECT_EQ(net.link_epoch(a, b), 4);
  EXPECT_EQ(sim.stats().counter("net.faults_applied"), 6);
}

TEST(FaultSchedule, ValidatesItsInputs) {
  EXPECT_THROW(net::FaultSchedule().loss_rate(0, 1.5), common::MageError);
  EXPECT_THROW(net::FaultSchedule().loss_burst(0, -0.1, 100),
               common::MageError);
  EXPECT_THROW(net::FaultSchedule().partition(0, common::NodeId{1},
                                              common::NodeId{1}),
               common::MageError);
  EXPECT_THROW(net::FaultSchedule().crash_for(0, common::NodeId{1}, 0),
               common::MageError);

  // Entries naming nodes not on the network are rejected at install.
  sim::Simulation sim(7);
  net::Network net(sim, chaos_model());
  (void)net.add_node("only");
  net::FaultSchedule schedule;
  schedule.crash(10, common::NodeId{9});
  EXPECT_THROW(net.set_fault_schedule(std::move(schedule)),
               common::MageError);
}

TEST(FaultSchedule, ReplacedScheduleCancelsItsDriverAppliers) {
  sim::Simulation sim(7);
  net::Network net(sim, chaos_model());
  (void)net.add_node("a");
  (void)net.add_node("b");
  net::FaultSchedule first;
  first.loss_rate(1'000, 0.5);
  net.set_fault_schedule(std::move(first));
  net::FaultSchedule second;
  second.loss_rate(2'000, 0.25);
  net.set_fault_schedule(std::move(second));
  sim.run_for(5'000);
  // Only the replacement applied; the first schedule's appliers were
  // cancelled, not merely neutered.
  EXPECT_EQ(sim.stats().counter("net.faults_applied"), 1);
  EXPECT_EQ(net.pending_fault_events(), 0u);
}

TEST(FaultSchedule, NetworkTeardownCancelsDriverAppliers) {
  sim::Simulation sim(7);
  {
    net::Network net(sim, chaos_model());
    (void)net.add_node("a");
    net::FaultSchedule schedule;
    schedule.crash_for(1'000, common::NodeId{1}, 1'000);
    net.set_fault_schedule(std::move(schedule));
  }
  // The appliers captured the destroyed network; they must be gone
  // (use-after-free under ASan otherwise).
  sim.run_until_idle();
  SUCCEED();
}

TEST(FaultSchedule, TeardownLeavesANewerNetworksHookInstalled) {
  const net::CostModel model = chaos_model();
  sim::ShardedSim ssim(2, 7, net::Network::min_link_latency(model));
  auto old_net = std::make_unique<net::Network>(ssim, model);
  (void)old_net->add_node("a");
  net::FaultSchedule s1;
  s1.loss_rate(10, 0.1);
  old_net->set_fault_schedule(std::move(s1));

  auto new_net = std::make_unique<net::Network>(ssim, model);
  (void)new_net->add_node("a");
  net::FaultSchedule s2;
  s2.loss_rate(10, 0.2);
  new_net->set_fault_schedule(std::move(s2));

  // Destroying the old network must not disarm the hook the new one owns.
  old_net.reset();
  EXPECT_EQ(ssim.boundary_hook_owner(),
            static_cast<const void*>(new_net.get()));
  // And the new network's own teardown clears it.
  new_net.reset();
  EXPECT_EQ(ssim.boundary_hook_owner(), nullptr);
}

// Satellite fix: the ad-hoc fault mutators on a running sharded mesh must
// point at FaultSchedule, not a generic threading-contract error.
TEST(FaultSchedule, MidRunMutatorsPointAtFaultSchedule) {
  const net::CostModel model = chaos_model();
  sim::ShardedSim ssim(2, 7, net::Network::min_link_latency(model));
  net::Network net(ssim, model);
  const auto a = net.add_node("a");
  const auto b = net.add_node("b");

  for (int which = 0; which < 3; ++which) {
    ssim.shard(0).schedule_after(10, [&net, a, b, which] {
      if (which == 0) net.set_loss_rate(0.5);
      if (which == 1) net.set_partitioned(a, b, true);
      if (which == 2) net.set_node_down(b, true);
    });
    try {
      ssim.run_until_idle(2);
      FAIL() << "mutator " << which << " did not throw mid-run";
    } catch (const common::MageError& e) {
      EXPECT_NE(std::string(e.what()).find("FaultSchedule"),
                std::string::npos)
          << "mutator " << which << " error does not mention FaultSchedule: "
          << e.what();
    }
  }
  // Stopped again: ad-hoc mutation reopens.
  EXPECT_NO_THROW(net.set_loss_rate(0.0));
  EXPECT_NO_THROW(net.set_partitioned(a, b, false));
}

TEST(FaultSchedule, InstallIsFrozenMidRun) {
  const net::CostModel model = chaos_model();
  sim::ShardedSim ssim(2, 7, net::Network::min_link_latency(model));
  net::Network net(ssim, model);
  (void)net.add_node("a");
  (void)net.add_node("b");
  ssim.shard(0).schedule_after(10, [&net] {
    net.set_fault_schedule(net::FaultSchedule());
  });
  EXPECT_THROW(ssim.run_until_idle(2), common::MageError);
}

// Satellite: eviction-caused re-executions are surfaced as a dedicated
// counter.  A retransmission that arrives after its at-most-once entry was
// evicted from an undersized reply cache re-executes the service — the
// counter records exactly that, and nothing else.
TEST(Transport, EvictionCausedReexecutionIsCounted) {
  sim::Simulation sim(7);
  net::Network net(sim, chaos_model());
  const auto a = net.add_node("a");
  const auto b = net.add_node("b");
  rmi::Transport ta(net, a);
  // Capacity 1: the second request evicts the first's cached reply.
  rmi::Transport tb(net, b, /*reply_cache_capacity=*/1);

  int executions = 0;
  const common::VerbId verb = common::intern_verb("chaos.count");
  tb.register_service(verb, [&executions](common::NodeId,
                                          const serial::BufferChain&,
                                          rmi::Replier replier) {
    ++executions;
    replier.ok({});
  });

  (void)ta.call_sync(b, verb, {});  // request id 1: executes, cached
  (void)ta.call_sync(b, verb, {});  // request id 2: executes, evicts id 1
  EXPECT_EQ(executions, 2);
  EXPECT_EQ(sim.stats().counter("rmi.reply_cache_evictions"), 1);
  EXPECT_EQ(sim.stats().counter("rmi.evicted_reexecutions"), 0);

  // Hand-craft a retransmission of request 1 (its cache entry is gone).
  auto retransmit = [&](std::uint64_t request_id) {
    rmi::Envelope env;
    env.kind = rmi::EnvelopeKind::Request;
    env.request_id = common::RequestId{request_id};
    env.verb = verb;
    net.send(net::Message{a, b, verb, net::MsgKind::Request,
                          env.encode_header(), env.body});
    sim.run_until_idle();
  };
  retransmit(1);
  EXPECT_EQ(executions, 3);  // re-executed: at-most-once broken by eviction
  EXPECT_EQ(sim.stats().counter("rmi.evicted_reexecutions"), 1);

  // A duplicate whose entry is STILL cached is suppressed, not counted:
  // the re-execution just re-cached id 1, so another copy of it is
  // answered from the cache without touching the service or the counter.
  const auto dups_before = sim.stats().counter("rmi.duplicates_suppressed");
  retransmit(1);
  EXPECT_EQ(executions, 3);
  EXPECT_EQ(sim.stats().counter("rmi.evicted_reexecutions"), 1);
  EXPECT_GT(sim.stats().counter("rmi.duplicates_suppressed"), dups_before);
}

// --- rts layer: migration racing a scheduled partition ---------------------

constexpr common::SimDuration kWorkCostUs = 100;

class Session : public rts::MageObject {
 public:
  std::string class_name() const override { return "Session"; }
  void serialize(serial::Writer& w) const override { w.write_i64(served_); }
  void deserialize(serial::Reader& r) override { served_ = r.read_i64(); }
  std::int64_t work() { return ++served_; }

 private:
  std::int64_t served_ = 0;
};

struct RtsRaceResult {
  std::int64_t completions = 0;
  std::int64_t redirects = 0;
  std::int64_t migrations = 0;
  int copies = 0;
  bool on_destination = false;
  bool move_ok = false;

  bool operator==(const RtsRaceResult&) const = default;
};

// A `mage.move` n1 -> n2 races a scheduled partition of exactly that link
// while a generator on n4 keeps invoking the object, chasing Moved hints
// through the in-transit window.  After the heal the transfer's
// retransmission must land the object on n2 exactly once, with every
// invoke eventually served.
RtsRaceResult run_rts_partition_race(int threads) {
  const net::CostModel model = chaos_model();
  constexpr int kNodes = 4;
  constexpr std::int64_t kInvokes = 25;
  sim::ShardedSim ssim(kNodes, /*seed=*/0x5EED,
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
  for (int i = 0; i < kNodes; ++i) {
    transports.push_back(std::make_unique<rmi::Transport>(net, ids[i]));
    servers.push_back(
        std::make_unique<rts::MageServer>(*transports[i], world, directory));
    servers[i]->class_cache().install("Session");
  }

  rts::ComponentInfo info;
  info.name = "sess";
  info.class_name = "Session";
  info.home = ids[0];
  info.is_public = true;
  directory.announce(info);
  servers[0]->registry().bind("sess", world.instantiate("Session"));

  // The partition cuts exactly the migration's transfer link, before the
  // move is issued, and heals while the transfer is still retrying.
  net::FaultSchedule schedule;
  schedule.partition_for(1'000, ids[0], ids[1], 20'000);
  net.set_fault_schedule(std::move(schedule));

  // Generator on n4: windowed invokes chasing Moved hints (the client-stub
  // protocol, as in examples/storm_balancer.cpp).
  struct Gen {
    std::int64_t issued = 0;
    std::int64_t completed = 0;
    std::int64_t redirects = 0;
    common::NodeId believed;
  } gen;
  gen.believed = ids[0];
  std::function<void()> invoke_obj = [&] {
    proto::InvokeRequest request;
    request.name = "sess";
    request.method = "work";
    transports[3]->call(
        gen.believed, proto::verbs::kInvoke, request.encode(),
        [&](rmi::CallResult result) {
          if (!result.ok) {
            throw common::MageError("invoke transport failure: " +
                                    result.error);
          }
          auto reply = proto::InvokeReply::decode(result.body);
          if (reply.status == proto::Status::Moved &&
              reply.hint != common::kNoNode) {
            ++gen.redirects;
            gen.believed = reply.hint;
            invoke_obj();
            return;
          }
          if (reply.status != proto::Status::Ok) {
            ++gen.redirects;
            gen.believed = ids[0];  // chain lost mid-transfer: restart home
            invoke_obj();
            return;
          }
          ++gen.completed;
          if (gen.issued < kInvokes) {
            ++gen.issued;
            invoke_obj();
          }
        });
  };
  for (int w = 0; w < 2 && gen.issued < kInvokes; ++w) {
    ++gen.issued;
    invoke_obj();
  }

  // The racing move, issued from n3's shard 1.5ms in — inside the
  // partition window, so the n1 -> n2 transfer must survive the cut.
  bool move_done = false;
  bool move_ok = false;
  net.node_sim(ids[2]).schedule_at(1'500, [&] {
    proto::MoveRequest request;
    request.name = "sess";
    request.to = ids[1];
    transports[2]->call(ids[0], proto::verbs::kMove, request.encode(),
                        [&](rmi::CallResult r) {
                          move_done = true;
                          move_ok = r.ok;
                        });
  });

  const bool done = ssim.run_until(
      [&] {
        return move_done && gen.completed == kInvokes &&
               net.pending_fault_events() == 0;
      },
      threads, /*deadline=*/60'000'000);
  EXPECT_TRUE(done);

  RtsRaceResult result;
  result.completions = gen.completed;
  result.redirects = gen.redirects;
  result.migrations = ssim.counter("rts.migrations");
  for (int i = 0; i < kNodes; ++i) {
    if (servers[i]->registry().has_local("sess")) ++result.copies;
  }
  result.on_destination = servers[1]->registry().has_local("sess");
  result.move_ok = move_ok;
  return result;
}

TEST(ChaosRts, MigrationRacingAPartitionIsExactlyOnceAndDeterministic) {
  const RtsRaceResult one = run_rts_partition_race(1);
  const RtsRaceResult two = run_rts_partition_race(2);
  const RtsRaceResult four = run_rts_partition_race(4);

  // Exactly one live copy, on the move's destination, move acknowledged.
  EXPECT_EQ(one.copies, 1);
  EXPECT_TRUE(one.on_destination);
  EXPECT_TRUE(one.move_ok);
  EXPECT_EQ(one.migrations, 1);
  EXPECT_EQ(one.completions, 25);
  // The generator really chased hints through the in-transit window.
  EXPECT_GT(one.redirects, 0);
  // And the whole race replays identically at any worker count.
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
}

}  // namespace
}  // namespace mage
