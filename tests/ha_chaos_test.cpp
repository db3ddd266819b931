// High-availability control plane under chaos (ISSUE 6).
//
// The properties under test:
//
//   (a) deterministic election — a director quorum running term-based
//       leader election with seed-randomized timeouts elects the same
//       leaders, in the same terms, at ANY worker count, including under
//       scheduled director crashes;
//   (b) epoch-fenced hints — a stale Moved hint (left behind by a
//       crashed-and-restarted ex-home) is rejected by epoch comparison
//       instead of looping the forwarding chain;
//   (c) client failover — DirectoryClient resolves/announces against the
//       quorum across leader crashes, counting failovers;
//   (d) the full storm — generators race a migration against a partition
//       while every director (including each elected leader) crashes and
//       restarts; once quorum heals, every in-flight invoke completes
//       exactly once, the migration resolves via epoch-fenced hints, and
//       the whole run replays bit-identically at 1, 2, and 8 workers.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "rts/client.hpp"
#include "rts/director.hpp"
#include "rts/directory.hpp"
#include "rts/election.hpp"
#include "rts/protocol.hpp"
#include "rts/server.hpp"
#include "support/chaos_harness.hpp"

namespace mage {
namespace {

namespace proto = rts::proto;
using testing::chaos_model;

const std::uint64_t kSeeds[] = {0x7A11, 0xC0FFEE, 0x5EEDED};

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

std::int64_t served_count(rts::MageServer& server) {
  serial::Writer w;
  server.registry().local("sess").serialize(w);
  serial::Buffer bytes = w.take();
  serial::Reader r(bytes);
  return r.read_i64();
}

// --- (a) deterministic election ---------------------------------------------

struct ElectionRun {
  std::vector<std::uint64_t> terms;  // per director
  std::vector<int> roles;            // per director (0 F, 1 C, 2 L)
  std::uint32_t leader = 0;
  std::int64_t elections_held = 0;
  std::int64_t leader_changes = 0;

  bool operator==(const ElectionRun&) const = default;
};

ElectionRun run_election(std::uint64_t seed, int threads) {
  const net::CostModel model = chaos_model();
  constexpr int kNodes = 3;
  sim::ShardedSim ssim(kNodes, seed, net::Network::min_link_latency(model));
  net::Network net(ssim, model);

  std::vector<common::NodeId> ids;
  for (int i = 0; i < kNodes; ++i) {
    ids.push_back(net.add_node("d" + std::to_string(i)));
  }
  std::vector<std::unique_ptr<rmi::Transport>> transports;
  std::vector<std::unique_ptr<rts::Election>> elections;
  for (int i = 0; i < kNodes; ++i) {
    transports.push_back(std::make_unique<rmi::Transport>(net, ids[i]));
    elections.push_back(
        std::make_unique<rts::Election>(*transports[i], ids));
  }
  for (auto& e : elections) e->start();

  // One director crashes mid-reign and rejoins with a churned-up term,
  // which forces (at least) one re-election on top of the initial one.
  net::FaultSchedule schedule;
  schedule.crash_for(8'000, ids[0], 6'000);
  net.set_fault_schedule(std::move(schedule));

  // Snapshot once the cluster has had ample time to re-stabilize after the
  // rejoin (elections resolve in a few timeout spans).
  bool horizon_reached = false;
  net.node_sim(ids[1]).schedule_at(60'000, [&] { horizon_reached = true; });
  const bool done = ssim.run_until([&] { return horizon_reached; }, threads,
                                   /*deadline=*/120'000);
  EXPECT_TRUE(done);

  ElectionRun run;
  for (int i = 0; i < kNodes; ++i) {
    run.terms.push_back(elections[i]->term());
    run.roles.push_back(static_cast<int>(elections[i]->role()));
    if (elections[i]->is_leader()) run.leader = ids[i].value();
  }
  run.elections_held = ssim.counter("rts.elections_held");
  run.leader_changes = ssim.counter("rts.leader_changes");
  return run;
}

TEST(HaElection, ElectsOneLeaderAndReplaysAtAnyWorkerCount) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ElectionRun one = run_election(seed, 1);
    const ElectionRun two = run_election(seed, 2);
    const ElectionRun three = run_election(seed, 3);

    // Exactly one leader, every member settled on it, >= 2 elections
    // (initial + the crash/rejoin churn).
    int leaders = 0;
    for (int role : one.roles) {
      if (role == 2) ++leaders;
    }
    EXPECT_EQ(leaders, 1);
    EXPECT_NE(one.leader, 0u);
    EXPECT_GE(one.elections_held, 2);
    EXPECT_GE(one.leader_changes, 1);

    // Bit-identical replay: same terms, same roles, same leader, same
    // number of elections — at any worker count.
    EXPECT_EQ(one, two);
    EXPECT_EQ(one, three);
  }
}

// --- (b) stale hints are fenced, not chased ---------------------------------

TEST(HaEpochFence, StaleHintFromRestartedNodeIsRejectedNotLooped) {
  sim::Simulation sim(0x5EED);
  net::Network net(sim, chaos_model());

  rts::ClassWorld world;
  rts::ClassBuilder<Session>(world, "Session").method("work", &Session::work,
                                                      kWorkCostUs);
  rts::Directory directory;

  std::vector<common::NodeId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(net.add_node("n" + std::to_string(i)));
  }
  std::vector<std::unique_ptr<rmi::Transport>> transports;
  std::vector<std::unique_ptr<rts::MageServer>> servers;
  for (int i = 0; i < 4; ++i) {
    transports.push_back(std::make_unique<rmi::Transport>(net, ids[i]));
    servers.push_back(
        std::make_unique<rts::MageServer>(*transports[i], world, directory));
    servers[i]->class_cache().install("Session");
  }

  // The object's real, current placement: n1 at epoch 3.
  rts::ComponentInfo info;
  info.name = "sess";
  info.class_name = "Session";
  info.home = ids[0];
  info.is_public = true;
  directory.announce(info);
  servers[0]->registry().bind("sess", world.instantiate("Session"),
                              /*epoch=*/3);

  // Fossil forwarding knowledge from an earlier epoch: n3 -> n2 -> n3, a
  // cycle that predates the object's move back to n1.  n2 additionally
  // crashed and restarted since (losing any binding it ever had) — the
  // classic "dead ex-home resurrected by a stale chain" setup.
  EXPECT_TRUE(servers[2]->registry().update_forward("sess", ids[1], 1));
  EXPECT_TRUE(servers[1]->registry().update_forward("sess", ids[2], 1));
  net.set_node_down(ids[1], true);
  net.set_node_down(ids[1], false);

  // A client on n4 that has already confirmed epoch 3 starts its chase at
  // n3 (a maximally stale starting point).
  rts::MageClient client(*transports[3], *servers[3], directory, world,
                         common::ActivityId{1});
  client.note_epoch("sess", 3);
  common::NodeId cloc = ids[2];
  const auto result = client.invoke<std::int64_t>(cloc, "sess", "work");

  // n3's Moved hint (n2 @ epoch 1) was rejected by the fence; the client
  // fell back to a fresh find() via the static home and converged on n1 —
  // instead of ping-ponging n3 <-> n2 until the chase budget died.
  EXPECT_EQ(result, 1);
  EXPECT_EQ(cloc, ids[0]);
  EXPECT_GE(sim.stats().counter("rts.stale_hints_rejected"), 1);
  // Without the fence the loop is real: the fossil cycle is still there.
  EXPECT_EQ(servers[2]->registry().forward("sess"), ids[1]);
  EXPECT_EQ(servers[1]->registry().forward("sess"), ids[2]);
}

// And the server-side half: a lookup carrying a min_epoch fence is not
// answered from staler forwarding knowledge.
TEST(HaEpochFence, LookupRefusesForwardingKnowledgeBelowTheFence) {
  sim::Simulation sim(0x5EED);
  net::Network net(sim, chaos_model());

  rts::ClassWorld world;
  rts::ClassBuilder<Session>(world, "Session").method("work", &Session::work,
                                                      kWorkCostUs);
  rts::Directory directory;
  const auto n1 = net.add_node("n1");
  const auto n2 = net.add_node("n2");
  rmi::Transport t1(net, n1), t2(net, n2);
  rts::MageServer s1(t1, world, directory);
  rts::MageServer s2(t2, world, directory);
  (void)s2;

  EXPECT_TRUE(s1.registry().update_forward("sess", n2, /*epoch=*/1));

  proto::LookupRequest fenced;
  fenced.name = "sess";
  fenced.min_epoch = 5;
  auto reply = proto::LookupReply::decode(
      t2.call_sync(n1, proto::verbs::kLookup, fenced.encode()));
  EXPECT_EQ(reply.status, proto::Status::NotFound);

  // The same lookup without the fence happily walks the stale chain (and
  // dead-ends at n2, which has nothing — the legacy behavior).
  proto::LookupRequest unfenced;
  unfenced.name = "sess";
  auto legacy = proto::LookupReply::decode(
      t2.call_sync(n1, proto::verbs::kLookup, unfenced.encode()));
  EXPECT_EQ(legacy.status, proto::Status::NotFound);  // chain dead-ends
}

// --- (c) directory failover --------------------------------------------------

TEST(HaDirectory, ClientFailsOverAcrossALeaderCrash) {
  sim::Simulation sim(0xD1CE);
  net::Network net(sim, chaos_model());

  std::vector<common::NodeId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(net.add_node("n" + std::to_string(i)));
  }
  const std::vector<common::NodeId> members{ids[0], ids[1], ids[2]};
  std::vector<std::unique_ptr<rmi::Transport>> transports;
  for (int i = 0; i < 4; ++i) {
    transports.push_back(std::make_unique<rmi::Transport>(net, ids[i]));
  }
  std::vector<std::unique_ptr<rts::Director>> directors;
  for (int i = 0; i < 3; ++i) {
    directors.push_back(
        std::make_unique<rts::Director>(*transports[i], members));
  }
  for (auto& d : directors) d->start();

  auto leader_of = [&]() -> rts::Director* {
    for (auto& d : directors) {
      if (d->election().is_leader()) return d.get();
    }
    return nullptr;
  };
  sim.run_until([&] { return leader_of() != nullptr; }, 60'000);
  ASSERT_NE(leader_of(), nullptr);

  // The client's calls are asynchronous; drive the simulation until each
  // one settles.
  rts::DirectoryClient dclient(*transports[3], members);
  auto announce = [&](const proto::PlacementRecord& record) {
    std::optional<bool> accepted;
    dclient.announce(record, [&](bool ok) { accepted = ok; });
    sim.run_until([&] { return accepted.has_value(); });
    return accepted.value_or(false);
  };
  auto resolve = [&](const common::ComponentName& name) {
    bool settled = false;
    std::optional<rts::DirectoryClient::Resolution> resolution;
    dclient.resolve(name, [&](std::optional<rts::DirectoryClient::Resolution> r) {
      resolution = r;
      settled = true;
    });
    sim.run_until([&] { return settled; });
    return resolution;
  };

  // Announce through the quorum; the leader replicates to followers.
  ASSERT_TRUE(announce(
      proto::PlacementRecord{"obj", "Session", ids[3], true, 1}));
  sim.run_for(5'000);  // let replication land
  for (auto& d : directors) {
    ASSERT_TRUE(d->records().contains("obj"));
    EXPECT_EQ(d->records().at("obj").host, ids[3]);
  }

  // Crash the leader.  Resolve must fail over to a surviving member, and
  // the survivors must elect a replacement.
  rts::Director* old_leader = leader_of();
  const std::uint64_t old_term = old_leader->election().term();
  net.set_node_down(old_leader->self(), true);
  dclient.set_preferred(old_leader->self());  // force the sweep to start dead

  const auto resolved = resolve("obj");
  ASSERT_TRUE(resolved.has_value());
  EXPECT_EQ(resolved->host, ids[3]);
  EXPECT_EQ(resolved->epoch, 1u);
  EXPECT_GE(sim.stats().counter("rmi.directory_failovers"), 1);

  sim.run_until(
      [&] {
        rts::Director* l = leader_of();
        return l != nullptr && l != old_leader &&
               l->election().term() > old_term;
      },
      sim.now() + 120'000);
  rts::Director* new_leader = leader_of();
  ASSERT_NE(new_leader, nullptr);
  EXPECT_NE(new_leader, old_leader);

  // A fenced write keeps working against the new leader.
  EXPECT_TRUE(announce(
      proto::PlacementRecord{"obj", "Session", ids[1], true, 2}));
  const auto moved = resolve("obj");
  ASSERT_TRUE(moved.has_value());
  EXPECT_EQ(moved->host, ids[1]);
  EXPECT_EQ(moved->epoch, 2u);
  // And the failover latency counter accumulated simulated time.
  EXPECT_GT(sim.stats().counter("rmi.directory_failover_time_us"), 0);
}

// --- (d) the full storm -------------------------------------------------------

struct HaStormRun {
  bool completed = false;
  // Per generator node: FNV fold of every completion (status, value,
  // shard-local time) in completion order.
  std::vector<std::uint64_t> digests;
  std::int64_t ok_completions = 0;
  std::int64_t failed_calls = 0;
  std::int64_t served = 0;  // the object's own execution count
  std::int64_t migrations = 0;
  int copies = 0;
  bool on_destination = false;
  bool move_ok = false;
  bool announced = false;
  common::NodeId last_resolved_host = common::kNoNode;
  std::uint64_t last_resolved_epoch = 0;
  std::int64_t resolves_issued = 0;
  std::int64_t elections_held = 0;
  std::int64_t leader_changes = 0;
  std::int64_t directory_failovers = 0;
  std::int64_t dir_resolves = 0;
  std::int64_t fifo_violations = 0;
  std::int64_t link_loss_drops = 0;
  std::int64_t pending_fault_events = 0;

  bool replay_equal(const HaStormRun& other) const {
    return digests == other.digests &&
           ok_completions == other.ok_completions && served == other.served &&
           migrations == other.migrations &&
           last_resolved_host == other.last_resolved_host &&
           last_resolved_epoch == other.last_resolved_epoch &&
           elections_held == other.elections_held &&
           leader_changes == other.leader_changes &&
           directory_failovers == other.directory_failovers &&
           link_loss_drops == other.link_loss_drops;
  }
};

// 8 nodes: directors on 0-2, the object's home on 3, migration target 4,
// generators on 5-7.  A move 3 -> 4 is issued inside a 19ms partition of
// exactly that link, while the directors take rolling crashes (at most one
// down at a time — quorum always exists; every director, hence every
// leader, crashes at some point) and one generator link runs 30% loss.
HaStormRun run_ha_storm(std::uint64_t seed, int threads) {
  const net::CostModel model = chaos_model();
  constexpr int kNodes = 8;
  constexpr std::int64_t kInvokesPerGen = 25;
  sim::ShardedSim ssim(kNodes, seed, net::Network::min_link_latency(model));
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

  const std::vector<common::NodeId> members{ids[0], ids[1], ids[2]};
  std::vector<std::unique_ptr<rts::Director>> directors;
  for (int i = 0; i < 3; ++i) {
    directors.push_back(
        std::make_unique<rts::Director>(*transports[i], members));
  }

  // Deployment bootstrap: the object starts on n3 at epoch 1, known to the
  // static directory AND pre-seeded into every director replica.
  rts::ComponentInfo info;
  info.name = "sess";
  info.class_name = "Session";
  info.home = ids[3];
  info.is_public = true;
  directory.announce(info);
  servers[3]->registry().bind("sess", world.instantiate("Session"));
  for (auto& d : directors) {
    d->seed(proto::PlacementRecord{"sess", "Session", ids[3], true, 1});
  }
  for (auto& d : directors) d->start();

  // The chaos program.  Rolling director crashes: 0 down in [2,7)ms,
  // 1 down in [9,14)ms, 2 down in [16,21)ms — never two at once, so a
  // two-member quorum always exists.  The partition cuts exactly the
  // migration link for 19ms.  The loss burst pounds one generator's path.
  net::FaultSchedule schedule;
  schedule.crash_for(2'000, ids[0], 5'000);
  schedule.crash_for(9'000, ids[1], 5'000);
  schedule.crash_for(16'000, ids[2], 5'000);
  schedule.partition_for(1'000, ids[3], ids[4], 19'000);
  // Satellite 1 exercised on a guaranteed-busy directed link: the mover
  // (n6) retransmits its pending kMove to n3 every 3ms for the whole
  // partition, so this 90% burst provably draws — and drops — per-link
  // loss decisions without touching any other path.
  schedule.link_loss_burst(22'000, ids[6], ids[3], 0.90, 12'000);
  net.set_fifo_checks(true);
  net.set_fault_schedule(std::move(schedule));

  // Generous retry budgets: the partition lasts 19 simulated ms.
  rmi::CallOptions storm_options;
  storm_options.retry_timeout_us = 3'000;
  storm_options.max_attempts = 64;

  // Generators on n5-n7: sequential invokes chasing the object with
  // client-side epoch fencing, falling back to an async directory resolve
  // when the chase dead-ends.
  struct Gen {
    rmi::Transport* transport = nullptr;
    std::unique_ptr<rts::DirectoryClient> dclient;
    sim::Simulation* sim = nullptr;
    common::NodeId believed;
    std::uint64_t known_epoch = 1;
    std::int64_t completed = 0;
    std::int64_t failed = 0;
    std::uint64_t digest = 0xcbf29ce484222325ull;
    std::function<void()> invoke;
    std::function<void()> refind;
  };
  std::vector<std::unique_ptr<Gen>> gens;
  for (int g = 5; g < 8; ++g) {
    auto gen = std::make_unique<Gen>();
    gen->transport = transports[g].get();
    gen->dclient =
        std::make_unique<rts::DirectoryClient>(*transports[g], members);
    gen->sim = &net.node_sim(ids[g]);
    gen->believed = ids[3];
    Gen* gp = gen.get();
    gp->invoke = [gp, &ids, storm_options] {
      if (gp->completed >= kInvokesPerGen) return;
      proto::InvokeRequest request;
      request.name = "sess";
      request.method = "work";
      gp->transport->call(
          gp->believed, proto::verbs::kInvoke, request.encode(),
          [gp, &ids](rmi::CallResult result) {
            using testing::chaos_detail::fold;
            if (!result.ok) {
              // Object hosts never crash in this schedule; a transport
              // failure would be a liveness bug.  Count and stop.
              ++gp->failed;
              return;
            }
            const auto reply = proto::InvokeReply::decode(result.body);
            gp->digest =
                fold(fold(fold(gp->digest,
                               static_cast<std::uint64_t>(reply.status)),
                          static_cast<std::uint64_t>(
                              reply.status == proto::Status::Ok
                                  ? serial::Reader(reply.result).read_i64()
                                  : 0)),
                     static_cast<std::uint64_t>(gp->sim->now()));
            if (reply.status == proto::Status::Ok) {
              ++gp->completed;
              gp->invoke();
              return;
            }
            if (reply.status == proto::Status::Moved &&
                reply.hint != common::kNoNode &&
                (reply.hint_epoch == 0 ||
                 reply.hint_epoch >= gp->known_epoch)) {
              if (reply.hint_epoch > gp->known_epoch) {
                gp->known_epoch = reply.hint_epoch;
              }
              gp->believed = reply.hint;
              gp->invoke();
              return;
            }
            // Stale hint or NotFound: ask the director quorum, backing
            // off so the in-transit window does not spin the wires.
            gp->refind();
          },
          storm_options);
    };
    gp->refind = [gp, &ids] {
      gp->sim->schedule_after(
          2'000,
          [gp, &ids] {
            gp->dclient->resolve(
                "sess", [gp, &ids](
                            std::optional<rts::DirectoryClient::Resolution> r) {
                  if (r.has_value() && r->epoch >= gp->known_epoch) {
                    gp->known_epoch = r->epoch;
                    gp->believed = r->host;
                  } else if (!r.has_value()) {
                    gp->believed = ids[3];  // static home as last resort
                  }
                  gp->invoke();
                });
          },
          sim::Wake::No);
    };
    gens.push_back(std::move(gen));
  }

  // The racing move, issued from n6's shard 1.5ms in — inside the
  // partition window.  On Ok the mover announces the new placement (with
  // the epoch the move minted) to the director quorum.
  bool move_done = false, move_ok = false, announced = false;
  auto mover_dclient =
      std::make_unique<rts::DirectoryClient>(*transports[6], members);
  net.node_sim(ids[6]).schedule_at(1'500, [&] {
    proto::MoveRequest request;
    request.name = "sess";
    request.to = ids[4];
    transports[6]->call(
        ids[3], proto::verbs::kMove, request.encode(),
        [&](rmi::CallResult r) {
          move_done = true;
          if (!r.ok) return;
          const auto reply = proto::SimpleReply::decode(r.body);
          move_ok = reply.status == proto::Status::Ok;
          if (!move_ok) return;
          mover_dclient->announce(
              proto::PlacementRecord{"sess", "Session", ids[4], true,
                                     reply.hint_epoch},
              [&](bool ok) { announced = ok; });
        },
        storm_options);
  });

  // A control-plane prober on n7: resolves "sess" every 2ms, from before
  // the first director crash until it has observed the announced epoch-2
  // placement.  With rolling director crashes its preferred member is
  // periodically dead, so the failover path is exercised deterministically
  // (the very first crash window catches its preferred member).
  struct Prober {
    std::unique_ptr<rts::DirectoryClient> dclient;
    common::NodeId last_host = common::kNoNode;
    std::uint64_t last_epoch = 0;
    std::int64_t issued = 0;
    bool done = false;
    std::function<void()> probe;
  } prober;
  prober.dclient = std::make_unique<rts::DirectoryClient>(*transports[7],
                                                          members);
  auto& probe_sim = net.node_sim(ids[7]);
  prober.probe = [&prober, &probe_sim, &announced] {
    ++prober.issued;
    prober.dclient->resolve(
        "sess",
        [&prober, &probe_sim,
         &announced](std::optional<rts::DirectoryClient::Resolution> r) {
          // Reader-side fence: a follower that rejoined after missing a
          // replication may still answer with the older epoch; placement
          // knowledge only moves forward.
          if (r.has_value() && r->epoch >= prober.last_epoch) {
            prober.last_host = r->host;
            prober.last_epoch = r->epoch;
          }
          if (announced && prober.last_epoch >= 2) {
            prober.done = true;
            return;
          }
          probe_sim.schedule_after(2'000, prober.probe, sim::Wake::No);
        });
  };
  probe_sim.schedule_at(500, [&prober] { prober.probe(); }, sim::Wake::No);

  for (auto& gen : gens) gen->invoke();

  auto done = [&] {
    std::int64_t total = 0;
    for (auto& gen : gens) total += gen->completed + gen->failed;
    return total == 3 * kInvokesPerGen && move_done && announced &&
           prober.done && net.pending_fault_events() == 0;
  };
  HaStormRun run;
  run.completed = ssim.run_until(done, threads, /*deadline=*/60'000'000);

  for (auto& gen : gens) {
    run.digests.push_back(gen->digest);
    run.ok_completions += gen->completed;
    run.failed_calls += gen->failed;
  }
  // The data-plane completion stream alone can be seed-insensitive (the
  // migration pins its timeline to the fault schedule), so fold the
  // control plane's seed-driven trajectory — election terms and counts —
  // into every digest.  Replays at different worker counts still match
  // because elections are deterministic per seed.
  for (auto& digest : run.digests) {
    using testing::chaos_detail::fold;
    digest = fold(digest, static_cast<std::uint64_t>(
                              ssim.counter("rts.elections_held")));
    for (auto& d : directors) digest = fold(digest, d->election().term());
  }
  run.migrations = ssim.counter("rts.migrations");
  for (int i = 0; i < kNodes; ++i) {
    if (servers[i]->registry().has_local("sess")) ++run.copies;
  }
  run.on_destination = servers[4]->registry().has_local("sess");
  if (run.on_destination) run.served = served_count(*servers[4]);
  run.move_ok = move_ok;
  run.announced = announced;
  run.last_resolved_host = prober.last_host;
  run.last_resolved_epoch = prober.last_epoch;
  run.resolves_issued = prober.issued;
  run.elections_held = ssim.counter("rts.elections_held");
  run.leader_changes = ssim.counter("rts.leader_changes");
  run.directory_failovers = ssim.counter("rmi.directory_failovers");
  run.dir_resolves = ssim.counter("rts.dir_resolves");
  run.fifo_violations = ssim.counter("net.fifo_violations");
  run.link_loss_drops = ssim.counter("net.messages_dropped_by_link_loss");
  run.pending_fault_events =
      static_cast<std::int64_t>(net.pending_fault_events());
  return run;
}

void expect_ha_invariants(const HaStormRun& run, std::uint64_t seed,
                          int threads) {
  SCOPED_TRACE("seed " + std::to_string(seed) + ", threads " +
               std::to_string(threads));
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(run.failed_calls, 0);
  EXPECT_EQ(run.ok_completions, 75);
  // Exactly-once: the object's own execution count equals the number of
  // acknowledged invokes — nothing lost, nothing double-executed, across
  // the migration AND the reply-path retransmissions.
  EXPECT_EQ(run.served, run.ok_completions);
  // The migration resolved: one live copy, on the destination, exactly one
  // transfer, and the quorum ended up knowing the fenced placement.
  EXPECT_EQ(run.copies, 1);
  EXPECT_TRUE(run.on_destination);
  EXPECT_TRUE(run.move_ok);
  EXPECT_EQ(run.migrations, 1);
  EXPECT_TRUE(run.announced);
  EXPECT_EQ(run.last_resolved_host.value(), 5u);  // ids[4] is node 5
  EXPECT_EQ(run.last_resolved_epoch, 2u);
  // The control plane was genuinely chaotic and genuinely highly
  // available: every director (so every leader) crashed, forcing
  // re-elections and client failovers, yet every probe that completed
  // before the horizon got an answer.
  EXPECT_GE(run.elections_held, 2);
  EXPECT_GE(run.leader_changes, 2);
  EXPECT_GE(run.directory_failovers, 1);
  EXPECT_GE(run.dir_resolves, 1);
  EXPECT_GT(run.resolves_issued, 5);
  // Satellite proofs riding along: per-link loss actually dropped traffic,
  // and the wire-FIFO self-check survived the crash/restart epochs.
  EXPECT_GT(run.link_loss_drops, 0);
  EXPECT_EQ(run.fifo_violations, 0);
  EXPECT_EQ(run.pending_fault_events, 0);
}

TEST(HaChaosStorm, FailoverStormReplaysBitIdenticallyAt1_2_8Workers) {
  for (const std::uint64_t seed : kSeeds) {
    const HaStormRun one = run_ha_storm(seed, 1);
    const HaStormRun two = run_ha_storm(seed, 2);
    const HaStormRun eight = run_ha_storm(seed, 8);
    expect_ha_invariants(one, seed, 1);
    expect_ha_invariants(two, seed, 2);
    expect_ha_invariants(eight, seed, 8);
    EXPECT_TRUE(one.replay_equal(two)) << "seed " << seed;
    EXPECT_TRUE(one.replay_equal(eight)) << "seed " << seed;
  }
}

TEST(HaChaosStorm, DifferentSeedsProduceDifferentStorms) {
  const HaStormRun a = run_ha_storm(kSeeds[0], 2);
  const HaStormRun b = run_ha_storm(kSeeds[1], 2);
  EXPECT_NE(a.digests, b.digests);
}

}  // namespace
}  // namespace mage
