// Replicated directory service ("directors") + its client.
//
// The static rts::Directory is deployment-time bootstrap: a table every
// node is born with.  It has no availability story — if a component's home
// crashes and its forwarding chain dies with it, a static entry pointing
// at the dead home is a dead end.  The director quorum is the
// high-availability layer on top:
//
//   * N director nodes each hold a full copy of the placement records
//     (name -> host @ epoch);
//   * one of them is leader (rts::Election, deterministic in sim time);
//   * writes (dir.announce) go to the leader, which applies and replicates
//     them to the followers (dir.replicate, fire-and-forget — epoch-fenced
//     records are idempotent, so replication needs no ordering or acks:
//     the highest epoch wins no matter the arrival order);
//   * reads (dir.resolve) are answered by ANY member from its local copy.
//     A follower's copy may trail the leader by an in-flight replication,
//     which the reader's own epoch fence detects (MageClient ignores
//     resolutions older than what it has already confirmed).
//
// A non-leader answers an announce with Moved + its leader hint, which
// DirectoryClient's failover sweep chases.  The whole subsystem is opt-in:
// nothing instantiates a Director unless the test/bench builds one, so
// existing deployments keep their pure static-directory behavior.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "common/ids.hpp"
#include "rmi/channel.hpp"
#include "rmi/transport.hpp"
#include "rts/election.hpp"
#include "rts/protocol.hpp"

namespace mage::rts {

// One member of the director quorum; lives on its own node's transport.
class Director {
 public:
  Director(rmi::Transport& transport, std::vector<common::NodeId> members,
           Election::Config config = {});

  Director(const Director&) = delete;
  Director& operator=(const Director&) = delete;

  // Registers the directory services and starts the election.  Call once,
  // before the simulation runs.
  void start();

  [[nodiscard]] Election& election() { return election_; }
  [[nodiscard]] common::NodeId self() const { return transport_.self(); }

  // Driver-side bootstrap: installs a record before the run starts (the
  // deployment-time equivalent of the static Directory's initial table).
  // Seed every member identically.
  void seed(const proto::PlacementRecord& record);

  [[nodiscard]] const std::map<common::ComponentName, proto::PlacementRecord>&
  records() const {
    return records_;
  }

 private:
  // Applies a record iff it is newer than what we hold; returns the epoch
  // now stored under that name.
  std::uint64_t apply(const proto::PlacementRecord& record);
  void replicate(const proto::PlacementRecord& record);
  void handle_announce(common::NodeId caller, const serial::BufferChain& body,
                       rmi::Replier replier);
  void handle_resolve(common::NodeId caller, const serial::BufferChain& body,
                      rmi::Replier replier);
  void handle_replicate(common::NodeId caller, const serial::BufferChain& body,
                        rmi::Replier replier);
  [[nodiscard]] sim::Simulation& sim();

  rmi::Transport& transport_;
  Election election_;
  std::map<common::ComponentName, proto::PlacementRecord> records_;
  std::int64_t* announces_;     // "rts.dir_announces"
  std::int64_t* resolves_;      // "rts.dir_resolves"
  std::int64_t* replications_;  // "rts.dir_replications"
};

// Client-side view of the quorum: resolve/announce with leader-chasing
// failover.  One per node that needs HA naming (wired into MageClient via
// set_directory_client, or used directly by benches/tests).
class DirectoryClient {
 public:
  struct Resolution {
    common::NodeId host = common::kNoNode;
    std::uint64_t epoch = 0;
  };

  // The sweep is driven by one rmi::CallPolicy (attempt timeout /
  // transmissions, rounds = max_retries + 1, inter-round backoff); the
  // default is the quorum preset that matches the legacy knobs exactly.
  DirectoryClient(rmi::Transport& transport,
                  std::vector<common::NodeId> directors,
                  rmi::CallPolicy policy = rmi::CallPolicy::quorum());

  // Asynchronous resolve: `done(resolution)` fires exactly once; nullopt
  // when no reachable member has a record (or the quorum is unreachable).
  void resolve(const common::ComponentName& name,
               std::function<void(std::optional<Resolution>)> done);

  // Asynchronous announce: `done(accepted)` fires exactly once.
  void announce(const proto::PlacementRecord& record,
                std::function<void(bool)> done);

  [[nodiscard]] common::NodeId known_leader() const {
    return channel_.preferred();
  }
  // Steers the next sweep (tests use this to start at a known-dead member;
  // normal operation learns the leader from replies).
  void set_preferred(common::NodeId node) { channel_.set_preferred(node); }
  [[nodiscard]] const rmi::CallPolicy& policy() const {
    return channel_.policy();
  }

 private:
  rmi::FailoverChannel channel_;
};

}  // namespace mage::rts
