// Simulated network connecting MAGE namespaces.
//
// Responsibilities:
//   * node table: each cooperating VM registers and installs a message
//     handler (the MAGE server's dispatch entry point);
//   * delivery timing from the CostModel: propagation + serialization onto
//     a shared-medium wire + receive CPU, plus one-time connection setup
//     per directed link, the reverse direction warmed by the first
//     delivery (models TCP/RMI handshake and connection reuse, and explains
//     the paper's cold-vs-warm split in Table 3);
//   * in-order delivery per directed link (TCP semantics);
//   * fault injection: IID message loss, per-link partitions and node
//     crashes, used by the at-most-once RMI tests ("protocols must recover
//     from message loss", Section 4.3) — mutable ad-hoc while stopped, or
//     mid-run through a scheduled net::FaultSchedule applied atomically at
//     sharded window boundaries (see net/fault_schedule.hpp);
//   * tracing: optional per-message trace that benches turn into the
//     paper's protocol figures;
//   * a per-node load metric for load-directed mobility policies
//     (the paper's `cloc.getLoad()`).
//
// Engines.  A Network runs with one semantics over the driver engine (one
// sim::Simulation shared by every node) or the sharded engine (a
// sim::ShardedSim, each node on the shard the node:shard mapping assigns
// it: identity by default, or an affinity mapping that clusters chatty
// nodes, see net/affinity.hpp).  Internally both are contexts (the
// simulations nodes run on) plus a node:context mapping; the driver engine
// is one context holding every node.  Same-context delivery is scheduled
// straight into the shared queue; cross-context delivery is posted through
// the shard-pair mailbox, never faster than the pair's lookahead matrix
// entry (see refresh_pair_lookaheads).  Every node-side random draw comes
// from the node's own stream (node_rng), connection warmth is per directed
// link and node-owned, and deliveries carry their source node id as the
// event-queue tie key, so each node's event order and timestamps are
// identical on both engines, under any mapping and at any worker count.
// Only how each engine is driven differs:
//   * fault-schedule application: exact-time events vs window boundaries;
//   * set_tracing: driver engine only (workers would interleave the trace);
//   * simulation(): the driver engine's Simulation; throws when sharded.
// The threading contract in sharded mode (enforced, not advisory): all
// configuration — adding nodes, handlers, fault injection, tracing — is
// driver-only and throws while workers run; per-node state (counters,
// connection warmth, ordering floors, the node's random stream, the load
// metric) is only ever touched from the owning node's shard.  See
// docs/ARCHITECTURE.md.
#pragma once

#include <cassert>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "net/cost_model.hpp"
#include "net/fault_schedule.hpp"
#include "net/message.hpp"
#include "sim/sharded.hpp"
#include "sim/simulation.hpp"

namespace mage::net {

class Network {
 public:
  using Handler = std::function<void(Message)>;

  // Driver mode: all nodes share `sim`.
  Network(sim::Simulation& sim, CostModel model);

  // Sharded mode.  `node_to_shard` maps node i (the i-th add_node, NodeId
  // i+1) to its shard; at most node_to_shard.size() nodes may be added.
  // Empty (the default) means the identity mapping — node i on shard i,
  // capacity sharded.shard_count().  Build a clustering mapping with
  // net::affinity_mapping().  Requires the model's minimum cross-node
  // delay to cover the sharded base lookahead (checked at construction).
  Network(sim::ShardedSim& sharded, CostModel model,
          std::vector<std::size_t> node_to_shard = {});

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Uninstalls this network's ShardedSim boundary hook, if one was set.
  ~Network();

  // --- topology -------------------------------------------------------

  // Adds a namespace/VM to the federation; label is for traces only.
  common::NodeId add_node(std::string label);

  void set_handler(common::NodeId node, Handler handler);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] const std::string& label(common::NodeId node) const;
  [[nodiscard]] std::vector<common::NodeId> node_ids() const;

  // --- traffic ----------------------------------------------------------

  // Sends msg; delivery is scheduled on the simulation.  A message to the
  // sender's own node is delivered after local_invoke_us with no wire cost
  // and is never dropped (loopback).  In sharded mode this must run on the
  // sending node's shard (true by construction: sends originate from
  // transports, whose events run on their own shard).
  void send(Message msg);

  // The node's own random stream, a function of the run seed and the node
  // id only: loss decisions for its sends, channel backoff jitter and
  // core::RandomPolicy draw from it.  (A context's sim().rng(), which
  // election timeouts use, is per context, not per node.)  Touch only from
  // the node's own context, or from the driver while stopped.
  [[nodiscard]] common::Rng& node_rng(common::NodeId node) {
    return state(node).rng;
  }

  // --- fault injection --------------------------------------------------
  //
  // The ad-hoc mutators below are driver-only and frozen while sharded
  // workers run (they throw, pointing at FaultSchedule).  To change faults
  // MID-RUN, install a FaultSchedule: the network applies its entries
  // atomically — at each entry's exact time in driver mode, at window
  // boundaries (workers parked) in sharded mode — so one seed replays the
  // whole chaos run bit-identically at any worker count.

  // IID probability that a non-loopback message is dropped in flight.
  void set_loss_rate(double p);

  // IID loss probability for the DIRECTED link from -> to, layered on top
  // of the global rate (a message must survive both draws).  0 removes the
  // per-link rate.
  void set_link_loss_rate(common::NodeId from, common::NodeId to, double p);
  [[nodiscard]] double link_loss_rate(common::NodeId from,
                                      common::NodeId to) const;

  // Provenance: messages dropped by the per-link loss rate on the directed
  // link from -> to.  Driver-only read (while stopped) in sharded mode.
  [[nodiscard]] std::int64_t link_loss_drops(common::NodeId from,
                                             common::NodeId to) const;

  // Cuts / restores both directions between a and b.
  void set_partitioned(common::NodeId a, common::NodeId b, bool partitioned);

  // Crashes / restarts a node: while down, every message to or from it is
  // dropped (its hosted objects are lost to the federation until restart —
  // MAGE has no replication; callers see timeouts and forwarding chains
  // pointing into the void).
  void set_node_down(common::NodeId node, bool down);
  [[nodiscard]] bool node_down(common::NodeId node) const;

  // Installs `schedule` (replacing any previous one, applied or not).
  // Driver-only while stopped; entries referencing unknown nodes throw.
  // Applied-by-schedule faults are additionally accounted in the
  // "net.faults_applied" counter (driver registry / shard 0) and drops
  // they cause in the per-node "net.messages_dropped_by_schedule".
  void set_fault_schedule(FaultSchedule schedule);

  // Entries not yet applied (introspection for tests/benches).
  [[nodiscard]] std::size_t pending_fault_events() const {
    return fault_events_.size() - next_fault_;
  }

  // Number of transitions applied to the (a, b) link, by schedule or
  // ad-hoc mutator — each cut and each heal bumps the epoch, as does each
  // crash and each restart of either endpoint (a restarted node's wire
  // state is gone, so its links are new incarnations).  Driver-only read
  // (while stopped) in sharded mode.
  [[nodiscard]] std::int64_t link_epoch(common::NodeId a,
                                        common::NodeId b) const;

  // Wire-FIFO self-check: when enabled, every non-loopback message is
  // stamped with a per-directed-link sequence number at send (sender-owned
  // state) and verified monotonic at delivery (receiver-owned state);
  // violations bump the receiver's "net.fifo_violations" counter.  Off by
  // default (two map touches per message); the chaos harness turns it on
  // to assert per-link FIFO holds across partition heals.  Driver-only.
  void set_fifo_checks(bool on);
  [[nodiscard]] bool fifo_checks() const { return fifo_checks_; }

  // Extra one-way latency for a directed link (e.g. a WAN hop).  Throws on
  // a negative value: it would schedule deliveries into the past (and
  // undercut the sharded engine's conservative lookahead).
  void set_extra_latency(common::NodeId from, common::NodeId to,
                         common::SimDuration extra);

  // --- load metric --------------------------------------------------------

  // Contract: in sharded mode, call from the driver while stopped or from
  // the owning node's shard; reading another node's load mid-run is what
  // the `mage.get_load` RMI verb is for.
  void set_load(common::NodeId node, double load);
  [[nodiscard]] double load(common::NodeId node) const;

  // --- administrative domains ------------------------------------------------

  // Assigns the node to a named administrative domain (Section 7's WAN
  // vision: "competing and disjoint administrative domains").  Empty by
  // default; access-control policies may key on it.
  void set_domain(common::NodeId node, std::string domain);
  [[nodiscard]] const std::string& domain(common::NodeId node) const;

  // --- introspection -----------------------------------------------------

  [[nodiscard]] const CostModel& cost_model() const { return model_; }

  // Driver mode only (the trace is a single ordered stream; sharded
  // workers would interleave it): throws in sharded mode.
  void set_tracing(bool enabled);
  [[nodiscard]] const std::vector<TraceEntry>& trace() const { return trace_; }
  void clear_trace() { trace_.clear(); }

  // Forgets all warm connections, so the next message on every pair pays
  // connection setup again (benches use this between "single" runs).
  void reset_connections();

  // The driver simulation; throws in sharded mode (there is no single
  // universe — use node_sim()).
  [[nodiscard]] sim::Simulation& simulation();

  // The simulation context a node's events run on: the shared driver sim
  // in driver mode, the node's shard in sharded mode.
  [[nodiscard]] sim::Simulation& node_sim(common::NodeId node) {
    return *contexts_[shard_of(node)];
  }

  [[nodiscard]] bool is_sharded() const { return sharded_ != nullptr; }

  // The context (shard) a node's events run on; always 0 on the driver
  // engine.
  [[nodiscard]] std::size_t shard_of(common::NodeId node) const {
    assert(node.value() >= 1 && node.value() <= nodes_.size());
    return shard_map_[node.value() - 1];
  }

  // Recomputes the ShardedSim pair-lookahead matrix from the cost model,
  // the per-link extra latencies and the node:shard mapping: entry (p, q)
  // becomes the minimum delay any message from a node on p to a node on q
  // can experience (min_link_latency + the smallest extra latency among
  // those directed links).  Call after configuring extra latencies and
  // before running; ends by validating the installed matrix (below).
  // Driver-only; a no-op on one context (the driver engine has no
  // cross-context links).
  void refresh_pair_lookaheads();

  // Checks the installed matrix against this network: every entry must be
  // >= 1 simulated microsecond and no cross-shard directed link may be
  // able to deliver faster than its shard pair's entry claims — a matrix
  // that over-promises would make ShardedSim::post throw mid-window (or,
  // unchecked, corrupt the conservative bound).  Throws naming the
  // offending link.  Driver-only; a no-op on one context.
  void validate_pair_lookaheads() const;

  // The minimum delay any cross-node message can experience under `model`
  // — the conservative lookahead a ShardedSim driving this network must
  // use.  (Connection setup, wire time, extra link latency and ordering
  // floors only ever add on top.)
  [[nodiscard]] static common::SimDuration min_link_latency(
      const CostModel& model) {
    return model.propagation_us + model.per_message_cpu_us;
  }

 private:
  struct NodeState {
    std::string label;
    Handler handler;
    double load = 0.0;
    std::string domain;
    bool down = false;
    // Per TCP ordering: no message on a directed link may be delivered
    // before one sent earlier on the same link.  Owned by the SENDER (only
    // sends on the (this, to) link ever touch floor[to]), which is what
    // lets sharded workers apply floors without touching foreign state.
    std::map<common::NodeId, common::SimTime> earliest_delivery_to;
    // Directed warm links: a send on a cold link pays connection setup and
    // warms it; a delivery warms the reverse link, so a reply rides its
    // request's connection.  Only the owning node writes it.
    std::set<common::NodeId> warm_to;
    // Crash state: `down` is the effective flag; `down_by_schedule` records
    // whether the current down state was installed by the fault schedule
    // (provenance for the messages_dropped_by_schedule counter).
    bool down_by_schedule = false;
    // Wire-FIFO self-check state (only touched when fifo_checks_ is on):
    // next_wire_seq_to is sender-owned, last_wire_seq_from receiver-owned —
    // same shard-ownership split as the ordering floors.
    std::map<common::NodeId, std::uint64_t> next_wire_seq_to;
    std::map<common::NodeId, std::uint64_t> last_wire_seq_from;
    // Link epoch the receiver last saw per sender; a change resets the
    // expected wire_seq (the peer's counters restarted across a crash).
    std::map<common::NodeId, std::int64_t> last_wire_epoch_from;
    // Per-link loss provenance, sender-owned (plain ints, not registry
    // counters: the key space is dynamic).
    std::map<common::NodeId, std::int64_t> link_loss_drops_to;
    // The node's own random stream (node_rng): a function of the run seed
    // and the node id, never of the engine or the shard, so co-located
    // nodes never braid their draws together.
    common::Rng rng{0};
    // Hot-path counters, resolved from the node's own stats registry at
    // add_node (per-shard registries in sharded mode; all handles alias
    // the same slots in driver mode).
    std::int64_t* messages_sent = nullptr;
    std::int64_t* bytes_sent = nullptr;
    std::int64_t* messages_dropped = nullptr;
    std::int64_t* messages_delivered = nullptr;
    std::int64_t* connections_opened = nullptr;
    std::int64_t* messages_dropped_by_schedule = nullptr;
    std::int64_t* messages_dropped_by_link_loss = nullptr;
    std::int64_t* fifo_violations = nullptr;
  };

  [[nodiscard]] NodeState& state(common::NodeId node);
  [[nodiscard]] const NodeState& state(common::NodeId node) const;

  // Calls fn(a, b, delay) for every directed link between nodes on
  // different contexts (none on the driver engine), `delay` being the
  // fastest delivery the link can make.
  void for_each_cross_context_link(
      const std::function<void(std::uint32_t, std::uint32_t,
                               common::SimDuration)>& fn) const;

  // Throws while sharded workers run: all global configuration is frozen.
  void require_config_window(const char* what) const;
  // Same freeze, but for the ad-hoc fault mutators: the error points at
  // FaultSchedule, the supported way to mutate faults mid-run.
  void require_fault_window(const char* what) const;

  // Applies every schedule entry with at <= now, in order.  Driver mode:
  // runs as ordinary simulation events.  Sharded mode: runs as the
  // ShardedSim boundary hook, every worker parked.
  void apply_due_faults(common::SimTime now);
  void apply_fault(const FaultEvent& event);
  // Crash/restart epoch discipline: every link incident to `node` becomes a
  // new incarnation, and the node's own wire-FIFO state is forgotten (a
  // fresh process restarts its sequence counters).
  void on_node_transition(common::NodeId node);
  // Cancels driver-mode applier events that have not fired yet.
  void cancel_fault_appliers();

  sim::Simulation* driver_sim_ = nullptr;
  sim::ShardedSim* sharded_ = nullptr;
  CostModel model_;
  // The simulations nodes run on: the driver sim alone, or every shard.
  std::vector<sim::Simulation*> contexts_;
  // shard_map_[i] is node i+1's context.  Sharded: identity unless a
  // mapping was passed at construction.  Driver: grows by one 0 per node.
  std::vector<std::size_t> shard_map_;
  // Node capacity: the sharded mapping's size; unbounded on the driver.
  std::size_t capacity_ = 0;
  // Run seed the per-node streams derive from.
  std::uint64_t seed_ = 0;
  std::vector<NodeState> nodes_;
  std::set<std::pair<common::NodeId, common::NodeId>> partitions_;
  std::map<std::pair<common::NodeId, common::NodeId>, common::SimDuration>
      extra_latency_;
  double loss_rate_ = 0.0;
  // Per-directed-link loss rates.  Mutated only from the driver while
  // stopped or at window boundaries (workers parked); read from sender
  // shards mid-run — same discipline as partitions_.
  std::map<std::pair<common::NodeId, common::NodeId>, double> link_loss_;
  bool tracing_ = false;
  std::vector<TraceEntry> trace_;

  // --- scheduled fault state ------------------------------------------------
  std::vector<FaultEvent> fault_events_;  // sorted; applied prefix < next_fault_
  std::size_t next_fault_ = 0;
  // Driver mode: pending applier events, cancelled on schedule replacement
  // and in the destructor (they capture `this`).
  std::vector<sim::EventId> fault_applier_events_;
  bool hook_installed_ = false;
  // Provenance: was the current loss rate / this partition / this crash
  // installed by the schedule?  Drops they cause are double-counted into
  // messages_dropped_by_schedule.
  bool loss_from_schedule_ = false;
  std::set<std::pair<common::NodeId, common::NodeId>> scheduled_partitions_;
  // Directed links whose current per-link loss rate came from the schedule.
  std::set<std::pair<common::NodeId, common::NodeId>> scheduled_link_loss_;
  // Link-transition count per unordered link (partition/heal/crash/restart).
  std::map<std::pair<common::NodeId, common::NodeId>, std::int64_t>
      link_epochs_;
  std::int64_t* faults_applied_ = nullptr;  // driver / shard-0 registry
  bool fifo_checks_ = false;
};

}  // namespace mage::net
