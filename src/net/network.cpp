#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "common/error.hpp"
#include "common/log.hpp"

namespace mage::net {
namespace {

std::pair<common::NodeId, common::NodeId> ordered_pair(common::NodeId a,
                                                       common::NodeId b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

}  // namespace

Network::Network(sim::Simulation& sim, CostModel model)
    : driver_sim_(&sim),
      model_(model),
      contexts_{&sim},
      capacity_(std::numeric_limits<std::size_t>::max()),
      seed_(sim.seed()) {
  faults_applied_ = sim.stats().counter_handle("net.faults_applied");
}

Network::Network(sim::ShardedSim& sharded, CostModel model,
                 std::vector<std::size_t> node_to_shard)
    : sharded_(&sharded),
      model_(model),
      shard_map_(std::move(node_to_shard)),
      seed_(sharded.seed()) {
  if (min_link_latency(model_) < sharded.lookahead()) {
    throw common::MageError(
        "cost model's minimum cross-node delay (" +
        std::to_string(min_link_latency(model_)) +
        "us) does not cover the sharded lookahead (" +
        std::to_string(sharded.lookahead()) +
        "us): a message could arrive inside the conservative window");
  }
  if (shard_map_.empty()) {
    // Identity mapping: node i on shard i, the historical 1:1 layout.
    shard_map_.resize(sharded.shard_count());
    for (std::size_t i = 0; i < shard_map_.size(); ++i) shard_map_[i] = i;
  } else {
    for (std::size_t i = 0; i < shard_map_.size(); ++i) {
      if (shard_map_[i] >= sharded.shard_count()) {
        throw common::MageError(
            "node:shard mapping sends node " + std::to_string(i + 1) +
            " to shard " + std::to_string(shard_map_[i]) +
            ", but the ShardedSim has only " +
            std::to_string(sharded.shard_count()) + " shards");
      }
    }
  }
  capacity_ = shard_map_.size();
  for (std::size_t i = 0; i < sharded.shard_count(); ++i) {
    contexts_.push_back(&sharded.shard(i));
  }
  // Faults apply at window boundaries (one thread, all workers parked);
  // shard 0's registry is the conventional home for driver-side counters.
  faults_applied_ = sharded.shard(0).stats().counter_handle(
      "net.faults_applied");
}

Network::~Network() {
  // Schedule appliers capture `this`; leaving them behind would dangle.
  // Sharded: uninstall the boundary hook — but only if it is still OURS
  // (a newer Network on the same ShardedSim may have installed its own).
  // Driver: cancel every not-yet-fired applier event.  Never mid-run in
  // practice (the network outlives its runs), but stay noexcept.
  if (hook_installed_ && !sharded_->running() &&
      sharded_->boundary_hook_owner() == this) {
    sharded_->set_boundary_hook(nullptr);
  }
  cancel_fault_appliers();
}

void Network::cancel_fault_appliers() {
  if (driver_sim_ != nullptr) {
    for (sim::EventId id : fault_applier_events_) driver_sim_->cancel(id);
  }
  fault_applier_events_.clear();
}

void Network::require_config_window(const char* what) const {
  if (sharded_ != nullptr && sharded_->running()) {
    throw common::MageError(
        std::string("network configuration is frozen while sharded workers "
                    "run: ") +
        what);
  }
}

void Network::require_fault_window(const char* what) const {
  if (sharded_ != nullptr && sharded_->running()) {
    throw common::MageError(
        std::string(what) +
        " is frozen while sharded workers run: install a net::FaultSchedule "
        "(Network::set_fault_schedule) before the run — its entries are "
        "applied atomically at window boundaries, so faults can change "
        "mid-run without breaking the threading contract or determinism");
  }
}

common::NodeId Network::add_node(std::string label) {
  require_config_window("add_node");
  if (nodes_.size() >= capacity_) {
    throw common::MageError("sharded network is full: the node:shard "
                            "mapping covers " +
                            std::to_string(capacity_) +
                            " nodes, cannot add node '" + label + "'");
  }
  const common::NodeId id{static_cast<std::uint32_t>(nodes_.size() + 1)};
  NodeState state;
  state.label = std::move(label);
  // A function of the run seed and the node id only — not of the engine or
  // the shard — so every node-side draw survives any remapping.
  state.rng = common::Rng(seed_ ^ (0x9E3779B97F4A7C15ull * id.value()));
  nodes_.push_back(std::move(state));
  // The driver engine's one context takes every node.
  if (shard_map_.size() < nodes_.size()) shard_map_.push_back(0);
  NodeState& stored = nodes_.back();
  auto& stats = node_sim(id).stats();
  stored.messages_sent = stats.counter_handle("net.messages_sent");
  stored.bytes_sent = stats.counter_handle("net.bytes_sent");
  stored.messages_dropped = stats.counter_handle("net.messages_dropped");
  stored.messages_delivered = stats.counter_handle("net.messages_delivered");
  stored.connections_opened = stats.counter_handle("net.connections_opened");
  stored.messages_dropped_by_schedule =
      stats.counter_handle("net.messages_dropped_by_schedule");
  stored.messages_dropped_by_link_loss =
      stats.counter_handle("net.messages_dropped_by_link_loss");
  stored.fifo_violations = stats.counter_handle("net.fifo_violations");
  return id;
}

Network::NodeState& Network::state(common::NodeId node) {
  assert(node.value() >= 1 && node.value() <= nodes_.size());
  return nodes_[node.value() - 1];
}

const Network::NodeState& Network::state(common::NodeId node) const {
  assert(node.value() >= 1 && node.value() <= nodes_.size());
  return nodes_[node.value() - 1];
}

sim::Simulation& Network::simulation() {
  if (driver_sim_ == nullptr) {
    throw common::MageError(
        "Network::simulation() is driver-mode only: a sharded network has "
        "one simulation context per node (use node_sim)");
  }
  return *driver_sim_;
}

void Network::for_each_cross_context_link(
    const std::function<void(std::uint32_t, std::uint32_t,
                             common::SimDuration)>& fn) const {
  const common::SimDuration base = min_link_latency(model_);
  for (std::uint32_t a = 1; a <= nodes_.size(); ++a) {
    for (std::uint32_t b = 1; b <= nodes_.size(); ++b) {
      if (a == b || shard_map_[a - 1] == shard_map_[b - 1]) continue;
      const auto it =
          extra_latency_.find({common::NodeId{a}, common::NodeId{b}});
      fn(a, b, base + (it == extra_latency_.end() ? 0 : it->second));
    }
  }
}

void Network::refresh_pair_lookaheads() {
  require_config_window("refresh_pair_lookaheads");
  const std::size_t shard_total = contexts_.size();
  // Tightest delay per directed shard pair: base + the smallest extra
  // latency among that pair's links (unconfigured links have extra 0, and
  // every node pair is a potential link, so any populated pair has a
  // defined minimum).  Intra-shard links never constrain windows.
  std::vector<common::SimDuration> tightest(
      shard_total * shard_total, std::numeric_limits<common::SimDuration>::max());
  for_each_cross_context_link(
      [&](std::uint32_t a, std::uint32_t b, common::SimDuration delay) {
        auto& entry =
            tightest[shard_map_[a - 1] * shard_total + shard_map_[b - 1]];
        entry = std::min(entry, delay);
      });
  for (std::size_t p = 0; p < shard_total; ++p) {
    for (std::size_t q = 0; q < shard_total; ++q) {
      const common::SimDuration la = tightest[p * shard_total + q];
      if (p == q || la == std::numeric_limits<common::SimDuration>::max()) {
        continue;  // no nodes (yet) on one side: leave the uniform default
      }
      sharded_->set_pair_lookahead(p, q, la);
    }
  }
  validate_pair_lookaheads();
}

void Network::validate_pair_lookaheads() const {
  for_each_cross_context_link([this](std::uint32_t a, std::uint32_t b,
                                     common::SimDuration delay) {
    const std::size_t pa = shard_map_[a - 1];
    const std::size_t pb = shard_map_[b - 1];
    const common::SimDuration la = sharded_->pair_lookahead(pa, pb);
    if (la < 1 || delay < la) {
      throw common::MageError(
          "pair lookahead for shard link " + std::to_string(pa) + " -> " +
          std::to_string(pb) + " is " + std::to_string(la) + "us, but link " +
          nodes_[a - 1].label + " -> " + nodes_[b - 1].label + " (node " +
          std::to_string(a) + " -> " + std::to_string(b) +
          ") can deliver in " + std::to_string(delay) +
          "us under this cost model: a mid-window send on that link would "
          "land inside the conservative window (every entry must be >= 1us "
          "and <= its links' minimum delay)");
    }
  });
}

void Network::set_handler(common::NodeId node, Handler handler) {
  require_config_window("set_handler");
  state(node).handler = std::move(handler);
}

const std::string& Network::label(common::NodeId node) const {
  return state(node).label;
}

std::vector<common::NodeId> Network::node_ids() const {
  std::vector<common::NodeId> ids;
  ids.reserve(nodes_.size());
  for (std::uint32_t i = 1; i <= nodes_.size(); ++i) {
    ids.push_back(common::NodeId{i});
  }
  return ids;
}

void Network::send(Message msg) {
  NodeState& from = state(msg.from);
  sim::Simulation& sender_sim = node_sim(msg.from);

  ++*from.messages_sent;
  *from.bytes_sent += static_cast<std::int64_t>(msg.wire_size());

  const common::SimTime sent_at = sender_sim.now();
  const bool loopback = msg.from == msg.to;

  // Every drop counts against the sender (with its schedule provenance)
  // and shows in the trace.
  const auto drop = [&](bool by_schedule) {
    ++*from.messages_dropped;
    if (by_schedule) ++*from.messages_dropped_by_schedule;
    if (tracing_) {
      trace_.push_back(TraceEntry{sent_at, -1, msg.from, msg.to, msg.label(),
                                  msg.wire_size(), true});
    }
  };

  if (!loopback && (from.down || state(msg.to).down)) {
    drop(from.down_by_schedule || state(msg.to).down_by_schedule);
    return;
  }

  if (!loopback && partitions_.contains(ordered_pair(msg.from, msg.to))) {
    drop(scheduled_partitions_.contains(ordered_pair(msg.from, msg.to)));
    return;
  }

  if (!loopback && loss_rate_ > 0.0 && from.rng.next_bool(loss_rate_)) {
    MAGE_DEBUG() << "dropped " << msg.label() << " " << msg.from << " -> "
                 << msg.to;
    drop(loss_from_schedule_);
    return;
  }

  // Per-link loss, layered after the global draw.  The RNG is consulted
  // only when this directed link has a nonzero rate, so runs without
  // per-link faults replay the exact same random stream as before.
  if (!loopback && !link_loss_.empty()) {
    const auto link = std::make_pair(msg.from, msg.to);
    const auto it = link_loss_.find(link);
    if (it != link_loss_.end() && it->second > 0.0 &&
        from.rng.next_bool(it->second)) {
      ++*from.messages_dropped_by_link_loss;
      ++from.link_loss_drops_to[msg.to];
      MAGE_DEBUG() << "link-dropped " << msg.label() << " " << msg.from
                   << " -> " << msg.to;
      drop(scheduled_link_loss_.contains(link));
      return;
    }
  }

  common::SimDuration delay = 0;
  if (loopback) {
    delay = model_.local_invoke_us;
  } else {
    delay = model_.propagation_us + model_.wire_time(msg.wire_size()) +
            model_.per_message_cpu_us;
    auto link = std::make_pair(msg.from, msg.to);
    if (auto it = extra_latency_.find(link); it != extra_latency_.end()) {
      delay += it->second;
    }
    // One-time connection setup per directed link; the receiver warms the
    // reverse link on delivery, so only one side ever pays.
    if (from.warm_to.insert(msg.to).second) {
      delay += model_.connection_setup_us;
      ++*from.connections_opened;
    }
  }

  common::SimTime deliver_at = sent_at + delay;
  if (!loopback) {
    // TCP in-order delivery per directed link.  The floor lives on the
    // sender (only this link's sends touch it), so sharded workers never
    // write foreign node state.
    auto& floor = from.earliest_delivery_to[msg.to];
    deliver_at = std::max(deliver_at, floor);
    floor = deliver_at + 1;
    if (fifo_checks_) {
      // Wire-FIFO stamp, sender-owned (mirrors the ordering floor).
      // Dropped messages never reach this point, so stamps on delivered
      // messages are strictly increasing per directed link by
      // construction — the delivery-side check verifies the floors
      // actually preserved that order.
      msg.wire_seq = ++from.next_wire_seq_to[msg.to];
      // Epoch stamp: which incarnation of this link the stamp belongs to.
      // Crash/restart transitions bump it (see on_node_transition), telling
      // the receiver the sender's counters may have started over.
      msg.link_epoch = link_epoch(msg.from, msg.to);
    }
  }

  if (tracing_) {
    trace_.push_back(TraceEntry{sent_at, deliver_at, msg.from, msg.to,
                                msg.label(), msg.wire_size(), false});
  }

  // Wake::No: delivery hands the message to the transport, which wakes the
  // simulation itself exactly where user code runs (service dispatch,
  // completion callbacks).
  auto deliver = [this, msg = std::move(msg)]() mutable {
    auto& node = state(msg.to);
    if (!node.handler) {
      throw common::TransportError("node '" + node.label +
                                   "' has no message handler installed");
    }
    ++*node.messages_delivered;
    // The connection this message rode now exists: the reply direction is
    // warm (receiver-owned state, so no shard writes a foreign node).
    node.warm_to.insert(msg.from);
    if (fifo_checks_ && msg.wire_seq != 0) {
      // Receiver-owned monotonicity check (this runs on the destination's
      // shard).  Gaps are fine — drops consume no stamp — but any
      // reordering on a directed link is a violation.  A new link epoch
      // means the sender crashed/restarted (or the link was cut and
      // healed) since the last delivery: its counters may have started
      // over, so the expectation resets instead of flagging a spurious
      // violation.
      auto& epoch = node.last_wire_epoch_from[msg.from];
      auto& last = node.last_wire_seq_from[msg.from];
      if (msg.link_epoch != epoch) {
        epoch = msg.link_epoch;
        last = 0;
      }
      if (msg.wire_seq <= last) {
        ++*node.fifo_violations;
      } else {
        last = msg.wire_seq;
      }
    }
    node.handler(std::move(msg));
  };
  // Every delivery carries its source node id as the event-queue tie key:
  // same-instant arrivals at one node execute in source order no matter
  // which mechanism (direct schedule below vs. mailbox drain) inserted
  // them — the keystone of the mapping-independence contract.
  const std::uint32_t tie = msg.from.value();
  const std::size_t from_ctx = shard_of(msg.from);
  const std::size_t to_ctx = shard_of(msg.to);
  if (from_ctx == to_ctx) {
    // Same context (always, on the driver engine; loopback or co-located
    // nodes on the sharded one): schedule straight into the shared queue.
    // This is the affinity-mapping payoff — an intra-shard message costs
    // no mailbox, no barrier wait, and does not constrain the lookahead
    // matrix.  Its TIMING is identical to the cross-shard path below, so
    // the mapping never changes when a message arrives, only what carries
    // it.
    sender_sim.schedule_at(deliver_at, std::move(deliver), sim::Wake::No, tie);
  } else {
    // Cross-shard: into the shard-pair mailbox; the destination shard
    // drains it at the next window boundary.  deliver_at >= sent_at + the
    // pair's lookahead entry (validate_pair_lookaheads enforces the matrix
    // never over-promises), so the event always lands outside the current
    // conservative window.
    sharded_->post(from_ctx, to_ctx, deliver_at, std::move(deliver),
                   sim::Wake::No, tie);
  }
}

void Network::set_loss_rate(double p) {
  require_fault_window("set_loss_rate");
  loss_rate_ = p;
  loss_from_schedule_ = false;
}

void Network::set_link_loss_rate(common::NodeId from, common::NodeId to,
                                 double p) {
  require_fault_window("set_link_loss_rate");
  const auto link = std::make_pair(from, to);
  if (p > 0.0) {
    link_loss_[link] = p;
  } else {
    link_loss_.erase(link);
  }
  scheduled_link_loss_.erase(link);
}

double Network::link_loss_rate(common::NodeId from, common::NodeId to) const {
  const auto it = link_loss_.find({from, to});
  return it == link_loss_.end() ? 0.0 : it->second;
}

std::int64_t Network::link_loss_drops(common::NodeId from,
                                      common::NodeId to) const {
  const auto& drops = state(from).link_loss_drops_to;
  const auto it = drops.find(to);
  return it == drops.end() ? 0 : it->second;
}

void Network::set_partitioned(common::NodeId a, common::NodeId b,
                              bool partitioned) {
  require_fault_window("set_partitioned");
  const auto link = ordered_pair(a, b);
  if (partitioned) {
    if (partitions_.insert(link).second) ++link_epochs_[link];
  } else {
    if (partitions_.erase(link) != 0) ++link_epochs_[link];
  }
  scheduled_partitions_.erase(link);
}

std::int64_t Network::link_epoch(common::NodeId a, common::NodeId b) const {
  const auto it = link_epochs_.find(ordered_pair(a, b));
  return it == link_epochs_.end() ? 0 : it->second;
}

void Network::set_fifo_checks(bool on) {
  require_config_window("set_fifo_checks");
  fifo_checks_ = on;
}

void Network::set_fault_schedule(FaultSchedule schedule) {
  require_config_window("set_fault_schedule");
  for (const FaultEvent& e : schedule.events()) {
    const bool needs_b = e.kind == FaultKind::Partition ||
                         e.kind == FaultKind::Heal ||
                         e.kind == FaultKind::LinkLoss;
    const bool needs_a = needs_b || e.kind == FaultKind::Crash ||
                         e.kind == FaultKind::Restart;
    if ((needs_a && (e.a.value() < 1 || e.a.value() > nodes_.size())) ||
        (needs_b && (e.b.value() < 1 || e.b.value() > nodes_.size()))) {
      throw common::MageError(
          "fault schedule references a node not on this network (add all "
          "nodes before set_fault_schedule)");
    }
  }
  // Replacing a schedule orphans its driver-mode appliers: cancel them.
  cancel_fault_appliers();
  fault_events_ = schedule.sorted();
  next_fault_ = 0;

  if (sharded_ != nullptr) {
    // Applied inside the window barrier, before the window runs: every
    // worker parked, so shards never observe a half-applied config, and
    // the boundary times are a pure function of event timestamps, so the
    // effective application times are identical at any worker count.
    sharded_->set_boundary_hook(
        [this](common::SimTime window_start) { apply_due_faults(window_start); },
        /*owner=*/this);
    hook_installed_ = true;
  } else {
    // Driver mode: one (non-waking) event per entry at its exact time.
    // The ids are kept so a replaced schedule or a destroyed network can
    // cancel appliers that have not fired yet.
    fault_applier_events_.reserve(fault_events_.size());
    for (const FaultEvent& e : fault_events_) {
      const common::SimTime at = std::max(e.at, driver_sim_->now());
      fault_applier_events_.push_back(driver_sim_->schedule_at(
          at, [this] { apply_due_faults(driver_sim_->now()); },
          sim::Wake::No));
    }
  }
}

void Network::apply_due_faults(common::SimTime now) {
  while (next_fault_ < fault_events_.size() &&
         fault_events_[next_fault_].at <= now) {
    apply_fault(fault_events_[next_fault_]);
    ++next_fault_;
  }
}

void Network::apply_fault(const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::LossRate:
      loss_rate_ = event.loss_rate;
      loss_from_schedule_ = true;
      break;
    case FaultKind::LinkLoss: {
      const auto link = std::make_pair(event.a, event.b);
      if (event.loss_rate > 0.0) {
        link_loss_[link] = event.loss_rate;
        scheduled_link_loss_.insert(link);
      } else {
        link_loss_.erase(link);
        scheduled_link_loss_.erase(link);
      }
      break;
    }
    case FaultKind::Partition: {
      const auto link = ordered_pair(event.a, event.b);
      if (partitions_.insert(link).second) ++link_epochs_[link];
      scheduled_partitions_.insert(link);
      break;
    }
    case FaultKind::Heal: {
      const auto link = ordered_pair(event.a, event.b);
      if (partitions_.erase(link) != 0) ++link_epochs_[link];
      scheduled_partitions_.erase(link);
      break;
    }
    case FaultKind::Crash: {
      NodeState& node = state(event.a);
      node.down = true;
      node.down_by_schedule = true;
      on_node_transition(event.a);
      break;
    }
    case FaultKind::Restart: {
      NodeState& node = state(event.a);
      node.down = false;
      node.down_by_schedule = false;
      on_node_transition(event.a);
      break;
    }
  }
  ++*faults_applied_;
}

void Network::set_extra_latency(common::NodeId from, common::NodeId to,
                                common::SimDuration extra) {
  require_config_window("set_extra_latency");
  if (extra < 0) {
    // A negative "extra" would schedule deliveries before their send (and
    // undercut the sharded engine's conservative lookahead).
    throw common::MageError(
        "negative extra link latency is not allowed (a message would be "
        "delivered before it was sent)");
  }
  extra_latency_[{from, to}] = extra;
}

void Network::set_load(common::NodeId node, double load) {
  state(node).load = load;
}

double Network::load(common::NodeId node) const { return state(node).load; }

void Network::on_node_transition(common::NodeId node) {
  // The crashed (or restarting) process loses its wire state: every link
  // it touches becomes a new incarnation, and its own FIFO counters reset
  // — a restarted sender starts stamping from 1 again, and the bumped
  // epoch tells every receiver to reset its expectation rather than flag
  // spurious fifo_violations.  No timing impact: none of this state feeds
  // delay computation.  Runs only with faults frozen (driver / boundary
  // hook), so touching foreign-node maps here is safe.
  for (std::uint32_t i = 1; i <= nodes_.size(); ++i) {
    const common::NodeId other{i};
    if (other == node) continue;
    ++link_epochs_[ordered_pair(node, other)];
  }
  NodeState& self = state(node);
  self.next_wire_seq_to.clear();
  self.last_wire_seq_from.clear();
  self.last_wire_epoch_from.clear();
}

void Network::set_node_down(common::NodeId node, bool down) {
  require_fault_window("set_node_down");
  if (state(node).down == down) return;
  state(node).down = down;
  state(node).down_by_schedule = false;
  on_node_transition(node);
}

bool Network::node_down(common::NodeId node) const {
  return state(node).down;
}

void Network::set_domain(common::NodeId node, std::string domain) {
  require_config_window("set_domain");
  state(node).domain = std::move(domain);
}

const std::string& Network::domain(common::NodeId node) const {
  return state(node).domain;
}

void Network::set_tracing(bool enabled) {
  if (enabled && sharded_ != nullptr) {
    throw common::MageError(
        "message tracing is driver-mode only: sharded workers would "
        "interleave the trace stream");
  }
  tracing_ = enabled;
}

void Network::reset_connections() {
  require_config_window("reset_connections");
  for (auto& node : nodes_) node.warm_to.clear();
}

}  // namespace mage::net
