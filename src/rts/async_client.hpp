// AsyncClient: the MAGE client core — THE way to program MAGE
// (docs/API.md) and the runtime's one location-transparent chase.
//
// Every operation returns a MageFuture and delivers its completion on the
// calling node's own shard, so application logic written as future chains
// runs unchanged (and bit-identically) on the driver engine and on the
// sharded engine at any worker count.  MageClient (rts/client.hpp) is a
// blocking adapter over these futures.
//
//   * invoke<R>/invoke_raw, invoke_oneway, move and lock chase the object:
//     try the start host (a caller's cloc, else believed_host), follow
//     Moved hints (epoch-fenced — a stale hint is rejected and counted in
//     "rts.stale_hints_rejected"), and re-locate with backoff on NotFound,
//     within kMaxChaseAttempts.  A transport failure re-locates a move
//     (repeating one is harmless) but ends an invoke, one-way or lock,
//     which may have run.
//   * locate() is the chase's find: the epoch-fenced lookup walk, the
//     replicated-directory fallback, then one unfenced walk, retried with
//     the same budget and pacing.
//   * load_of()/ping()/manifest()/lock_at() are plain single-host calls.
//
// Calls travel through a channel stack built from this client's
// rmi::CallPolicy (rmi/channel.hpp): Retriable(Hedged(Direct)) with layers
// elided when their policy fields are off.  The default policy adds NO
// channel-level retries or hedges — mage.invoke is not idempotent, and
// only transport-level retransmission is at-most-once safe.  Give a
// *separate* AsyncClient a retrying/hedging policy for idempotent traffic
// (load probes, lookups, convergent moves) — see docs/API.md's cookbook.
//
// invoke_oneway() always uses the bare direct channel, whatever the
// policy: a one-way verb must never be channel-retried (zero-retry by
// construction; asserted in tests/async_client_test.cpp).  Lock requests
// bypass the channel stack too, with their own transmission budget.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "rmi/channel.hpp"
#include "rts/future.hpp"
#include "rts/protocol.hpp"
#include "rts/server.hpp"
#include "serial/traits.hpp"

namespace mage::rts {

class DirectoryClient;

// Proof of a granted stay/move lock; needed to unlock.
struct LockHandle {
  common::ComponentName name;
  common::NodeId host = common::kNoNode;  // where the lock queue lives
  std::uint64_t lock_id = 0;
  LockKind kind = LockKind::Stay;
};

// A finished invocation: the host that ran it and the method's result
// (empty for a one-way invoke, whose result stays parked at the host).
struct Invoked {
  common::NodeId host = common::kNoNode;
  serial::Buffer result;
};

class AsyncClient {
 public:
  // Chase budget (redirects plus re-locations) and the pause before each
  // re-location ("these protocols must recover from message loss and
  // account for contention over shared components", Section 4.3).
  static constexpr int kMaxChaseAttempts = 12;
  static constexpr common::SimDuration kChaseBackoffUs = 10'000;

  // `server` provides the transport, registry, and static directory of the
  // node this client runs on.  The default policy is a bare transport call
  // (no channel retries/hedges — see the header comment).
  explicit AsyncClient(MageServer& server);
  AsyncClient(MageServer& server, rmi::CallPolicy policy);

  AsyncClient(const AsyncClient&) = delete;
  AsyncClient& operator=(const AsyncClient&) = delete;

  [[nodiscard]] common::NodeId self() const { return transport_.self(); }
  [[nodiscard]] const rmi::CallPolicy& policy() const { return policy_; }

  // Opt-in high-availability naming: when set, moves are announced to the
  // replicated director quorum (fire-and-forget — a reader racing an
  // announce is protected by the epoch fence), and locate() falls back to
  // it when the static directory's lead or a forwarding chain dead-ends,
  // e.g. when the original home node is crashed.  Not owned.
  void set_directory_client(DirectoryClient* dclient) {
    directory_client_ = dclient;
  }
  [[nodiscard]] DirectoryClient* directory_client() const {
    return directory_client_;
  }

  // --- invocation ---------------------------------------------------------

  template <typename R, typename... Args>
  MageFuture<R> invoke(const common::ComponentName& name,
                       const std::string& method, const Args&... args) {
    serial::Writer w;
    (serial::put(w, args), ...);
    return invoke_raw(name, method, w.take()).then([](Invoked& invoked) {
      serial::Reader r(invoked.result);
      return serial::get<R>(r);
    });
  }

  // `start` is the first host to try (a caller's cached location);
  // kNoNode starts from believed_host.
  MageFuture<Invoked> invoke_raw(const common::ComponentName& name,
                                 const std::string& method,
                                 serial::Buffer args,
                                 common::NodeId start = common::kNoNode);

  // Mobile-agent one-way invoke: the future completes on the host's
  // acknowledgement (the result stays parked at the host).  Always rides
  // the direct channel — zero channel retries regardless of policy.
  template <typename... Args>
  MageFuture<Unit> invoke_oneway(const common::ComponentName& name,
                                 const std::string& method,
                                 const Args&... args) {
    serial::Writer w;
    (serial::put(w, args), ...);
    return invoke_oneway_raw(name, method, w.take()).then([](Invoked&) {});
  }

  MageFuture<Invoked> invoke_oneway_raw(const common::ComponentName& name,
                                        const std::string& method,
                                        serial::Buffer args,
                                        common::NodeId start = common::kNoNode);

  // --- placement ----------------------------------------------------------

  // Moves the component to `to`; completes with the new host once the
  // migration converged.  Records the new placement epoch and (when a
  // DirectoryClient is set) announces the placement.
  MageFuture<common::NodeId> move(const common::ComponentName& name,
                                  common::NodeId to,
                                  common::NodeId start = common::kNoNode);

  // Where is `name` now?  Local knowledge (a private object's forwarding
  // address is authoritative), else the epoch-fenced lookup walk, the
  // directory fallback, then one unfenced walk — retried with backoff
  // within the chase budget.  Does not chase invocations anywhere.
  MageFuture<common::NodeId> locate(const common::ComponentName& name);

  // --- locking ------------------------------------------------------------

  // Acquires `activity`'s stay/move lock on `name`, computing at `target`
  // (Section 4.4), chasing the object like an invoke.  Completes once the
  // lock is granted, which can take long while it is held elsewhere.
  MageFuture<LockHandle> lock(const common::ComponentName& name,
                              common::NodeId target, std::uint64_t activity,
                              common::NodeId start = common::kNoNode);

  // One lock request to `host`, not chased: completes with the host's
  // reply as sent (a Moved bounce included; a failed call becomes an Error
  // reply) — for activities that drive the lock queue by hand.
  MageFuture<proto::LockReply> lock_at(common::NodeId host,
                                       const common::ComponentName& name,
                                       common::NodeId target,
                                       std::uint64_t activity);

  // --- probes -------------------------------------------------------------

  MageFuture<double> load_of(common::NodeId node);
  MageFuture<Unit> ping(common::NodeId node);

  // Lists the components bound on `node` whose names start with `prefix`,
  // as (name, placement epoch) pairs — the partition-ops probe a
  // rebalancer uses to pick a migration victim from the host's
  // authoritative registry instead of a possibly-stale client table.
  MageFuture<std::vector<std::pair<std::string, std::uint64_t>>> manifest(
      common::NodeId node, const std::string& prefix);

  // --- epoch fences -------------------------------------------------------

  // The highest placement epoch this client has confirmed for `name` (0 =
  // none).  note_epoch records authoritative knowledge (a directory
  // resolution, a completed move); Moved hints with an older epoch are
  // rejected instead of chased — a stale chain can never send this client
  // back to a dead ex-home.
  void note_epoch(const common::ComponentName& name, std::uint64_t epoch);
  [[nodiscard]] std::uint64_t known_epoch(
      const common::ComponentName& name) const;

  // Best local knowledge of the component's host (no network traffic):
  // local object, forwarding address, or static-directory home — kNoNode
  // when nothing is known.
  [[nodiscard]] common::NodeId believed_host(
      const common::ComponentName& name) const;

  [[nodiscard]] sim::Simulation& simulation() { return sim_; }

 private:
  // What a chase does at each hop, and the result type it completes with:
  // Invoke/InvokeOneway -> Invoked, Move/Find -> common::NodeId, Lock ->
  // LockHandle.
  enum class ChaseKind { Invoke, InvokeOneway, Move, Lock, Find };
  struct ChaseOp;
  template <typename R>
  struct Chase;

  [[nodiscard]] rmi::Channel& channel() { return *top_; }
  [[nodiscard]] bool is_shared(const common::ComponentName& name) const;

  bool accept_hint(const common::ComponentName& name, common::NodeId hint,
                   std::uint64_t hint_epoch);

  // Starts a chase of `kind` for `name`, sending `request` (encoded once)
  // at every hop; `to` is a move's destination.
  template <typename R>
  MageFuture<R> issue(ChaseKind kind, const common::ComponentName& name,
                      serial::BufferChain request, common::NodeId start,
                      common::NodeId to = common::kNoNode);
  // Sends the op's request to `host` (a find completes there instead).
  void send_op(const std::shared_ptr<ChaseOp>& op, common::NodeId host);
  void on_reply(const std::shared_ptr<ChaseOp>& op, rmi::CallResult result);
  // Follows a reply that is not Ok (Moved, NotFound, Error) and returns
  // true; returns false for Ok, which the caller completes.
  template <typename Reply>
  bool on_setback(const std::shared_ptr<ChaseOp>& op, const Reply& reply);

  // Backoff, re-locate, resume — or give up once the chase budget is
  // spent.  `why` explains the setback in the final error.
  void relocate_and_resume(const std::shared_ptr<ChaseOp>& op,
                           std::string why);
  // The locate() steps, then send_op at the host found.
  void locate_and_resume(const std::shared_ptr<ChaseOp>& op);
  // A lookup walk from `start`: fenced at known_epoch, or the last-resort
  // unfenced walk (min_epoch 0).  A fenced walk can dead-end when every
  // reachable chain entry is older than this client's own fence even
  // though the chain still leads to the live binding (epochs rise strictly
  // along a forwarding chain, so following a stale link converges; only a
  // node's LOCAL binding ever serves, so the worst case is a wasted hop,
  // never a wrong execution).  This is exactly the walk a fresh client
  // (fence 0) is always allowed, and the next hop re-verifies placement.
  void walk(const std::shared_ptr<ChaseOp>& op, common::NodeId start,
            bool fenced);
  // Replicated-directory fallback; on a miss, the unfenced walk from
  // `walk_from` (kNoNode: none — this locate attempt fails).
  void ask_directory(const std::shared_ptr<ChaseOp>& op,
                     common::NodeId walk_from);
  void give_up(const std::shared_ptr<ChaseOp>& op, const std::string& why);
  void fail_op(const std::shared_ptr<ChaseOp>& op, std::string error);

  // One call to `node` through the channel stack, its reply decoded.
  template <typename R, typename Decode>
  MageFuture<R> call_once(common::NodeId node, common::VerbId verb,
                          serial::BufferChain body, Decode decode);

  MageServer& server_;
  rmi::Transport& transport_;
  sim::Simulation& sim_;
  DirectoryClient* directory_client_ = nullptr;

  rmi::CallPolicy policy_;
  // The channel stack, built once by the constructor; declared innermost
  // first, so the outer layers are destroyed before the channels they wrap.
  std::unique_ptr<rmi::DirectChannel> direct_;
  std::unique_ptr<rmi::HedgedChannel> hedged_;
  std::unique_ptr<rmi::RetriableChannel> retriable_;
  rmi::Channel* top_ = nullptr;

  std::map<common::ComponentName, std::uint64_t> known_epochs_;
};

}  // namespace mage::rts
