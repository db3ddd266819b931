#include "rts/async_client.hpp"

#include <utility>

#include "rts/director.hpp"

namespace mage::rts {

namespace proto_verbs = proto::verbs;

// One in-flight chase: the state machine shared by the channel callbacks
// and the relocation events that advance it.  Chase<R> adds the typed
// completion state the returned future shares, so an operation costs one
// allocation, future included.
struct AsyncClient::ChaseOp {
  ChaseOp(ChaseKind k, common::ComponentName n, serial::BufferChain r)
      : kind(k), name(std::move(n)), request(std::move(r)) {}
  virtual ~ChaseOp() = default;

  template <typename R>
  void succeed(R value) {
    static_cast<Chase<R>&>(*this).state.set_value(std::move(value));
  }
  virtual void fail(std::string error) = 0;

  ChaseKind kind;
  common::ComponentName name;
  serial::BufferChain request;  // encoded once, re-sent at every hop
  common::NodeId to;            // Move: the destination
  common::NodeId at = common::kNoNode;  // the host being tried
  int attempts = 0;
};

template <typename R>
struct AsyncClient::Chase final : ChaseOp {
  using ChaseOp::ChaseOp;
  void fail(std::string error) override { state.set_error(std::move(error)); }
  detail::FutureState<R> state;
};

namespace {

// Lock waits can be long (the queue drains one holder at a time), so a
// lock request gets a generous transmission budget; duplicates are
// suppressed server-side.
rmi::CallOptions lock_options(const rmi::CallPolicy& policy) {
  return rmi::CallOptions{policy.attempt_timeout_us, 64};
}

serial::Buffer lock_request(const common::ComponentName& name,
                            common::NodeId target, std::uint64_t activity) {
  return proto::LockRequest{name, target, activity}.encode();
}

}  // namespace

AsyncClient::AsyncClient(MageServer& server)
    : AsyncClient(server, rmi::CallPolicy{}) {}

AsyncClient::AsyncClient(MageServer& server, rmi::CallPolicy policy)
    : server_(server),
      transport_(server.transport()),
      sim_(transport_.network().node_sim(transport_.self())),
      policy_(policy),
      direct_(std::make_unique<rmi::DirectChannel>(transport_, policy_)),
      top_(direct_.get()) {
  if (policy_.hedge_after_us > 0) {
    hedged_ = std::make_unique<rmi::HedgedChannel>(*top_, policy_);
    top_ = hedged_.get();
  }
  if (policy_.max_retries > 0 || policy_.deadline_us > 0) {
    retriable_ = std::make_unique<rmi::RetriableChannel>(*top_, policy_);
    top_ = retriable_.get();
  }
}

// --- epoch fences -----------------------------------------------------------

void AsyncClient::note_epoch(const common::ComponentName& name,
                             std::uint64_t epoch) {
  auto& known = known_epochs_[name];
  if (epoch > known) known = epoch;
}

std::uint64_t AsyncClient::known_epoch(
    const common::ComponentName& name) const {
  const auto it = known_epochs_.find(name);
  return it == known_epochs_.end() ? 0 : it->second;
}

bool AsyncClient::accept_hint(const common::ComponentName& name,
                              common::NodeId hint, std::uint64_t hint_epoch) {
  if (common::is_no_node(hint)) return false;
  // Unfenced hints (epoch 0) come from servers without epoch knowledge;
  // they are chased.  Fenced hints must be at least as recent as what this
  // client has already confirmed — an older hint points into a placement
  // history segment we know is obsolete (e.g. a forwarding loop left
  // behind by a crashed-and-restarted ex-home).
  if (hint_epoch != 0 && hint_epoch < known_epoch(name)) {
    sim_.stats().add("rts.stale_hints_rejected");
    return false;
  }
  note_epoch(name, hint_epoch);
  return true;
}

bool AsyncClient::is_shared(const common::ComponentName& name) const {
  return server_.directory().contains(name) &&
         server_.directory().info(name).is_public;
}

common::NodeId AsyncClient::believed_host(
    const common::ComponentName& name) const {
  if (server_.registry().has_local(name) && !server_.in_transit(name)) {
    return transport_.self();
  }
  if (auto fwd = server_.registry().forward(name)) return *fwd;
  if (server_.directory().contains(name)) {
    return server_.directory().info(name).home;
  }
  return common::kNoNode;
}

// --- the chase --------------------------------------------------------------

template <typename R>
MageFuture<R> AsyncClient::issue(ChaseKind kind,
                                 const common::ComponentName& name,
                                 serial::BufferChain request,
                                 common::NodeId start, common::NodeId to) {
  auto op = std::make_shared<Chase<R>>(kind, name, std::move(request));
  op->to = to;
  MageFuture<R> future(std::shared_ptr<detail::FutureState<R>>(op, &op->state));
  if (kind == ChaseKind::Find) {
    locate_and_resume(op);
    return future;
  }
  const common::NodeId at =
      common::is_no_node(start) ? believed_host(name) : start;
  if (common::is_no_node(at)) {
    relocate_and_resume(op, "no local knowledge of '" + name + "'");
  } else {
    send_op(op, at);
  }
  return future;
}

void AsyncClient::send_op(const std::shared_ptr<ChaseOp>& op,
                          common::NodeId host) {
  op->at = host;
  if (op->kind == ChaseKind::Find) {
    op->succeed(host);  // a find ends where it located the object
    return;
  }
  auto on_done = [this, op](rmi::CallResult result) {
    on_reply(op, std::move(result));
  };
  switch (op->kind) {
    case ChaseKind::Invoke:
      channel().call(op->at, proto_verbs::kInvoke, op->request,
                     std::move(on_done));
      return;
    case ChaseKind::InvokeOneway:
      // Direct channel unconditionally: one-way verbs are never
      // channel-retried (a duplicate would re-run the agent method).
      direct_->call(op->at, proto_verbs::kInvokeOneway, op->request,
                    std::move(on_done));
      return;
    case ChaseKind::Move:
      channel().call(op->at, proto_verbs::kMove, op->request,
                     std::move(on_done));
      return;
    case ChaseKind::Lock:
      // Transport-level retransmission only: a channel retry would queue
      // a second request under a fresh id.
      transport_.call(op->at, proto_verbs::kLock, op->request,
                      std::move(on_done), lock_options(policy_));
      return;
    case ChaseKind::Find:
      return;
  }
}

void AsyncClient::on_reply(const std::shared_ptr<ChaseOp>& op,
                           rmi::CallResult result) {
  if (!result.ok) {
    // After a transport failure it is unknown whether the hop ran.
    // Repeating a move is harmless (a completed one answers Moved from
    // the old host), so a move re-locates; an invoke, one-way or lock may
    // have run, so it ends — as does any rejection the callee's policy
    // sent.  The error stays as the call reported it.
    if (op->kind == ChaseKind::Move &&
        rmi::is_transport_failure(result.error)) {
      relocate_and_resume(op, std::move(result.error));
    } else {
      fail_op(op, std::move(result.error));
    }
    return;
  }
  if (op->kind == ChaseKind::Move) {
    const auto reply = proto::SimpleReply::decode(result.body);
    if (on_setback(op, reply)) return;
    // The source's Ok carries the new placement epoch; record it so stale
    // chains left behind by the old placement are fenced off.
    note_epoch(op->name, reply.hint_epoch);
    server_.registry().update_forward(op->name, op->to, reply.hint_epoch);
    if (directory_client_ != nullptr) {
      // Fire-and-forget: a reader that races the announce is protected by
      // the epoch fence, and a lagging quorum record reads as not-yet-found.
      directory_client_->announce(
          proto::PlacementRecord{op->name, std::string{}, op->to,
                                 is_shared(op->name), reply.hint_epoch},
          [](bool) {});
    }
    op->succeed(op->to);
  } else if (op->kind == ChaseKind::Lock) {
    const auto reply = proto::LockReply::decode(result.body);
    if (on_setback(op, reply)) return;
    op->succeed(LockHandle{op->name, op->at, reply.lock_id, reply.kind});
  } else {
    auto reply = proto::InvokeReply::decode(result.body);
    if (on_setback(op, reply)) return;
    op->succeed(Invoked{op->at, std::move(reply.result)});
  }
}

template <typename Reply>
bool AsyncClient::on_setback(const std::shared_ptr<ChaseOp>& op,
                             const Reply& reply) {
  switch (reply.status) {
    case proto::Status::Ok:
      return false;
    case proto::Status::Moved:
      if (!accept_hint(op->name, reply.hint, reply.hint_epoch)) {
        relocate_and_resume(op, "stale Moved hint rejected");
        return true;
      }
      sim_.stats().add("rts.async_redirects");
      if (++op->attempts >= kMaxChaseAttempts) {
        give_up(op, "redirect chain exceeded the chase budget");
      } else {
        send_op(op, reply.hint);  // fresh hint: follow immediately
      }
      return true;
    case proto::Status::NotFound:
      relocate_and_resume(op, "object is mid-flight or unknown at " +
                                  std::to_string(op->at.value()));
      return true;
    case proto::Status::Error:
      // The host's own error; a refused move or lock names the operation.
      if (op->kind == ChaseKind::Move) {
        fail_op(op, "move of '" + op->name + "' failed: " + reply.error);
      } else if (op->kind == ChaseKind::Lock) {
        fail_op(op, "lock('" + op->name + "') failed: " + reply.error);
      } else {
        fail_op(op, reply.error);
      }
      return true;
  }
  return true;
}

void AsyncClient::relocate_and_resume(const std::shared_ptr<ChaseOp>& op,
                                      std::string why) {
  if (++op->attempts >= kMaxChaseAttempts) {
    give_up(op, why);
    return;
  }
  sim_.stats().add("rts.async_relocates");
  // The object may be mid-flight between namespaces; back off, re-locate
  // from fresh knowledge, then resume the chase.  A find can complete
  // inside the backoff event itself (from local knowledge), so its
  // backoff wakes an enclosing run_until.
  sim_.schedule_after(
      kChaseBackoffUs, [this, op] { locate_and_resume(op); },
      op->kind == ChaseKind::Find ? sim::Wake::Yes : sim::Wake::No);
}

void AsyncClient::locate_and_resume(const std::shared_ptr<ChaseOp>& op) {
  const common::ComponentName& name = op->name;
  if (server_.registry().has_local(name) && !server_.in_transit(name)) {
    send_op(op, transport_.self());
    return;
  }
  common::NodeId start = common::kNoNode;
  if (auto fwd = server_.registry().forward(name)) {
    // Private objects move only through their owner, so the forwarding
    // address is authoritative ("if the object is private, cloc always
    // accurately represents the bound object's current location",
    // Section 3.5); shared ones verify by walking the chain.
    if (!is_shared(name)) {
      send_op(op, *fwd);
      return;
    }
    start = *fwd;
  } else if (server_.directory().contains(name)) {
    start = server_.directory().info(name).home;
  }
  if (common::is_no_node(start) || start == transport_.self()) {
    ask_directory(op, common::kNoNode);
    return;
  }
  walk(op, start, /*fenced=*/true);
}

void AsyncClient::walk(const std::shared_ptr<ChaseOp>& op,
                       common::NodeId start, bool fenced) {
  proto::LookupRequest request;
  request.name = op->name;
  request.min_epoch = fenced ? known_epoch(op->name) : 0;
  if (!fenced) sim_.stats().add("rts.unfenced_walks");
  channel().call(
      start, proto_verbs::kLookup, request.encode(),
      [this, op, start, fenced](rmi::CallResult result) {
        std::string error = std::move(result.error);
        if (result.ok) {
          const auto reply = proto::LookupReply::decode(result.body);
          if (reply.status == proto::Status::Ok) {
            note_epoch(op->name, reply.epoch);
            server_.registry().update_forward(op->name, reply.host,
                                              reply.epoch);
            send_op(op, reply.host);
            return;
          }
          error = "lookup walk from " + std::to_string(start.value()) +
                  " dead-ended: " + reply.error;
        }
        // The chain start was unreachable or the walk dead-ended: ask the
        // replicated directory, then walk unfenced (see the header).
        if (fenced) {
          ask_directory(op, start);
        } else {
          relocate_and_resume(op, std::move(error));
        }
      });
}

void AsyncClient::ask_directory(const std::shared_ptr<ChaseOp>& op,
                                common::NodeId walk_from) {
  auto miss = [this, op, walk_from](std::string why) {
    if (common::is_no_node(walk_from)) {
      relocate_and_resume(op, std::move(why));
    } else {
      walk(op, walk_from, /*fenced=*/false);
    }
  };
  if (directory_client_ == nullptr) {
    miss("'" + op->name + "' is not known here (no forwarding address, no "
         "static-directory entry, no replicated directory configured)");
    return;
  }
  directory_client_->resolve(
      op->name,
      [this, op, miss](std::optional<DirectoryClient::Resolution> resolved) {
        // No record, or the quorum lags our own confirmed knowledge (an
        // announce is still in flight): not found yet.
        if (!resolved || resolved->epoch < known_epoch(op->name)) {
          miss("directory has no fresh record of '" + op->name + "'");
          return;
        }
        note_epoch(op->name, resolved->epoch);
        server_.registry().update_forward(op->name, resolved->host,
                                          resolved->epoch);
        send_op(op, resolved->host);
      });
}

void AsyncClient::give_up(const std::shared_ptr<ChaseOp>& op,
                          const std::string& why) {
  fail_op(op, "chase for '" + op->name + "' did not converge after " +
                  std::to_string(op->attempts) + " attempts: " + why);
}

void AsyncClient::fail_op(const std::shared_ptr<ChaseOp>& op,
                          std::string error) {
  // Failure can surface from a channel/backoff timer event; wake so an
  // enclosing run_until re-checks its predicate.
  sim_.wake();
  op->fail(std::move(error));
}

// --- public operations ------------------------------------------------------

MageFuture<Invoked> AsyncClient::invoke_raw(const common::ComponentName& name,
                                            const std::string& method,
                                            serial::Buffer args,
                                            common::NodeId start) {
  return issue<Invoked>(
      ChaseKind::Invoke, name,
      proto::InvokeRequest{name, method, std::move(args)}.encode(), start);
}

MageFuture<Invoked> AsyncClient::invoke_oneway_raw(
    const common::ComponentName& name, const std::string& method,
    serial::Buffer args, common::NodeId start) {
  return issue<Invoked>(
      ChaseKind::InvokeOneway, name,
      proto::InvokeRequest{name, method, std::move(args)}.encode(), start);
}

MageFuture<common::NodeId> AsyncClient::move(const common::ComponentName& name,
                                             common::NodeId to,
                                             common::NodeId start) {
  return issue<common::NodeId>(ChaseKind::Move, name,
                               proto::MoveRequest{name, to}.encode(), start,
                               to);
}

MageFuture<common::NodeId> AsyncClient::locate(
    const common::ComponentName& name) {
  return issue<common::NodeId>(ChaseKind::Find, name, {}, common::kNoNode);
}

MageFuture<LockHandle> AsyncClient::lock(const common::ComponentName& name,
                                         common::NodeId target,
                                         std::uint64_t activity,
                                         common::NodeId start) {
  return issue<LockHandle>(ChaseKind::Lock, name,
                           lock_request(name, target, activity), start);
}

MageFuture<proto::LockReply> AsyncClient::lock_at(
    common::NodeId host, const common::ComponentName& name,
    common::NodeId target, std::uint64_t activity) {
  MagePromise<proto::LockReply> promise;
  transport_.call(
      host, proto_verbs::kLock, lock_request(name, target, activity),
      [promise](rmi::CallResult result) {
        if (!result.ok) {
          proto::LockReply reply;
          reply.status = proto::Status::Error;
          reply.error = std::move(result.error);
          promise.set_value(std::move(reply));
          return;
        }
        promise.set_value(proto::LockReply::decode(result.body));
      },
      lock_options(policy_));
  return promise.future();
}

template <typename R, typename Decode>
MageFuture<R> AsyncClient::call_once(common::NodeId node, common::VerbId verb,
                                     serial::BufferChain body, Decode decode) {
  MagePromise<R> promise;
  channel().call(node, verb, std::move(body),
                 [promise, decode](rmi::CallResult result) {
                   if (!result.ok) {
                     promise.set_error(std::move(result.error));
                     return;
                   }
                   promise.set_value(decode(result.body));
                 });
  return promise.future();
}

MageFuture<double> AsyncClient::load_of(common::NodeId node) {
  return call_once<double>(node, proto_verbs::kGetLoad, {}, [](auto& body) {
    return proto::LoadReply::decode(body).load;
  });
}

MageFuture<std::vector<std::pair<std::string, std::uint64_t>>>
AsyncClient::manifest(common::NodeId node, const std::string& prefix) {
  return call_once<std::vector<std::pair<std::string, std::uint64_t>>>(
      node, proto_verbs::kManifest, proto::ManifestRequest{prefix}.encode(),
      [](auto& body) { return proto::ManifestReply::decode(body).entries; });
}

MageFuture<Unit> AsyncClient::ping(common::NodeId node) {
  return call_once<Unit>(node, proto_verbs::kPing, {},
                         [](auto&) { return Unit{}; });
}

}  // namespace mage::rts
