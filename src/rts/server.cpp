#include "rts/server.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"

namespace mage::rts {

namespace proto_verbs = proto::verbs;

// Longest forwarding chain a lookup will walk before declaring a cycle.
constexpr std::uint32_t kMaxLookupHops = 32;

MageServer::MageServer(rmi::Transport& transport, const ClassWorld& world,
                       const Directory& directory)
    : transport_(transport),
      world_(world),
      directory_(directory),
      registry_(transport.self()),
      locks_(transport.self()) {
  register_services();
}

sim::Simulation& MageServer::sim() {
  // The node's own context: the shared driver sim in single-core mode,
  // this node's shard in sharded mode (handlers run on that shard).
  return transport_.network().node_sim(transport_.self());
}

void MageServer::register_services() {
  using namespace std::placeholders;
  auto bind_to = [this](void (MageServer::*fn)(common::NodeId, const Body&,
                                               rmi::Replier)) {
    return [this, fn](common::NodeId caller, const Body& body,
                      rmi::Replier replier) {
      (this->*fn)(caller, body, std::move(replier));
    };
  };

  transport_.register_service(proto_verbs::kLookup,
                              bind_to(&MageServer::handle_lookup));
  transport_.register_service(proto_verbs::kInvoke,
                              bind_to(&MageServer::handle_invoke));
  transport_.register_service(proto_verbs::kInvokeOneway,
                              bind_to(&MageServer::handle_invoke_oneway));
  transport_.register_service(proto_verbs::kFetchResult,
                              bind_to(&MageServer::handle_fetch_result));
  transport_.register_service(proto_verbs::kLock,
                              bind_to(&MageServer::handle_lock));
  transport_.register_service(proto_verbs::kUnlock,
                              bind_to(&MageServer::handle_unlock));
  transport_.register_service(proto_verbs::kGetLoad,
                              bind_to(&MageServer::handle_get_load));
  transport_.register_service(proto_verbs::kManifest,
                              bind_to(&MageServer::handle_manifest));
  transport_.register_service(
      proto_verbs::kPing,
      [](common::NodeId, const Body& body, rmi::Replier replier) {
        replier.ok(body);
      });
  transport_.register_service(
      proto_verbs::kResolveServer,
      [](common::NodeId, const Body&, rmi::Replier replier) {
        replier.ok({});  // "here is my MageExternalServer stub"
      });
  transport_.register_service(proto_verbs::kStaticGet,
                              bind_to(&MageServer::handle_static_get));
  transport_.register_service(proto_verbs::kStaticPut,
                              bind_to(&MageServer::handle_static_put));
  transport_.register_service(proto_verbs::kDiscover,
                              bind_to(&MageServer::handle_discover));

  // MageExternalServer role: migration-family operations pay the one-time
  // engine warm-up ("priming the MAGE engine", Section 5).
  register_warmable(proto_verbs::kClassCheck,
                    bind_to(&MageServer::handle_class_check));
  register_warmable(proto_verbs::kFetchClass,
                    bind_to(&MageServer::handle_fetch_class));
  register_warmable(proto_verbs::kLoadClass,
                    bind_to(&MageServer::handle_load_class));
  register_warmable(proto_verbs::kInstantiate,
                    bind_to(&MageServer::handle_instantiate));
  register_warmable(proto_verbs::kMove, bind_to(&MageServer::handle_move));
  register_warmable(proto_verbs::kTransfer,
                    bind_to(&MageServer::handle_transfer));
  register_warmable(proto_verbs::kExec, bind_to(&MageServer::handle_exec));
}

void MageServer::register_warmable(common::VerbId verb,
                                   rmi::Transport::Service fn) {
  transport_.register_service(
      verb, [this, fn = std::move(fn)](common::NodeId caller, const Body& body,
                                       rmi::Replier replier) {
        if (warmed_) {
          fn(caller, body, std::move(replier));
          return;
        }
        warmed_ = true;
        sim().stats().add("rts.engine_warmups");
        sim().schedule_after(
            model().engine_warmup_us,
            [fn, caller, body, replier = std::move(replier)]() mutable {
              fn(caller, body, std::move(replier));
            });
      });
}

bool MageServer::check_access(Operation op, common::NodeId caller,
                              rmi::Replier& replier) {
  if (caller == self()) return true;  // a namespace always trusts itself
  const std::string& caller_domain =
      transport_.network().domain(caller);
  if (access_.permitted(op, caller, caller_domain)) return true;
  access_.count_denial();
  sim().stats().add("rts.access_denials");
  replier.error(std::string("access denied: ") + operation_name(op) +
                " by node " + std::to_string(caller.value()) +
                (caller_domain.empty() ? "" : " (domain " + caller_domain +
                                                  ")") +
                " rejected by node " + std::to_string(self().value()) +
                "'s policy");
  return false;
}

MageServer::Hint MageServer::locate_hint(
    const common::ComponentName& name) const {
  if (auto it = in_transit_.find(name); it != in_transit_.end()) {
    // The in-flight transfer will bind at our epoch + 1 on arrival.
    return {proto::Status::Moved, it->second.to, it->second.epoch};
  }
  if (auto fwd = registry_.forward(name)) {
    return {proto::Status::Moved, *fwd, registry_.epoch_of(name)};
  }
  return {proto::Status::NotFound, common::kNoNode, 0};
}

// --- registry lookup (forwarding chain + path collapsing) --------------------

void MageServer::handle_lookup(common::NodeId caller, const Body& body,
                               rmi::Replier replier) {
  if (!check_access(Operation::Lookup, caller, replier)) return;
  auto request = proto::LookupRequest::decode(body);
  sim().stats().add("rts.lookups");

  // An in-transit object still has a local binding, but answering "here"
  // would hand out a namespace it is about to leave; chase the transfer.
  if (registry_.has_local(request.name) && !in_transit(request.name)) {
    proto::LookupReply reply;
    reply.status = proto::Status::Ok;
    reply.host = self();
    reply.epoch = registry_.epoch_of(request.name);
    replier.ok(reply.encode());
    return;
  }

  if (request.hops >= kMaxLookupHops) {
    proto::LookupReply reply;
    reply.status = proto::Status::Error;
    reply.error = "forwarding chain exceeded " +
                  std::to_string(kMaxLookupHops) + " hops (cycle?)";
    replier.ok(reply.encode());
    return;
  }

  auto hint = locate_hint(request.name);
  if (hint.status != proto::Status::Moved ||
      (request.min_epoch != 0 && hint.epoch != 0 &&
       hint.epoch < request.min_epoch)) {
    // Either we know nothing, or what we know predates what the caller has
    // already confirmed — walking our chain could only lead somewhere the
    // object left (epoch fence: never hand out placement history that runs
    // backwards, e.g. toward a crashed ex-home).
    proto::LookupReply reply;
    reply.status = proto::Status::NotFound;
    reply.error = hint.status == proto::Status::Moved
                      ? "forwarding knowledge is staler than the caller's"
                      : "no binding and no forwarding address";
    replier.ok(reply.encode());
    return;
  }

  // Walk the chain: ask the next hop, collapse our forwarding entry when
  // the answer comes back ("as the result returns, each server updates its
  // forwarding address", Section 4.1).
  proto::LookupRequest forwarded;
  forwarded.name = request.name;
  forwarded.hops = request.hops + 1;
  forwarded.min_epoch = request.min_epoch;
  sim().stats().add("rts.lookup_hops");
  transport_.call(
      hint.node, proto_verbs::kLookup, forwarded.encode(),
      [this, name = request.name,
       replier = std::move(replier)](rmi::CallResult result) mutable {
        if (!result.ok) {
          proto::LookupReply reply;
          reply.status = proto::Status::Error;
          reply.error = result.error;
          replier.ok(reply.encode());
          return;
        }
        auto reply = proto::LookupReply::decode(result.body);
        if (reply.status == proto::Status::Ok) {
          // Collapse the path, fenced: a reply that raced a newer migration
          // must not roll our knowledge back.
          registry_.update_forward(name, reply.host, reply.epoch);
        }
        replier.ok(reply.encode());
      });
}

// --- class shipping -----------------------------------------------------------

void MageServer::handle_class_check(common::NodeId caller, const Body& body,
                                    rmi::Replier replier) {
  (void)caller;
  auto request = proto::ClassCheckRequest::decode(body);
  proto::ClassCheckReply reply;
  reply.cached = class_cache_.has(request.class_name);
  replier.ok(reply.encode());
}

void MageServer::handle_fetch_class(common::NodeId caller, const Body& body,
                                    rmi::Replier replier) {
  if (!check_access(Operation::FetchClass, caller, replier)) return;
  auto request = proto::FetchClassRequest::decode(body);
  if (!class_cache_.has(request.class_name) ||
      !world_.contains(request.class_name)) {
    replier.error("class '" + request.class_name +
                  "' is not available on node " +
                  std::to_string(self().value()));
    return;
  }
  sim().stats().add("rts.class_fetches");
  proto::ClassImage image;
  image.class_name = request.class_name;
  image.code_size = world_.descriptor(request.class_name).code_size;
  replier.ok(image.encode());
}

void MageServer::handle_load_class(common::NodeId caller, const Body& body,
                                   rmi::Replier replier) {
  if (!check_access(Operation::LoadClass, caller, replier)) return;
  auto request = proto::LoadClassRequest::decode(body);
  if (!world_.contains(request.image.class_name)) {
    replier.error("class '" + request.image.class_name +
                  "' has no registered implementation");
    return;
  }
  if (class_cache_.has(request.image.class_name)) {
    proto::SimpleReply reply;
    replier.ok(reply.encode());
    return;
  }
  sim().stats().add("rts.class_loads");
  sim().schedule_after(model().class_load_us,
                       [this, request, replier = std::move(replier)]() mutable {
    class_cache_.on_image_received(request.image.class_name);
    proto::SimpleReply reply;
    replier.ok(reply.encode());
  });
}

void MageServer::ensure_class_then(const std::string& class_name,
                                   common::NodeId source, EnsureClassFn then) {
  if (class_cache_.has(class_name)) {
    then(true, {});
    return;
  }
  if (common::is_no_node(source) || source == self()) {
    then(false, "class '" + class_name + "' missing and no source to fetch");
    return;
  }
  proto::FetchClassRequest request{class_name};
  transport_.call(
      source, proto_verbs::kFetchClass, request.encode(),
      [this, class_name,
       then = std::move(then)](rmi::CallResult result) mutable {
        if (!result.ok) {
          then(false, result.error);
          return;
        }
        sim().stats().add("rts.class_loads");
        sim().schedule_after(model().class_load_us,
                             [this, class_name,
                              then = std::move(then)]() mutable {
          class_cache_.on_image_received(class_name);
          then(true, {});
        });
      });
}

// --- instantiation ---------------------------------------------------------------

void MageServer::handle_instantiate(common::NodeId caller, const Body& body,
                                    rmi::Replier replier) {
  if (!check_access(Operation::Instantiate, caller, replier)) return;
  if (!resources_.admits_object(registry_.local_names().size())) {
    replier.error("capacity exceeded: node " +
                  std::to_string(self().value()) +
                  " will not host another object");
    sim().stats().add("rts.capacity_rejections");
    return;
  }
  auto request = proto::InstantiateRequest::decode(body);
  const common::NodeId source = common::is_no_node(request.class_source)
                                    ? caller
                                    : request.class_source;
  ensure_class_then(
      request.class_name, source,
      [this, request,
       replier = std::move(replier)](bool ok, std::string error) mutable {
        if (!ok) {
          proto::SimpleReply reply;
          reply.status = proto::Status::Error;
          reply.error = std::move(error);
          replier.ok(reply.encode());
          return;
        }
        sim().schedule_after(
            model().instantiate_us,
            [this, request, replier = std::move(replier)]() mutable {
          registry_.bind(request.object_name,
                         world_.instantiate(request.class_name));
          sim().stats().add("rts.instantiations");
          proto::SimpleReply reply;
          replier.ok(reply.encode());
        });
      });
}

// Condensed remote evaluation (the Section 5 optimization): class check,
// instantiation, invocation and result return ride one RMI exchange.
void MageServer::handle_exec(common::NodeId caller, const Body& body,
                             rmi::Replier replier) {
  if (!check_access(Operation::Instantiate, caller, replier)) return;
  if (!resources_.admits_object(registry_.local_names().size())) {
    replier.error("capacity exceeded: node " +
                  std::to_string(self().value()) +
                  " will not host another object");
    sim().stats().add("rts.capacity_rejections");
    return;
  }
  auto request = proto::ExecRequest::decode(body);
  const common::NodeId source = common::is_no_node(request.class_source)
                                    ? caller
                                    : request.class_source;
  ensure_class_then(
      request.class_name, source,
      [this, request,
       replier = std::move(replier)](bool ok, std::string error) mutable {
        if (!ok) {
          proto::InvokeReply reply;
          reply.status = proto::Status::Error;
          reply.error = std::move(error);
          replier.ok(reply.encode());
          return;
        }
        sim().schedule_after(
            model().instantiate_us,
            [this, request, replier = std::move(replier)]() mutable {
          registry_.bind(request.object_name,
                         world_.instantiate(request.class_name));
          sim().stats().add("rts.instantiations");
          proto::InvokeRequest invoke;
          invoke.name = request.object_name;
          invoke.method = request.method;
          invoke.args = request.args;
          common::SimDuration cost = 0;
          try {
            cost = world_.method(request.class_name, request.method).cost_us;
          } catch (const common::MageError&) {
          }
          sim().stats().add("rts.condensed_execs");
          sim().schedule_after(
              cost, [this, invoke = std::move(invoke),
                     replier = std::move(replier)]() mutable {
            replier.ok(run_method(invoke).encode());
          });
        });
      });
}

// --- migration (the Figure 7 protocol, server side) ----------------------------

void MageServer::handle_move(common::NodeId caller, const Body& body,
                             rmi::Replier replier) {
  if (!check_access(Operation::MoveOut, caller, replier)) return;
  auto request = proto::MoveRequest::decode(body);

  if (!registry_.has_local(request.name) || in_transit(request.name)) {
    auto hint = locate_hint(request.name);
    proto::SimpleReply reply;
    reply.status = hint.status;
    reply.hint = hint.node;
    reply.hint_epoch = hint.epoch;
    reply.error = "object is not at this node";
    replier.ok(reply.encode());
    return;
  }

  if (request.to == self()) {
    proto::SimpleReply reply;  // already at the target: nothing to move
    reply.hint = self();
    reply.hint_epoch = registry_.epoch_of(request.name);
    replier.ok(reply.encode());
    return;
  }

  migrate(request.name, request.to,
          [replier = std::move(replier)](rmi::CallResult result) mutable {
            if (result.ok) {
              replier.ok(std::move(result.body));
              return;
            }
            proto::SimpleReply reply;
            reply.status = proto::Status::Error;
            reply.error = "transfer failed: " + result.error;
            replier.ok(reply.encode());
          });
}

void MageServer::migrate(const common::ComponentName& name, common::NodeId to,
                         rmi::Transport::Callback done) {
  // Weak migration: serialize heap state, ship it, and only unbind the
  // local copy once the destination acknowledges.  While the transfer is in
  // flight the object is marked in-transit so concurrent invocations and
  // moves are redirected rather than seeing a half-moved object — this is
  // the "object movement is not atomic" hazard of Section 4.4 handled
  // structurally.
  MageObject& object = registry_.local(name);
  serial::Writer state_writer;
  object.serialize(state_writer);

  // This migration advances the object's placement history by one epoch;
  // the destination binds at new_epoch, every hint we leave behind carries
  // it, and anything older is fenced out downstream.
  const std::uint64_t new_epoch = registry_.epoch_of(name) + 1;

  proto::TransferRequest transfer;
  transfer.name = name;
  transfer.class_name = object.class_name();
  transfer.is_public =
      directory_.contains(name) ? directory_.info(name).is_public : false;
  transfer.epoch = new_epoch;
  transfer.state = state_writer.take();

  in_transit_[name] = Departure{to, new_epoch, std::move(done)};
  transport_.call(
      to, proto_verbs::kTransfer, transfer.encode(),
      [this, name = name](rmi::CallResult result) {
        Departure departure = std::move(in_transit_.extract(name).mapped());
        if (!result.ok) {
          departure.done(std::move(result));
          return;
        }
        proto::SimpleReply reply;
        const auto transfer_reply = proto::SimpleReply::decode(result.body);
        if (transfer_reply.status != proto::Status::Ok) {
          reply.status = proto::Status::Error;
          reply.error = "transfer rejected: " + transfer_reply.error;
        } else {
          // Destination has the object: retire the local copy and leave a
          // forwarding address behind, fenced at the migration's epoch.
          auto departed = registry_.unbind(name);
          departed.reset();
          registry_.update_forward(name, departure.to, departure.epoch);
          locks_.on_object_departed(name, departure.to);
          sim().stats().add("rts.migrations");
          // The Ok reply tells the mover where the object now is and at
          // which epoch (so it can announce the move to the directory).
          reply.hint = departure.to;
          reply.hint_epoch = departure.epoch;
        }
        result.body = reply.encode();
        departure.done(std::move(result));
      });
}

void MageServer::handle_transfer(common::NodeId caller, const Body& body,
                                 rmi::Replier replier) {
  if (!check_access(Operation::TransferIn, caller, replier)) return;
  auto request = proto::TransferRequest::decode(body);
  if (!resources_.admits_object(registry_.local_names().size()) ||
      !resources_.admits_transfer(request.state.size())) {
    replier.error("capacity exceeded: node " +
                  std::to_string(self().value()) +
                  " rejects transfer of '" + request.name + "' (" +
                  std::to_string(request.state.size()) + " state bytes)");
    sim().stats().add("rts.capacity_rejections");
    return;
  }
  ensure_class_then(
      request.class_name, caller,
      [this, request,
       replier = std::move(replier)](bool ok, std::string error) mutable {
        if (!ok) {
          proto::SimpleReply reply;
          reply.status = proto::Status::Error;
          reply.error = std::move(error);
          replier.ok(reply.encode());
          return;
        }
        sim().schedule_after(
            model().instantiate_us,
            [this, request, replier = std::move(replier)]() mutable {
          serial::Reader state(request.state);
          registry_.bind(request.name,
                         world_.deserialize(request.class_name, state),
                         request.epoch);
          sim().stats().add("rts.transfers_in");
          proto::SimpleReply reply;
          replier.ok(reply.encode());
        });
      });
}

// --- invocation -------------------------------------------------------------------

proto::InvokeReply MageServer::run_method(const proto::InvokeRequest& request) {
  proto::InvokeReply reply;
  try {
    MageObject& object = registry_.local(request.name);
    const MethodEntry& entry =
        world_.method(object.class_name(), request.method);
    reply.result = entry.fn(object, request.args);
    reply.status = proto::Status::Ok;
  } catch (const common::MageError& e) {
    reply.status = proto::Status::Error;
    reply.error = e.what();
  }
  return reply;
}

void MageServer::handle_invoke(common::NodeId caller, const Body& body,
                               rmi::Replier replier) {
  if (!check_access(Operation::Invoke, caller, replier)) return;
  auto request = proto::InvokeRequest::decode(body);
  if (!registry_.has_local(request.name) || in_transit(request.name)) {
    auto hint = locate_hint(request.name);
    proto::InvokeReply reply;
    reply.status = hint.status;
    reply.hint = hint.node;
    reply.hint_epoch = hint.epoch;
    reply.error = "object is not at this node";
    replier.ok(reply.encode());
    return;
  }

  sim().stats().add("rts.invocations");
  common::SimDuration cost = 0;
  try {
    MageObject& object = registry_.local(request.name);
    cost = world_.method(object.class_name(), request.method).cost_us;
  } catch (const common::MageError&) {
    // run_method will produce the error reply below.
  }
  sim().schedule_after(cost, [this, request = std::move(request),
                              replier = std::move(replier)]() mutable {
    // Re-validate at execution time: a migration that started while this
    // invocation waited its CPU turn has already serialized the object's
    // state, so executing now would mutate a doomed local copy and the
    // update would silently vanish at the new host.  Redirect instead —
    // the method has not run, so the caller's retry at the destination is
    // still exactly-once.
    if (!registry_.has_local(request.name) || in_transit(request.name)) {
      auto hint = locate_hint(request.name);
      proto::InvokeReply reply;
      reply.status = hint.status;
      reply.hint = hint.node;
      reply.hint_epoch = hint.epoch;
      reply.error = "object left while the invocation awaited CPU";
      replier.ok(reply.encode());
      return;
    }
    replier.ok(run_method(request).encode());
  });
}

void MageServer::handle_invoke_oneway(common::NodeId caller, const Body& body,
                                      rmi::Replier replier) {
  if (!check_access(Operation::Invoke, caller, replier)) return;
  auto request = proto::InvokeRequest::decode(body);
  if (!registry_.has_local(request.name) || in_transit(request.name)) {
    auto hint = locate_hint(request.name);
    proto::InvokeReply reply;
    reply.status = hint.status;
    reply.hint = hint.node;
    reply.hint_epoch = hint.epoch;
    reply.error = "object is not at this node";
    replier.ok(reply.encode());
    return;
  }

  // Mobile-agent semantics (Section 3.5): the invocation is asynchronous
  // and "the result stays at the remote host".  Acknowledge first, execute
  // after, park the result for a later fetch_result.
  proto::InvokeReply ack;
  ack.status = proto::Status::Ok;
  replier.ok(ack.encode());

  sim().stats().add("rts.oneway_invocations");
  common::SimDuration cost = 0;
  try {
    MageObject& object = registry_.local(request.name);
    cost = world_.method(object.class_name(), request.method).cost_us;
  } catch (const common::MageError&) {
  }
  sim().schedule_after(cost, [this, request = std::move(request)]() mutable {
    auto reply = run_method(request);
    registry_.park_result(request.name, reply.status == proto::Status::Ok
                                            ? std::move(reply.result)
                                            : serial::Buffer{});
  });
}

void MageServer::handle_fetch_result(common::NodeId caller, const Body& body,
                                     rmi::Replier replier) {
  (void)caller;
  auto request = proto::FetchResultRequest::decode(body);
  proto::InvokeReply reply;
  if (auto result = registry_.take_result(request.name)) {
    reply.status = proto::Status::Ok;
    reply.result = std::move(*result);
  } else {
    reply.status = proto::Status::Error;
    reply.error = "no parked result for '" + request.name + "'";
  }
  replier.ok(reply.encode());
}

// --- locking ---------------------------------------------------------------------

void MageServer::handle_lock(common::NodeId caller, const Body& body,
                             rmi::Replier replier) {
  if (!check_access(Operation::Lock, caller, replier)) return;
  auto request = proto::LockRequest::decode(body);
  if (!registry_.has_local(request.name) || in_transit(request.name)) {
    auto hint = locate_hint(request.name);
    proto::LockReply reply;
    reply.status = hint.status;
    reply.hint = hint.node;
    reply.hint_epoch = hint.epoch;
    reply.error = "object is not at this node";
    replier.ok(reply.encode());
    return;
  }

  // Exactly one of the two callbacks fires; the one-shot Replier is shared
  // between them (LockManager callbacks must be copyable std::functions).
  auto shared_replier = std::make_shared<rmi::Replier>(std::move(replier));
  locks_.request(
      request.name, common::ActivityId{request.activity},
      request.target,
      [this, shared_replier](LockGrant grant) {
        sim().stats().add(grant.kind == LockKind::Stay ? "rts.locks_stay"
                                                       : "rts.locks_move");
        proto::LockReply reply;
        reply.status = proto::Status::Ok;
        reply.lock_id = grant.id.value();
        reply.kind = grant.kind;
        shared_replier->ok(reply.encode());
      },
      [shared_replier](common::NodeId new_host) {
        proto::LockReply reply;
        reply.status = proto::Status::Moved;
        reply.hint = new_host;
        reply.error = "object departed while the lock request was queued";
        shared_replier->ok(reply.encode());
      });
}

void MageServer::handle_unlock(common::NodeId caller, const Body& body,
                               rmi::Replier replier) {
  (void)caller;
  auto request = proto::UnlockRequest::decode(body);
  proto::SimpleReply reply;
  if (!locks_.release(request.name, common::LockId{request.lock_id})) {
    reply.status = proto::Status::Error;
    reply.error = "lock " + std::to_string(request.lock_id) +
                  " does not hold '" + request.name + "'";
  }
  replier.ok(reply.encode());
}

// --- misc ----------------------------------------------------------------------

void MageServer::handle_get_load(common::NodeId caller, const Body& body,
                                 rmi::Replier replier) {
  (void)caller;
  (void)body;
  proto::LoadReply reply;
  reply.load = transport_.network().load(self());
  replier.ok(reply.encode());
}

void MageServer::handle_manifest(common::NodeId caller, const Body& body,
                                 rmi::Replier replier) {
  (void)caller;
  auto request = proto::ManifestRequest::decode(body);
  proto::ManifestReply reply;
  for (const auto& name : registry_.local_names()) {
    if (name.rfind(request.prefix, 0) != 0) continue;
    // A component mid-transfer away from here is already leaving; offering
    // it as a migration victim would race its own move.
    if (in_transit_.contains(name)) continue;
    reply.entries.emplace_back(name, registry_.epoch_of(name));
  }
  replier.ok(reply.encode());
}

void MageServer::handle_discover(common::NodeId caller, const Body& body,
                                 rmi::Replier replier) {
  (void)caller;
  auto request = proto::DiscoverRequest::decode(body);
  proto::DiscoverReply reply;
  reply.offers = resource_board_.offers(request.kind);
  reply.capacity = resource_board_.capacity(request.kind);
  replier.ok(reply.encode());
}

// --- class statics (home-station coherency) ----------------------------------
//
// Every read and write of a class's static fields is served by the class's
// statics home, so class data is trivially sequentially consistent — the
// coherency extension Section 4.2 says cloning classes requires.

void MageServer::handle_static_get(common::NodeId caller, const Body& body,
                                   rmi::Replier replier) {
  (void)caller;
  auto request = proto::StaticGetRequest::decode(body);
  if (!world_.contains(request.class_name) ||
      world_.descriptor(request.class_name).statics_home != self()) {
    replier.error("node " + std::to_string(self().value()) +
                  " is not the statics home of class '" +
                  request.class_name + "'");
    return;
  }
  proto::InvokeReply reply;
  const auto class_it = statics_.find(request.class_name);
  if (class_it != statics_.end()) {
    if (auto it = class_it->second.find(request.key);
        it != class_it->second.end()) {
      reply.status = proto::Status::Ok;
      reply.result = it->second;
      replier.ok(reply.encode());
      return;
    }
  }
  reply.status = proto::Status::NotFound;
  reply.error = "no static '" + request.key + "' on class '" +
                request.class_name + "'";
  replier.ok(reply.encode());
}

void MageServer::handle_static_put(common::NodeId caller, const Body& body,
                                   rmi::Replier replier) {
  (void)caller;
  auto request = proto::StaticPutRequest::decode(body);
  if (!world_.contains(request.class_name) ||
      world_.descriptor(request.class_name).statics_home != self()) {
    replier.error("node " + std::to_string(self().value()) +
                  " is not the statics home of class '" +
                  request.class_name + "'");
    return;
  }
  statics_[request.class_name][request.key] = std::move(request.value);
  sim().stats().add("rts.static_writes");
  proto::SimpleReply reply;
  replier.ok(reply.encode());
}

}  // namespace mage::rts
