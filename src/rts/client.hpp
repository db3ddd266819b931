// MageClient: the driver-side API mobility attributes are built on.
//
// A MageClient represents one application activity running inside one
// namespace.  Its methods are synchronous — they send protocol messages and
// run the simulation until the reply lands — which reproduces the paper's
// programming model: the programmer calls ma.bind() and then invokes
// methods, while "the MAGE RTS transparently manages location of code and
// data".
//
// Operations addressed to "wherever the object currently is" (find,
// invoke, invoke_oneway, move, lock) are blocking adapters over
// AsyncClient's chase, the runtime's only one: they issue its future from
// the caller's cached location (cloc) and run the event loop until it
// completes.  This is what lets mobility attributes that assume static
// placement keep working on mobile components (Section 3.6).  The adapter
// adds only the paper's sync-side costs — a registry consult per find,
// local calls run in place — and raises failures through
// rmi::throw_if_marked, like Transport::call_sync (docs/API.md).
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "rmi/transport.hpp"
#include "rts/async_client.hpp"
#include "rts/directory.hpp"
#include "rts/protocol.hpp"
#include "rts/server.hpp"
#include "serial/traits.hpp"

namespace mage::rts {

class MageClient {
 public:
  MageClient(rmi::Transport& transport, MageServer& local_server,
             Directory& directory, const ClassWorld& world,
             common::ActivityId activity);

  [[nodiscard]] common::NodeId self() const { return transport_.self(); }
  [[nodiscard]] common::ActivityId activity() const { return activity_; }
  [[nodiscard]] MageServer& local_server() { return local_server_; }
  [[nodiscard]] Directory& directory() { return directory_; }

  // Opt-in high-availability naming (see AsyncClient::
  // set_directory_client); new components are announced to the quorum
  // too.  Null by default (pure static-directory behavior).  Not owned.
  void set_directory_client(DirectoryClient* dclient) {
    chase_.set_directory_client(dclient);
  }

  // The chase's epoch fences (AsyncClient::note_epoch).
  void note_epoch(const common::ComponentName& name, std::uint64_t epoch) {
    chase_.note_epoch(name, epoch);
  }
  [[nodiscard]] std::uint64_t known_epoch(
      const common::ComponentName& name) const {
    return chase_.known_epoch(name);
  }
  [[nodiscard]] sim::Simulation& simulation() {
    return transport_.network().node_sim(transport_.self());
  }
  // This node's own random stream (net::Network::node_rng).
  [[nodiscard]] common::Rng& rng() {
    return transport_.network().node_rng(transport_.self());
  }

  // --- component lifecycle --------------------------------------------------

  // Creates a component in this namespace: instantiates `class_name`
  // locally, binds it under `name`, and announces the (name, class, home =
  // this node, is_public) tuple in the static directory.
  MageObject& create_component(const common::ComponentName& name,
                               const std::string& class_name,
                               bool is_public = false);

  // Borrows a locally hosted object (e.g. to set initial state).
  MageObject& local_object(const common::ComponentName& name);

  [[nodiscard]] bool has_local(const common::ComponentName& name) const;

  // --- registry --------------------------------------------------------------

  // Resolves the component's current namespace: a local MAGE registry
  // consult (cheap, direct), then AsyncClient::locate — forwarding chains
  // walked from the best-known starting point.  Throws NotFoundError.
  common::NodeId find(const common::ComponentName& name);

  [[nodiscard]] bool is_shared(const common::ComponentName& name) const;

  // --- class & object movement ----------------------------------------------

  // Moves the component's object to `to`; returns the new host (== to).
  // `hint` short-circuits the initial find when the caller tracks cloc.
  common::NodeId move(const common::ComponentName& name, common::NodeId to,
                      common::NodeId hint = common::kNoNode);

  // Push-style class shipping (REV/MA): revalidates the target's copy of
  // the class and pushes the image when missing.  Per the traditional
  // models, the revalidation round trip happens on *every* call; only the
  // image bytes are saved by the target's class cache.
  void ensure_class_at(common::NodeId target, const std::string& class_name);

  // Pull-style class shipping (COD): fetches the image from `source` into
  // this namespace's cache.  The revalidation round trip always happens;
  // the image transfer is skipped when the local cache already has it.
  void fetch_class_to_local(common::NodeId source,
                            const std::string& class_name);

  // Remote factory: instantiate `class_name` at `target` under
  // `object_name` and record the binding (home = this node).
  void instantiate_at(common::NodeId target, const std::string& class_name,
                      const common::ComponentName& object_name,
                      bool is_public = false);

  // Traditional REV's per-bind Naming.lookup of the remote execution
  // server's stub — a full RMI round trip to `target`.
  void resolve_server(common::NodeId target);

  // Ships a *locally hosted* object directly to `to` (the agent-style
  // transfer: state and dispatch travel in one message; the receiver pulls
  // the class image only if it lacks it), through the same send-and-retire
  // path as mage.move (MageServer::migrate).
  void transfer_out(const common::ComponentName& name, common::NodeId to);

  // --- invocation ----------------------------------------------------------

  // Synchronous typed invocation; chases the object from `cloc` (kNoNode:
  // find first), and updates `cloc` to the host that ran the method.
  template <typename R, typename... Args>
  R invoke(common::NodeId& cloc, const common::ComponentName& name,
           const std::string& method, const Args&... args) {
    serial::Writer w;
    (serial::put(w, args), ...);
    auto result = invoke_raw(cloc, name, method, w.take());
    serial::Reader r(result);
    return serial::get<R>(r);
  }

  // Asynchronous one-way invocation (mobile-agent semantics): the reply is
  // only an acknowledgement; the result stays at the host.
  template <typename... Args>
  void invoke_oneway(common::NodeId& cloc, const common::ComponentName& name,
                     const std::string& method, const Args&... args) {
    serial::Writer w;
    (serial::put(w, args), ...);
    invoke_oneway_raw(cloc, name, method, w.take());
  }

  // Retrieves a result parked by a one-way invocation.
  template <typename R>
  R fetch_result(common::NodeId& cloc, const common::ComponentName& name) {
    auto result = fetch_result_raw(cloc, name);
    serial::Reader r(result);
    return serial::get<R>(r);
  }

  serial::Buffer invoke_raw(common::NodeId& cloc,
                            const common::ComponentName& name,
                            const std::string& method, serial::Buffer args);
  void invoke_oneway_raw(common::NodeId& cloc,
                         const common::ComponentName& name,
                         const std::string& method, serial::Buffer args);
  serial::Buffer fetch_result_raw(common::NodeId& cloc,
                                  const common::ComponentName& name);

  // --- condensed remote evaluation --------------------------------------------------

  // The Section 5 optimization: instantiate `class_name` at `target` under
  // `object_name`, invoke `method`, and return the result — all in a
  // single RMI exchange (vs traditional REV's four).
  template <typename R, typename... Args>
  R exec_at(common::NodeId target, const std::string& class_name,
            const common::ComponentName& object_name,
            const std::string& method, const Args&... args) {
    serial::Writer w;
    (serial::put(w, args), ...);
    auto result = exec_at_raw(target, class_name, object_name, method,
                              w.take());
    serial::Reader r(result);
    return serial::get<R>(r);
  }

  serial::Buffer exec_at_raw(common::NodeId target,
                             const std::string& class_name,
                             const common::ComponentName& name,
                             const std::string& method, serial::Buffer args);

  // --- resource discovery --------------------------------------------------------

  // Queries each candidate namespace for resources of `kind`; returns the
  // offering hosts with their advertised capacities (unreachable or
  // denying candidates are skipped).  One RMI per candidate.
  std::vector<DiscoveredHost> discover(
      const std::string& kind,
      const std::vector<common::NodeId>& candidates);

  // Convenience: the offering host with the highest capacity, or kNoNode.
  common::NodeId discover_best(const std::string& kind,
                               const std::vector<common::NodeId>& candidates);

  // --- class statics -----------------------------------------------------------

  // Reads / writes a static field of `class_name` at its statics home
  // (home-station coherency: every access is one round trip to the home,
  // so class data stays sequentially consistent despite class cloning).
  template <typename T>
  T static_get(const std::string& class_name, const std::string& key) {
    auto bytes = static_get_raw(class_name, key);
    serial::Reader r(bytes);
    return serial::get<T>(r);
  }

  template <typename T>
  void static_put(const std::string& class_name, const std::string& key,
                  const T& value) {
    serial::Writer w;
    serial::put(w, value);
    static_put_raw(class_name, key, w.take());
  }

  serial::Buffer static_get_raw(const std::string& class_name,
                                const std::string& key);
  void static_put_raw(const std::string& class_name, const std::string& key,
                      serial::Buffer value);

  // --- locking ----------------------------------------------------------------

  // Acquires the stay/move lock for `name`, computing at `target`
  // (Section 4.4: "the lock method takes the name of the object and the
  // mobility attribute's target").  Blocks (in simulated time) while the
  // lock is held elsewhere.
  LockHandle lock(const common::ComponentName& name, common::NodeId target);
  void unlock(const LockHandle& handle);

  // Async variants for multi-activity interleaving tests: one request to
  // `host`, not chased — lock_async hands back the host's reply as sent
  // (AsyncClient::lock_at).  Move-only callbacks (the spine's convention):
  // captures routinely hold Buffers and handles, and a UniqueFunction small
  // enough for the inline SBO never heap-allocates.
  void lock_async(common::NodeId host, const common::ComponentName& name,
                  common::NodeId target,
                  common::UniqueFunction<void(proto::LockReply)> on_reply);
  void unlock_async(common::NodeId host, const common::ComponentName& name,
                    std::uint64_t lock_id,
                    common::UniqueFunction<void()> on_reply);

  // --- misc --------------------------------------------------------------------

  [[nodiscard]] double load_of(common::NodeId node);
  void ping(common::NodeId node);

  // Advances simulated time by `d` on behalf of driver-side CPU work.
  void charge(common::SimDuration d);

 private:
  [[nodiscard]] const net::CostModel& model() const;

  // Runs the event loop until `future` completes; returns its value, or
  // raises its error — a marked one by rmi::throw_if_marked, anything else
  // as the exception `unmarked(error)` returns.
  template <typename T, typename Unmarked>
  T await(const MageFuture<T>& future, Unmarked unmarked);

  rmi::Transport& transport_;
  MageServer& local_server_;
  Directory& directory_;
  const ClassWorld& world_;
  common::ActivityId activity_;
  AsyncClient chase_;
  // (target, class) pairs this client knows are cached remotely — lets a
  // cold push ship the image in one optimistic round trip while warm
  // pushes degrade to a small revalidation call.
  std::set<std::pair<common::NodeId, std::string>> classes_pushed_;
};

}  // namespace mage::rts
