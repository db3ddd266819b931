// MAGE wire protocol: verbs and message bodies.
//
// Every struct encodes to / decodes from the RMI envelope body.  The verbs
// are the operations MageServer registers with its Transport; together they
// implement the protocols of Section 4 — registry lookup with forwarding
// chains (4.1), class shipping and object migration (4.2, 4.3/Figure 7),
// invocation, and lock requests (4.4/Figure 8).
//
// Encoding: each struct lists its fields once, in wire order, with
// MAGE_PROTO_FIELDS; one encode and one decode template (namespace codec)
// walk that list.  The encoding is untagged: a field is its bare
// little-endian value (u8-backed enums, bool, u32/NodeId, u64, f64), a
// u32-length-prefixed string or byte block, a u32 count followed by the
// entries, or a nested struct's own field list.  A struct with a
// serial::Buffer field (invocation args, migrating object state, results,
// static values) encodes to a serial::BufferChain through a ChainWriter, so
// the payload rides as its own fragment by refcount instead of being copied
// into the body; every other struct encodes to one flat serial::Buffer.
// The logical byte stream is identical either way, so decode() accepts a
// ChainReader, a flat Buffer (tests, tools) or the BufferChain a service
// receives.  Decode is bounds-checked: truncation, an out-of-range enum or
// a count the remaining bytes cannot hold raises SerializationError.
// docs/WIRE_FORMAT.md records the byte-level layouts; each of its table
// rows is one struct's field list.
#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/ids.hpp"
#include "common/verb.hpp"
#include "rts/lock_manager.hpp"
#include "serial/buffer.hpp"
#include "serial/chain.hpp"
#include "serial/reader.hpp"
#include "serial/writer.hpp"

namespace mage::rts::proto {

// Operation names.  The ".reply"-suffixed verbs on the wire are added by
// the transport; these are the request verbs.
namespace verbs {
inline const common::VerbId kLookup = common::intern_verb("mage.lookup");
inline const common::VerbId kClassCheck = common::intern_verb("mage.class_check");
inline const common::VerbId kFetchClass = common::intern_verb("mage.fetch_class");
inline const common::VerbId kLoadClass = common::intern_verb("mage.load_class");
inline const common::VerbId kInstantiate = common::intern_verb("mage.instantiate");
inline const common::VerbId kMove = common::intern_verb("mage.move");
inline const common::VerbId kTransfer = common::intern_verb("mage.transfer");
inline const common::VerbId kInvoke = common::intern_verb("mage.invoke");
inline const common::VerbId kInvokeOneway = common::intern_verb("mage.invoke_oneway");
inline const common::VerbId kFetchResult = common::intern_verb("mage.fetch_result");
inline const common::VerbId kLock = common::intern_verb("mage.lock");
inline const common::VerbId kUnlock = common::intern_verb("mage.unlock");
inline const common::VerbId kGetLoad = common::intern_verb("mage.get_load");
inline const common::VerbId kPing = common::intern_verb("mage.ping");
// Traditional REV's per-bind lookup of the remote execution server's stub
// (Naming.lookup against the target's RMI registry).
inline const common::VerbId kResolveServer = common::intern_verb("mage.resolve_server");
// Static-field coherency (the Section 4.2 limitation, implemented): class
// data lives at the class's statics home and is read/written there.
inline const common::VerbId kStaticGet = common::intern_verb("mage.static_get");
inline const common::VerbId kStaticPut = common::intern_verb("mage.static_put");
// Resource discovery ("support host and resource discovery", Section 1).
inline const common::VerbId kDiscover = common::intern_verb("mage.discover");
// Condensed remote evaluation — the Section 5 optimization: "condensing
// the number of RMI calls ... by better utilizing the in and out variables
// of a single Java RMI call".  One exchange carries instantiate + invoke.
inline const common::VerbId kExec = common::intern_verb("mage.exec");
// Partition ops for the distributed collections (src/rts/dist/): list
// the components bound on a node, so a rebalancer can pick a migration
// victim from the hot node's authoritative local view.
inline const common::VerbId kManifest = common::intern_verb("mage.manifest");
// Replicated directory control plane (the Section 7 static-home fix):
// leader election among the director quorum, plus placement-record
// announce/resolve/replicate.
inline const common::VerbId kRequestVote = common::intern_verb("dir.request_vote");
inline const common::VerbId kHeartbeat = common::intern_verb("dir.heartbeat");
inline const common::VerbId kDirAnnounce = common::intern_verb("dir.announce");
inline const common::VerbId kDirResolve = common::intern_verb("dir.resolve");
inline const common::VerbId kDirReplicate = common::intern_verb("dir.replicate");
}  // namespace verbs

// Shared status for operations addressed to "the node currently hosting X":
// the host may answer Ok, or redirect the caller along its forwarding chain
// (Moved + hint), or declare the name unknown.
enum class Status : std::uint8_t {
  Ok = 0,
  Moved = 1,     // not here; try `hint`
  NotFound = 2,  // unknown name, no forwarding information
  Error = 3,     // application-level failure, see `error`
};

[[nodiscard]] const char* status_name(Status s);

// --- field-list codec -----------------------------------------------------

// Largest valid value of each u8-backed enum; decode rejects anything above.
template <typename E>
inline constexpr std::uint8_t kEnumMax = 0;
template <>
inline constexpr std::uint8_t kEnumMax<Status> = 3;
template <>
inline constexpr std::uint8_t kEnumMax<LockKind> = 1;

// ManifestReply's (component name, placement epoch) entries.
using ManifestEntries =
    std::vector<std::pair<common::ComponentName, std::uint64_t>>;

namespace codec {

template <typename W, typename T>
void put(W& w, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    w.write_bool(v);
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    w.write_u32(v);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    w.write_u64(v);
  } else if constexpr (std::is_same_v<T, double>) {
    w.write_f64(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.write_string(v);
  } else if constexpr (std::is_same_v<T, common::NodeId>) {
    w.write_u32(v.value());
  } else if constexpr (std::is_enum_v<T>) {
    w.write_u8(static_cast<std::uint8_t>(v));
  } else if constexpr (std::is_same_v<T, serial::Buffer>) {
    w.append_payload(v);  // zero-copy fragment
  } else if constexpr (std::is_same_v<T, ManifestEntries>) {
    w.write_u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& [name, epoch] : v) {
      w.write_string(name);
      w.write_u64(epoch);
    }
  } else if constexpr (requires { v.fields(); }) {
    std::apply([&w](const auto&... f) { (codec::put(w, f), ...); },
               v.fields());
  } else {
    v.put_fields(w);  // hand-written layout (ClassImage's filler)
  }
}

template <typename T>
void get(serial::ChainReader& r, T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    v = r.read_bool();
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    v = r.read_u32();
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    v = r.read_u64();
  } else if constexpr (std::is_same_v<T, double>) {
    v = r.read_f64();
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = r.read_string();
  } else if constexpr (std::is_same_v<T, common::NodeId>) {
    v = common::NodeId{r.read_u32()};
  } else if constexpr (std::is_enum_v<T>) {
    static_assert(kEnumMax<T> > 0, "specialize kEnumMax for this enum");
    const std::uint8_t raw = r.read_u8();
    if (raw > kEnumMax<T>) {
      throw common::SerializationError("enum value " + std::to_string(raw) +
                                       " out of range");
    }
    v = static_cast<T>(raw);
  } else if constexpr (std::is_same_v<T, serial::Buffer>) {
    v = r.read_bytes();
  } else if constexpr (std::is_same_v<T, ManifestEntries>) {
    const std::uint32_t n = r.read_u32();
    // An entry is at least 12 bytes (empty name, epoch): reject a count the
    // remaining bytes cannot hold before reserving for it.
    if (n > r.remaining() / 12) {
      throw common::SerializationError(
          "count " + std::to_string(n) + " exceeds the " +
          std::to_string(r.remaining()) + " bytes that remain");
    }
    v.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      std::string name = r.read_string();
      v.emplace_back(std::move(name), r.read_u64());
    }
  } else if constexpr (requires { v.fields(); }) {
    std::apply([&r](auto&... f) { (codec::get(r, f), ...); }, v.fields());
  } else {
    v.get_fields(r);  // hand-written layout (ClassImage's filler)
  }
}

// A struct with a Buffer field encodes to a chain (payload by refcount);
// every other struct to one flat Buffer.
template <typename T>
constexpr bool has_payload() {
  if constexpr (requires(const T& v) { v.fields(); }) {
    return []<typename... F>(std::tuple<F...>*) {
      return (std::is_same_v<std::remove_cvref_t<F>, serial::Buffer> || ...);
    }(static_cast<decltype(std::declval<const T&>().fields())*>(nullptr));
  } else {
    return false;
  }
}

template <typename T>
auto encode(const T& v) {
  std::conditional_t<has_payload<T>(), serial::ChainWriter, serial::Writer> w;
  codec::put(w, v);
  return w.take();
}

template <typename T>
T decode(serial::ChainReader& r) {
  T v;
  codec::get(r, v);
  return v;
}

}  // namespace codec

// encode() plus the three decode() forms: a ChainReader, a flat Buffer, or
// the BufferChain a service receives.
#define MAGE_PROTO_CODEC(T)                                          \
  [[nodiscard]] auto encode() const { return codec::encode(*this); } \
  static T decode(serial::ChainReader& r) { return codec::decode<T>(r); } \
  static T decode(const serial::Buffer& bytes) {                     \
    serial::ChainReader r(bytes);                                    \
    return decode(r);                                                \
  }                                                                  \
  static T decode(const serial::BufferChain& body) {                 \
    serial::ChainReader r(body);                                     \
    return decode(r);                                                \
  }

// The struct's wire layout: its fields, in wire order.
#define MAGE_PROTO_FIELDS(T, ...)                                  \
  auto fields() { return std::tie(__VA_ARGS__); }                  \
  auto fields() const { return std::tie(__VA_ARGS__); }            \
  MAGE_PROTO_CODEC(T)

// --- registry lookup ---------------------------------------------------

struct LookupRequest {
  common::ComponentName name;
  std::uint32_t hops = 0;  // cycle guard for the forwarding-chain walk
  // Epoch fence: the highest placement epoch the caller has confirmed for
  // this name.  A node whose forwarding knowledge is older answers
  // NotFound instead of sending the caller down a stale chain.  0 = no
  // fence (legacy callers).
  std::uint64_t min_epoch = 0;

  MAGE_PROTO_FIELDS(LookupRequest, name, hops, min_epoch)
};

struct LookupReply {
  Status status = Status::NotFound;
  common::NodeId host = common::kNoNode;  // valid when Ok
  std::string error;
  // Placement epoch of `host` (see LookupRequest::min_epoch); 0 = unknown.
  std::uint64_t epoch = 0;

  MAGE_PROTO_FIELDS(LookupReply, status, host, error, epoch)
};

// --- class shipping ------------------------------------------------------

struct ClassCheckRequest {
  std::string class_name;

  MAGE_PROTO_FIELDS(ClassCheckRequest, class_name)
};

struct ClassCheckReply {
  bool cached = false;  // does the queried node hold the class image?

  MAGE_PROTO_FIELDS(ClassCheckReply, cached)
};

struct FetchClassRequest {
  std::string class_name;

  MAGE_PROTO_FIELDS(FetchClassRequest, class_name)
};

// The class image: name + simulated code bytes (filler sized to the
// descriptor's code_size so the wire pays the real transfer cost).
struct ClassImage {
  std::string class_name;
  std::uint32_t code_size = 0;

  // Hand-written layout: u32 code_size is followed by code_size filler
  // bytes, reserved up front so the image builds in one allocation.
  void put_fields(serial::Writer& w) const;
  void get_fields(serial::ChainReader& r);
  MAGE_PROTO_CODEC(ClassImage)
};

// Push-style class load (REV/MA push the class toward the target).
struct LoadClassRequest {
  ClassImage image;

  MAGE_PROTO_FIELDS(LoadClassRequest, image)
};

// --- instantiation (class-bound REV/COD act as object factories) -----------

struct InstantiateRequest {
  std::string class_name;
  common::ComponentName object_name;
  bool is_public = false;
  // Node able to serve the class image if the target lacks it.
  common::NodeId class_source = common::kNoNode;

  MAGE_PROTO_FIELDS(InstantiateRequest, class_name, object_name, is_public,
                    class_source)
};

struct SimpleReply {
  Status status = Status::Ok;
  common::NodeId hint = common::kNoNode;  // valid when Moved
  std::string error;
  // Placement epoch backing `hint` (Moved), or the new epoch of a
  // completed operation (e.g. a move's Ok reply carries the migrated
  // object's epoch).  0 = unfenced.
  std::uint64_t hint_epoch = 0;

  MAGE_PROTO_FIELDS(SimpleReply, status, hint, error, hint_epoch)
};

// --- migration (Figure 7) ---------------------------------------------------

struct MoveRequest {
  common::ComponentName name;
  common::NodeId to = common::kNoNode;

  MAGE_PROTO_FIELDS(MoveRequest, name, to)
};

struct TransferRequest {
  common::ComponentName name;
  std::string class_name;
  bool is_public = false;
  // Placement epoch the destination binds the object at (source's epoch +
  // 1); fences stale Moved hints behind this migration.
  std::uint64_t epoch = 0;
  serial::Buffer state;  // weakly migrated heap state

  MAGE_PROTO_FIELDS(TransferRequest, name, class_name, is_public, epoch, state)
};

// --- invocation ---------------------------------------------------------

struct InvokeRequest {
  common::ComponentName name;
  std::string method;
  serial::Buffer args;

  MAGE_PROTO_FIELDS(InvokeRequest, name, method, args)
};

struct InvokeReply {
  Status status = Status::Ok;
  common::NodeId hint = common::kNoNode;  // valid when Moved
  std::string error;                      // valid when Error
  std::uint64_t hint_epoch = 0;           // placement epoch backing `hint`
  serial::Buffer result;                  // valid when Ok

  MAGE_PROTO_FIELDS(InvokeReply, status, hint, error, hint_epoch, result)
};

struct FetchResultRequest {
  common::ComponentName name;

  MAGE_PROTO_FIELDS(FetchResultRequest, name)
};

// --- locking -------------------------------------------------------------

struct LockRequest {
  common::ComponentName name;
  common::NodeId target = common::kNoNode;  // the attribute's target
  std::uint64_t activity = 0;

  MAGE_PROTO_FIELDS(LockRequest, name, target, activity)
};

struct LockReply {
  Status status = Status::Ok;
  common::NodeId hint = common::kNoNode;  // valid when Moved
  std::uint64_t lock_id = 0;              // valid when Ok
  LockKind kind = LockKind::Stay;         // valid when Ok
  std::string error;
  std::uint64_t hint_epoch = 0;           // placement epoch backing `hint`

  MAGE_PROTO_FIELDS(LockReply, status, hint, lock_id, kind, error, hint_epoch)
};

struct UnlockRequest {
  common::ComponentName name;
  std::uint64_t lock_id = 0;

  MAGE_PROTO_FIELDS(UnlockRequest, name, lock_id)
};

// --- class statics ------------------------------------------------------------

struct StaticGetRequest {
  std::string class_name;
  std::string key;

  MAGE_PROTO_FIELDS(StaticGetRequest, class_name, key)
};

struct StaticPutRequest {
  std::string class_name;
  std::string key;
  serial::Buffer value;

  MAGE_PROTO_FIELDS(StaticPutRequest, class_name, key, value)
};

// --- condensed remote evaluation --------------------------------------------------

struct ExecRequest {
  std::string class_name;
  common::ComponentName object_name;  // bound at the target after the call
  std::string method;
  serial::Buffer args;
  common::NodeId class_source = common::kNoNode;

  // `args` rides as its own fragment; class_source follows in a third.
  MAGE_PROTO_FIELDS(ExecRequest, class_name, object_name, method, args,
                    class_source)
};

// --- resource discovery ---------------------------------------------------------

struct DiscoverRequest {
  std::string kind;

  MAGE_PROTO_FIELDS(DiscoverRequest, kind)
};

struct DiscoverReply {
  bool offers = false;
  double capacity = 0.0;

  MAGE_PROTO_FIELDS(DiscoverReply, offers, capacity)
};

// --- replicated directory & election ----------------------------------------
//
// The director quorum's control-plane messages (docs/ARCHITECTURE.md,
// "Replicated directory & election").  Election messages are term-based;
// placement records carry the same epoch fence the forwarding chain uses.

struct VoteRequest {
  std::uint64_t term = 0;
  common::NodeId candidate = common::kNoNode;

  MAGE_PROTO_FIELDS(VoteRequest, term, candidate)
};

struct VoteReply {
  std::uint64_t term = 0;
  bool granted = false;

  MAGE_PROTO_FIELDS(VoteReply, term, granted)
};

struct HeartbeatRequest {
  std::uint64_t term = 0;
  common::NodeId leader = common::kNoNode;

  MAGE_PROTO_FIELDS(HeartbeatRequest, term, leader)
};

struct HeartbeatReply {
  std::uint64_t term = 0;
  bool ok = false;

  MAGE_PROTO_FIELDS(HeartbeatReply, term, ok)
};

// One replicated placement fact: where `name` lives as of `epoch`.
struct PlacementRecord {
  common::ComponentName name;
  std::string class_name;
  common::NodeId host = common::kNoNode;
  bool is_public = false;
  std::uint64_t epoch = 0;

  MAGE_PROTO_FIELDS(PlacementRecord, name, class_name, host, is_public, epoch)
};

// kDirAnnounce (leader-only; followers answer Moved + leader hint) and
// kDirReplicate (leader -> follower fan-out) share this body.
struct DirAnnounceRequest {
  PlacementRecord record;

  MAGE_PROTO_FIELDS(DirAnnounceRequest, record)
};

struct DirAnnounceReply {
  Status status = Status::Ok;
  common::NodeId leader = common::kNoNode;  // best-known leader (any status)
  std::uint64_t epoch = 0;                  // epoch stored, when Ok
  std::string error;

  MAGE_PROTO_FIELDS(DirAnnounceReply, status, leader, epoch, error)
};

struct DirResolveRequest {
  common::ComponentName name;

  MAGE_PROTO_FIELDS(DirResolveRequest, name)
};

struct DirResolveReply {
  Status status = Status::NotFound;
  common::NodeId host = common::kNoNode;    // valid when Ok
  std::uint64_t epoch = 0;                  // valid when Ok
  common::NodeId leader = common::kNoNode;  // best-known leader (any status)
  std::string error;

  MAGE_PROTO_FIELDS(DirResolveReply, status, host, epoch, leader, error)
};

// --- partition manifests (distributed collections) ---------------------------

// "Which components live on you right now?"  The queried node answers from
// its registry — names filtered by prefix, each with its placement epoch —
// which is how rts::Rebalancer picks a partition to migrate off a hot node
// without trusting a possibly-stale client-side table.
struct ManifestRequest {
  std::string prefix;

  MAGE_PROTO_FIELDS(ManifestRequest, prefix)
};

struct ManifestReply {
  // (component name, placement epoch), in registry (lexicographic) order.
  ManifestEntries entries;

  MAGE_PROTO_FIELDS(ManifestReply, entries)
};

// --- misc ------------------------------------------------------------------

struct LoadReply {
  double load = 0.0;

  MAGE_PROTO_FIELDS(LoadReply, load)
};

#undef MAGE_PROTO_FIELDS
#undef MAGE_PROTO_CODEC

}  // namespace mage::rts::proto
