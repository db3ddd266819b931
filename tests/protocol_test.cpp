// Round-trip tests for every wire-protocol struct, including boundary
// values.  The integration suites exercise these implicitly; these tests
// pin the encoding explicitly so a wire-format change is a visible diff.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "rts/protocol.hpp"

namespace mage::rts::proto {
namespace {

TEST(Protocol, LookupRequestRoundTrip) {
  LookupRequest v;
  v.name = "geoData";
  v.hops = 17;
  const auto decoded = LookupRequest::decode(v.encode());
  EXPECT_EQ(decoded.name, "geoData");
  EXPECT_EQ(decoded.hops, 17u);
}

TEST(Protocol, LookupReplyRoundTrip) {
  LookupReply v;
  v.status = Status::Ok;
  v.host = common::NodeId{9};
  const auto decoded = LookupReply::decode(v.encode());
  EXPECT_EQ(decoded.status, Status::Ok);
  EXPECT_EQ(decoded.host, common::NodeId{9});
}

TEST(Protocol, LookupReplyErrorRoundTrip) {
  LookupReply v;
  v.status = Status::Error;
  v.error = "cycle";
  const auto decoded = LookupReply::decode(v.encode());
  EXPECT_EQ(decoded.status, Status::Error);
  EXPECT_EQ(decoded.error, "cycle");
}

TEST(Protocol, ClassCheckRoundTrip) {
  EXPECT_EQ(ClassCheckRequest::decode(
                ClassCheckRequest{"GeoDataFilterImpl"}.encode())
                .class_name,
            "GeoDataFilterImpl");
  ClassCheckReply reply;
  reply.cached = true;
  EXPECT_TRUE(ClassCheckReply::decode(reply.encode()).cached);
}

TEST(Protocol, ClassImageCarriesItsCodeBytes) {
  ClassImage v;
  v.class_name = "Counter";
  v.code_size = 4096;
  const auto bytes = v.encode();
  // name(4+7) + size(4) + filler(4096)
  EXPECT_GE(bytes.size(), 4096u + 11u);
  const auto decoded = ClassImage::decode(bytes);
  EXPECT_EQ(decoded.class_name, "Counter");
  EXPECT_EQ(decoded.code_size, 4096u);
}

TEST(Protocol, ClassImageEmpty) {
  ClassImage v;
  v.class_name = "Tiny";
  v.code_size = 0;
  const auto decoded = ClassImage::decode(v.encode());
  EXPECT_EQ(decoded.code_size, 0u);
}

TEST(Protocol, LoadClassRoundTrip) {
  LoadClassRequest v;
  v.image.class_name = "X";
  v.image.code_size = 128;
  EXPECT_EQ(LoadClassRequest::decode(v.encode()).image.class_name, "X");
}

TEST(Protocol, InstantiateRoundTrip) {
  InstantiateRequest v;
  v.class_name = "Counter";
  v.object_name = "c1";
  v.is_public = true;
  v.class_source = common::NodeId{3};
  const auto decoded = InstantiateRequest::decode(v.encode());
  EXPECT_EQ(decoded.class_name, "Counter");
  EXPECT_EQ(decoded.object_name, "c1");
  EXPECT_TRUE(decoded.is_public);
  EXPECT_EQ(decoded.class_source, common::NodeId{3});
}

TEST(Protocol, SimpleReplyAllStatuses) {
  for (auto status : {Status::Ok, Status::Moved, Status::NotFound,
                      Status::Error}) {
    SimpleReply v;
    v.status = status;
    v.hint = common::NodeId{4};
    v.error = "e";
    const auto decoded = SimpleReply::decode(v.encode());
    EXPECT_EQ(decoded.status, status);
    EXPECT_EQ(decoded.hint, common::NodeId{4});
  }
}

TEST(Protocol, MoveRoundTrip) {
  MoveRequest v;
  v.name = "obj";
  v.to = common::NodeId{7};
  const auto decoded = MoveRequest::decode(v.encode());
  EXPECT_EQ(decoded.name, "obj");
  EXPECT_EQ(decoded.to, common::NodeId{7});
}

TEST(Protocol, TransferCarriesState) {
  TransferRequest v;
  v.name = "obj";
  v.class_name = "Counter";
  v.is_public = true;
  v.state = {1, 2, 3, 4, 5};
  const auto decoded = TransferRequest::decode(v.encode());
  EXPECT_EQ(decoded.state, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(decoded.is_public);
}

TEST(Protocol, TransferEmptyState) {
  TransferRequest v;
  v.name = "o";
  v.class_name = "C";
  EXPECT_TRUE(TransferRequest::decode(v.encode()).state.empty());
}

TEST(Protocol, InvokeRoundTrip) {
  InvokeRequest v;
  v.name = "obj";
  v.method = "filterData";
  v.args = {9, 8, 7};
  const auto decoded = InvokeRequest::decode(v.encode());
  EXPECT_EQ(decoded.method, "filterData");
  EXPECT_EQ(decoded.args, (std::vector<std::uint8_t>{9, 8, 7}));
}

TEST(Protocol, InvokeReplyWithResult) {
  InvokeReply v;
  v.status = Status::Ok;
  v.result = {42};
  const auto decoded = InvokeReply::decode(v.encode());
  EXPECT_EQ(decoded.result, std::vector<std::uint8_t>{42});
}

TEST(Protocol, InvokeReplyMovedHint) {
  InvokeReply v;
  v.status = Status::Moved;
  v.hint = common::NodeId{11};
  const auto decoded = InvokeReply::decode(v.encode());
  EXPECT_EQ(decoded.status, Status::Moved);
  EXPECT_EQ(decoded.hint, common::NodeId{11});
}

TEST(Protocol, FetchResultRoundTrip) {
  EXPECT_EQ(FetchResultRequest::decode(FetchResultRequest{"obj"}.encode())
                .name,
            "obj");
}

TEST(Protocol, LockRoundTrip) {
  LockRequest v;
  v.name = "obj";
  v.target = common::NodeId{2};
  v.activity = 0xDEADBEEFull;
  const auto decoded = LockRequest::decode(v.encode());
  EXPECT_EQ(decoded.target, common::NodeId{2});
  EXPECT_EQ(decoded.activity, 0xDEADBEEFull);
}

TEST(Protocol, LockReplyRoundTrip) {
  LockReply v;
  v.status = Status::Ok;
  v.lock_id = 55;
  v.kind = LockKind::Move;
  const auto decoded = LockReply::decode(v.encode());
  EXPECT_EQ(decoded.lock_id, 55u);
  EXPECT_EQ(decoded.kind, LockKind::Move);
}

TEST(Protocol, UnlockRoundTrip) {
  UnlockRequest v;
  v.name = "obj";
  v.lock_id = 99;
  EXPECT_EQ(UnlockRequest::decode(v.encode()).lock_id, 99u);
}

TEST(Protocol, StaticGetPutRoundTrip) {
  StaticGetRequest g{"Counter", "total"};
  const auto dg = StaticGetRequest::decode(g.encode());
  EXPECT_EQ(dg.class_name, "Counter");
  EXPECT_EQ(dg.key, "total");

  StaticPutRequest p;
  p.class_name = "Counter";
  p.key = "total";
  p.value = {1, 2};
  const auto dp = StaticPutRequest::decode(p.encode());
  EXPECT_EQ(dp.value, (std::vector<std::uint8_t>{1, 2}));
}

TEST(Protocol, ExecRoundTrip) {
  ExecRequest v;
  v.class_name = "Integrator";
  v.object_name = "unit0";
  v.method = "integrate";
  v.args = {3, 1, 4};
  v.class_source = common::NodeId{1};
  const auto decoded = ExecRequest::decode(v.encode());
  EXPECT_EQ(decoded.class_name, "Integrator");
  EXPECT_EQ(decoded.object_name, "unit0");
  EXPECT_EQ(decoded.method, "integrate");
  EXPECT_EQ(decoded.args, (std::vector<std::uint8_t>{3, 1, 4}));
}

TEST(Protocol, DiscoverRoundTrip) {
  EXPECT_EQ(DiscoverRequest::decode(DiscoverRequest{"printer"}.encode())
                .kind,
            "printer");
  DiscoverReply reply;
  reply.offers = true;
  reply.capacity = 33.5;
  const auto decoded = DiscoverReply::decode(reply.encode());
  EXPECT_TRUE(decoded.offers);
  EXPECT_DOUBLE_EQ(decoded.capacity, 33.5);
}

TEST(Protocol, LoadReplyRoundTrip) {
  LoadReply v;
  v.load = 101.25;
  EXPECT_DOUBLE_EQ(LoadReply::decode(v.encode()).load, 101.25);
}

TEST(Protocol, StatusNames) {
  EXPECT_STREQ(status_name(Status::Ok), "Ok");
  EXPECT_STREQ(status_name(Status::Moved), "Moved");
  EXPECT_STREQ(status_name(Status::NotFound), "NotFound");
  EXPECT_STREQ(status_name(Status::Error), "Error");
}

TEST(Protocol, NodeCodecSentinel) {
  MoveRequest v;
  v.name = "obj";
  v.to = common::kNoNode;
  EXPECT_TRUE(common::is_no_node(MoveRequest::decode(v.encode()).to));
}

TEST(Protocol, NamesWithUnicodeAndNulls) {
  LookupRequest v;
  v.name = std::string("g\0o\xC3\xA9", 5);
  EXPECT_EQ(LookupRequest::decode(v.encode()).name, v.name);
}


// --- pinned wire bytes -------------------------------------------------------
//
// One fully populated value per wire struct (every field non-default, every
// payload non-empty), encoded and compared byte for byte with the layout
// recorded in docs/WIRE_FORMAT.md.  A round trip cannot see a layout change
// that encode and decode make symmetrically; these hex strings can.  The
// chain-encoded structs also pin their fragment count (the zero-copy
// payload framing); `fragments == 0` means the struct encodes to one flat
// serial::Buffer.

std::string to_hex(const serial::Buffer& bytes) {
  std::string out;
  char byte[3];
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::snprintf(byte, sizeof byte, "%02x", bytes.data()[i]);
    out += byte;
  }
  return out;
}

struct PinnedCase {
  const char* name;
  serial::Buffer bytes;   // the flattened encoding
  std::size_t fragments;  // 0 = flat Buffer, else the chain's fragment count
  std::size_t expected_fragments;
  // Decodes a body and re-encodes the result, flattened.
  std::function<serial::Buffer(const serial::BufferChain&)> reencode;
  const char* hex;
};

template <typename T>
PinnedCase pin(const char* name, const T& v, std::size_t fragments,
               const char* hex) {
  const auto encoded = v.encode();
  std::size_t actual_fragments = 0;
  if constexpr (!std::is_same_v<std::decay_t<decltype(encoded)>,
                                serial::Buffer>) {
    actual_fragments = encoded.fragments();
  }
  return PinnedCase{name, serial::BufferChain(encoded).flatten(),
                    actual_fragments, fragments,
                    [](const serial::BufferChain& body) {
                      return serial::BufferChain(T::decode(body).encode())
                          .flatten();
                    },
                    hex};
}

std::vector<PinnedCase> pinned_cases() {
  using serial::Buffer;
  const common::NodeId n5{5};
  const common::NodeId n6{6};
  return {
      pin("LookupRequest", LookupRequest{"geo", 3, 9}, 0,
          "0300000067656f030000000900000000000000"),
      pin("LookupReply", LookupReply{Status::Moved, n5, "err", 7}, 0,
          "0105000000030000006572720700000000000000"),
      pin("ClassCheckRequest", ClassCheckRequest{"Cls"}, 0,
          "03000000436c73"),
      pin("ClassCheckReply", ClassCheckReply{true}, 0, "01"),
      pin("FetchClassRequest", FetchClassRequest{"Cls"}, 0,
          "03000000436c73"),
      pin("ClassImage", ClassImage{"Img", 3}, 0,
          "03000000496d6703000000cacaca"),
      pin("LoadClassRequest", LoadClassRequest{ClassImage{"Ld", 2}}, 0,
          "020000004c6402000000caca"),
      pin("InstantiateRequest", InstantiateRequest{"Cls", "obj", true, n5}, 0,
          "03000000436c73030000006f626a0105000000"),
      pin("SimpleReply", SimpleReply{Status::Moved, n5, "err", 11}, 0,
          "0105000000030000006572720b00000000000000"),
      pin("MoveRequest", MoveRequest{"obj", n6}, 0,
          "030000006f626a06000000"),
      pin("TransferRequest",
          TransferRequest{"obj", "Cls", true, 12, Buffer({1, 2, 3})}, 2,
          "030000006f626a03000000436c73010c0000000000000003000000010203"),
      pin("InvokeRequest", InvokeRequest{"obj", "run", Buffer({4, 5})}, 2,
          "030000006f626a0300000072756e020000000405"),
      pin("InvokeReply",
          InvokeReply{Status::Error, n6, "bad", 13, Buffer({6, 7, 8})}, 2,
          "0306000000030000006261640d0000000000000003000000060708"),
      pin("FetchResultRequest", FetchResultRequest{"res"}, 0,
          "03000000726573"),
      pin("LockRequest", LockRequest{"obj", n5, 14}, 0,
          "030000006f626a050000000e00000000000000"),
      pin("LockReply", LockReply{Status::Moved, n6, 15, LockKind::Move, "lk", 16},
          0, "01060000000f0000000000000001020000006c6b1000000000000000"),
      pin("UnlockRequest", UnlockRequest{"obj", 17}, 0,
          "030000006f626a1100000000000000"),
      pin("StaticGetRequest", StaticGetRequest{"Cls", "key"}, 0,
          "03000000436c73030000006b6579"),
      pin("StaticPutRequest", StaticPutRequest{"Cls", "key", Buffer({9})}, 2,
          "03000000436c73030000006b65790100000009"),
      pin("ExecRequest",
          ExecRequest{"Cls", "obj", "run", Buffer({10, 11}), n6}, 3,
          "03000000436c73030000006f626a0300000072756e020000000a0b06000000"),
      pin("DiscoverRequest", DiscoverRequest{"cpu"}, 0, "03000000637075"),
      pin("DiscoverReply", DiscoverReply{true, 2.5}, 0, "010000000000000440"),
      pin("VoteRequest", VoteRequest{18, n5}, 0, "120000000000000005000000"),
      pin("VoteReply", VoteReply{19, true}, 0, "130000000000000001"),
      pin("HeartbeatRequest", HeartbeatRequest{20, n6}, 0,
          "140000000000000006000000"),
      pin("HeartbeatReply", HeartbeatReply{21, true}, 0, "150000000000000001"),
      pin("DirAnnounceRequest",
          DirAnnounceRequest{PlacementRecord{"obj", "Cls", n5, true, 22}}, 0,
          "030000006f626a03000000436c7305000000011600000000000000"),
      pin("DirAnnounceReply", DirAnnounceReply{Status::Moved, n6, 23, "da"}, 0,
          "01060000001700000000000000020000006461"),
      pin("DirResolveRequest", DirResolveRequest{"obj"}, 0, "030000006f626a"),
      pin("DirResolveReply", DirResolveReply{Status::Ok, n5, 24, n6, "dr"}, 0,
          "0005000000180000000000000006000000020000006472"),
      pin("ManifestRequest", ManifestRequest{"part/"}, 0,
          "05000000706172742f"),
      pin("ManifestReply", ManifestReply{{{"part/0", 25}, {"part/1", 26}}}, 0,
          "0200000006000000706172742f30190000000000000006000000706172742f31"
          "1a00000000000000"),
      pin("LoadReply", LoadReply{3.75}, 0, "0000000000000e40"),
  };
}

TEST(ProtocolPinned, EveryStructEncodesToItsRecordedBytesAndFragments) {
  const auto cases = pinned_cases();
  EXPECT_EQ(cases.size(), 33u);
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(to_hex(c.bytes), c.hex);
    EXPECT_EQ(c.fragments, c.expected_fragments);
  }
}

TEST(ProtocolPinned, EveryPinnedEncodingDecodesToTheSameValue) {
  for (const auto& c : pinned_cases()) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(to_hex(c.reencode(serial::BufferChain(c.bytes))), c.hex);
  }
}

// --- hostile input ------------------------------------------------------------

std::vector<std::uint8_t> bytes_of(const serial::BufferChain& body) {
  const serial::Buffer flat = body.flatten();
  return {flat.begin(), flat.end()};
}

serial::Buffer buffer_of(std::vector<std::uint8_t> bytes) {
  return serial::Buffer(std::move(bytes));
}

TEST(ProtocolHostile, ManifestCountBeyondTheBodyThrows) {
  // ff ff ff ff: 2^32-1 entries declared, none follow.
  EXPECT_THROW((void)ManifestReply::decode(serial::Buffer({0xff, 0xff, 0xff,
                                                           0xff})),
               common::SerializationError);
  // Two entries declared, one present.
  auto bytes = bytes_of(ManifestReply{{{"part/0", 25}}}.encode());
  bytes[0] = 2;
  EXPECT_THROW((void)ManifestReply::decode(buffer_of(bytes)),
               common::SerializationError);
}

TEST(ProtocolHostile, OutOfRangeEnumsThrow) {
  // status byte 07: Status ends at Error = 3.
  auto reply =
      bytes_of(SimpleReply{Status::Error, common::NodeId{1}, "e", 2}.encode());
  for (const std::uint8_t status : {4, 7, 255}) {
    reply[0] = status;
    EXPECT_THROW((void)SimpleReply::decode(buffer_of(reply)),
                 common::SerializationError);
  }
  reply[0] = 3;
  EXPECT_EQ(SimpleReply::decode(buffer_of(reply)).status, Status::Error);

  // LockKind ends at Move = 1; its byte follows status(1) hint(4) lock_id(8).
  auto lock = bytes_of(
      LockReply{Status::Ok, common::NodeId{1}, 9, LockKind::Move, "", 0}
          .encode());
  lock[13] = 2;
  EXPECT_THROW((void)LockReply::decode(buffer_of(lock)),
               common::SerializationError);
  lock[13] = 1;
  EXPECT_EQ(LockReply::decode(buffer_of(lock)).kind, LockKind::Move);
}

// Every decoder, fed mutations of its pinned encoding, either returns or
// throws SerializationError: never another exception, never an abort.
// Mutations: truncation at every length, every single-bit flip, each
// 4-byte window overwritten with a hostile u32 (so every length prefix and
// count is inflated), and seeded random byte scribbles.  Each mutant is
// decoded both flat and split across two fragments (the gather path).
void expect_contained(const PinnedCase& c,
                      const std::vector<std::uint8_t>& bytes,
                      const char* mutation, std::size_t at) {
  const serial::Buffer flat = buffer_of(bytes);
  serial::BufferChain split;
  split.append(flat.slice(0, bytes.size() / 2));
  split.append(flat.slice(bytes.size() / 2, bytes.size() - bytes.size() / 2));
  for (const serial::BufferChain& body : {serial::BufferChain(flat), split}) {
    try {
      (void)c.reencode(body);
    } catch (const common::SerializationError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << c.name << ": " << mutation << " at " << at
                    << " threw a non-SerializationError: " << e.what();
    }
  }
}

TEST(ProtocolFuzz, EveryDecoderContainsMutatedInput) {
  common::Rng rng(0xF022);
  for (const auto& c : pinned_cases()) {
    const std::vector<std::uint8_t> good = bytes_of(c.bytes);
    for (std::size_t len = 0; len < good.size(); ++len) {
      expect_contained(
          c, std::vector<std::uint8_t>(good.begin(), good.begin() + len),
          "truncation", len);
    }
    for (std::size_t bit = 0; bit < good.size() * 8; ++bit) {
      auto bytes = good;
      bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      expect_contained(c, bytes, "bit flip", bit);
    }
    for (std::size_t at = 0; at + 4 <= good.size(); ++at) {
      for (const std::uint32_t hostile :
           {0xFFFFFFFFu, 0x7FFFFFFFu, 0x10000u,
            static_cast<std::uint32_t>(good.size())}) {
        auto bytes = good;
        for (std::size_t i = 0; i < 4; ++i) {
          bytes[at + i] = static_cast<std::uint8_t>(hostile >> (8 * i));
        }
        expect_contained(c, bytes, "inflated u32", at);
      }
    }
    for (int round = 0; round < 64; ++round) {
      auto bytes = good;
      const auto scribbles = 1 + rng.next_below(4);
      for (std::uint64_t i = 0; i < scribbles && !bytes.empty(); ++i) {
        bytes[rng.next_below(bytes.size())] =
            static_cast<std::uint8_t>(rng.next());
      }
      expect_contained(c, bytes, "scribble round", round);
    }
  }
}

}  // namespace
}  // namespace mage::rts::proto
