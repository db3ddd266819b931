#include "rmi/envelope.hpp"

#include <atomic>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "serial/reader.hpp"
#include "serial/writer.hpp"

namespace mage::rmi {
namespace {

// Upper bound on header size for Writer pre-reservation: tag + id + verb +
// ok + fragment framing plus a typical error string.
constexpr std::size_t kHeaderReserve = 64;

std::atomic<std::uint64_t> g_fast_headers{0};
std::atomic<std::uint64_t> g_list_headers{0};

// Exact framing-byte count write_header() will emit for `e`.
std::size_t header_size(const Envelope& e) {
  std::size_t n = 1 + 8 + 4;  // tag + request_id + verb
  if (e.kind == EnvelopeKind::Reply) {
    n += 1;                             // ok
    if (!e.ok) n += 4 + e.error.size();  // str error
  }
  n += e.body.fragments() == 1 ? 4 : 1 + 4 * e.body.fragments();
  return n;
}

void write_header(serial::Writer& w, const Envelope& e) {
  if (e.body.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw common::SerializationError(
        "envelope body of " + std::to_string(e.body.size()) +
        " bytes exceeds the u32 total-size limit");
  }
  const bool single = e.body.fragments() == 1;
  std::uint8_t tag = static_cast<std::uint8_t>(e.kind);
  if (single) tag |= kSingleFragmentFlag;
  w.write_u8(tag);
  w.write_u64(e.request_id.value());
  w.write_u32(e.verb.value());
  if (e.kind == EnvelopeKind::Reply) {
    w.write_bool(e.ok);
    if (!e.ok) w.write_string(e.error);
  }
  if (single) {
    // Fast path: the dominant single-buffer body skips the count byte and
    // the per-fragment loop.
    w.write_u32(static_cast<std::uint32_t>(e.body.fragment(0).size()));
    g_fast_headers.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  w.write_u8(static_cast<std::uint8_t>(e.body.fragments()));
  for (std::size_t i = 0; i < e.body.fragments(); ++i) {
    w.write_u32(static_cast<std::uint32_t>(e.body.fragment(i).size()));
  }
  g_list_headers.fetch_add(1, std::memory_order_relaxed);
}

// Parsed fragment declarations from a header.
struct FragmentList {
  std::uint8_t count = 0;
  std::uint32_t sizes[serial::BufferChain::kMaxFragments] = {};
  std::uint64_t total = 0;
};

// Parses the framing fields; returns the declared fragment list.
FragmentList read_header(serial::Reader& r, Envelope& e) {
  const std::uint8_t tag = r.read_u8();
  const bool single = (tag & kSingleFragmentFlag) != 0;
  const std::uint8_t kind = tag & static_cast<std::uint8_t>(~kSingleFragmentFlag);
  if (kind == kBatchTag) {
    throw common::SerializationError(
        "batch frame where a single envelope was expected; use "
        "Envelope::decode_batch");
  }
  if (kind > static_cast<std::uint8_t>(EnvelopeKind::OneWay)) {
    throw common::SerializationError("bad envelope tag " +
                                     std::to_string(tag));
  }
  e.kind = static_cast<EnvelopeKind>(kind);
  e.request_id = common::RequestId{r.read_u64()};
  e.verb = common::VerbId{r.read_u32()};
  if (e.kind == EnvelopeKind::Reply) {
    e.ok = r.read_bool();
    if (!e.ok) e.error = r.read_string();
  }
  FragmentList frags;
  if (single) {
    frags.count = 1;
    frags.sizes[0] = r.read_u32();
    frags.total = frags.sizes[0];
    return frags;
  }
  frags.count = r.read_u8();
  if (frags.count > serial::BufferChain::kMaxFragments) {
    throw common::SerializationError(
        "envelope declares " + std::to_string(frags.count) +
        " body fragments; this implementation accepts at most " +
        std::to_string(serial::BufferChain::kMaxFragments));
  }
  for (std::uint8_t i = 0; i < frags.count; ++i) {
    frags.sizes[i] = r.read_u32();
    frags.total += frags.sizes[i];
  }
  if (frags.total > std::numeric_limits<std::uint32_t>::max()) {
    throw common::SerializationError(
        "envelope fragments total " + std::to_string(frags.total) +
        " bytes, exceeding the u32 total-size limit");
  }
  return frags;
}

}  // namespace

serial::Buffer Envelope::encode_header() const {
  serial::Writer w(kHeaderReserve);
  write_header(w, *this);
  return w.take();
}

serial::Buffer Envelope::encode() const {
  serial::Writer w(encoded_size());
  encode_into(w);
  return w.take();
}

std::size_t Envelope::encoded_size() const {
  return header_size(*this) + body.size();
}

void Envelope::encode_into(serial::Writer& w) const {
  write_header(w, *this);
  body.write_to(w);
}

Envelope Envelope::decode(const serial::Buffer& header,
                          serial::BufferChain body) {
  serial::Reader r(header.span());
  Envelope e;
  const FragmentList frags = read_header(r, e);
  bool match = r.at_end() && frags.count == body.fragments();
  for (std::uint8_t i = 0; match && i < frags.count; ++i) {
    match = frags.sizes[i] == body.fragment(i).size();
  }
  if (!match) {
    throw common::SerializationError(
        "envelope framing mismatch: header declares " +
        std::to_string(frags.count) + " fragments, body has " +
        std::to_string(body.fragments()) + " totalling " +
        std::to_string(body.size()) + " bytes");
  }
  e.body = std::move(body);
  return e;
}

std::uint64_t Envelope::fast_path_headers() {
  return g_fast_headers.load(std::memory_order_relaxed);
}

std::uint64_t Envelope::list_path_headers() {
  return g_list_headers.load(std::memory_order_relaxed);
}

void Envelope::reset_header_counters() {
  g_fast_headers.store(0, std::memory_order_relaxed);
  g_list_headers.store(0, std::memory_order_relaxed);
}

bool Envelope::is_batch(const serial::Buffer& wire) {
  return wire.size() >= 1 &&
         (wire.data()[0] & static_cast<std::uint8_t>(~kSingleFragmentFlag)) ==
             kBatchTag;
}

serial::Buffer Envelope::encode_batch(const std::vector<Envelope>& envelopes) {
  std::size_t total = 1 + 4;  // tag + count
  for (const Envelope& e : envelopes) total += 4 + e.encoded_size();
  serial::Writer w(total);
  w.write_u8(kBatchTag);
  w.write_u32(static_cast<std::uint32_t>(envelopes.size()));
  for (const Envelope& e : envelopes) {
    w.write_u32(static_cast<std::uint32_t>(e.encoded_size()));
    e.encode_into(w);
  }
  return w.take();
}

std::vector<Envelope> Envelope::decode_batch(const serial::Buffer& wire) {
  serial::Reader r(wire);
  const std::uint8_t tag = r.read_u8();
  if (tag != kBatchTag) {
    throw common::SerializationError("not a batch frame: tag " +
                                     std::to_string(tag));
  }
  const std::uint32_t count = r.read_u32();
  // Each sub-envelope carries at least its u32 size prefix; reject a count
  // the frame cannot hold before reserving for it.
  if (count > r.remaining() / 4) {
    throw common::SerializationError(
        "batch frame declares " + std::to_string(count) + " sub-envelopes, " +
        std::to_string(r.remaining()) + " bytes remain");
  }
  std::vector<Envelope> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t size = r.read_u32();
    if (size > r.remaining()) {
      throw common::SerializationError(
          "batch sub-envelope " + std::to_string(i) + " declares " +
          std::to_string(size) + " bytes, " + std::to_string(r.remaining()) +
          " remain");
    }
    const std::size_t at = r.offset();
    (void)r.read_span(size);
    out.push_back(decode(wire.slice(at, size)));
  }
  if (!r.at_end()) {
    throw common::SerializationError(
        "batch frame has " + std::to_string(r.remaining()) +
        " trailing bytes after " + std::to_string(count) + " sub-envelopes");
  }
  return out;
}

Envelope Envelope::decode(const serial::Buffer& flat) {
  serial::Reader r(flat);
  Envelope e;
  const FragmentList frags = read_header(r, e);
  if (r.remaining() != frags.total) {
    throw common::SerializationError(
        "envelope framing mismatch: header declares " +
        std::to_string(frags.total) + " body bytes, " +
        std::to_string(r.remaining()) + " follow");
  }
  std::size_t offset = r.offset();
  for (std::uint8_t i = 0; i < frags.count; ++i) {
    e.body.append(flat.slice(offset, frags.sizes[i]));
    offset += frags.sizes[i];
  }
  return e;
}

}  // namespace mage::rmi
