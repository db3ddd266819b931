#include "serial/traits.hpp"

#include "common/error.hpp"

namespace mage::serial::detail {
namespace {

const char* tag_name(WireTag tag) {
  switch (tag) {
    case WireTag::Bool:
      return "bool";
    case WireTag::I32:
      return "i32";
    case WireTag::U32:
      return "u32";
    case WireTag::I64:
      return "i64";
    case WireTag::U64:
      return "u64";
    case WireTag::F64:
      return "f64";
    case WireTag::Str:
      return "string";
    case WireTag::Vec:
      return "vector";
    case WireTag::Pair:
      return "pair";
    case WireTag::Opt:
      return "optional";
    case WireTag::Map:
      return "map";
    case WireTag::Unit:
      return "unit";
  }
  return "?";
}

}  // namespace

void expect_tag(Reader& r, WireTag expected) {
  const auto raw = r.read_u8();
  if (raw != static_cast<std::uint8_t>(expected)) {
    throw common::SerializationError(
        std::string("wire type mismatch: expected ") + tag_name(expected) +
        ", found tag 0x" + std::to_string(raw));
  }
}

std::uint32_t read_count(Reader& r) {
  const std::uint32_t n = r.read_u32();
  if (n > r.remaining()) {
    throw common::SerializationError(
        "count " + std::to_string(n) + " exceeds the " +
        std::to_string(r.remaining()) + " bytes that remain");
  }
  return n;
}

}  // namespace mage::serial::detail
