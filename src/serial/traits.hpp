// Generic value (de)serialization used by the typed RMI marshalling layer.
//
// put(Writer&, value) / get<T>(Reader&) are defined for the closed set of
// types that may cross the wire as invocation arguments and results:
// arithmetic types, bool, std::string, and std::vector / std::pair /
// std::optional / std::map compositions thereof.  Anything else fails to
// compile at the invocation site rather than at runtime.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "serial/reader.hpp"
#include "serial/writer.hpp"

namespace mage::serial {

// One-byte type tag preceding every codec-encoded value.  Catches
// marshalling mismatches (caller sent a string, method expects an int) at
// the unmarshalling site instead of silently reinterpreting bytes.
enum class WireTag : std::uint8_t {
  Bool = 0x01,
  I32 = 0x02,
  U32 = 0x03,
  I64 = 0x04,
  U64 = 0x05,
  F64 = 0x06,
  Str = 0x07,
  Vec = 0x08,
  Pair = 0x09,
  Opt = 0x0A,
  Map = 0x0B,
  Unit = 0x0C,
};

namespace detail {

inline void put_tag(Writer& w, WireTag tag) {
  w.write_u8(static_cast<std::uint8_t>(tag));
}

void expect_tag(Reader& r, WireTag expected);

// Reads a u32 element count and rejects one the remaining bytes cannot
// hold (every element carries at least its one-byte tag), so a corrupt
// count raises SerializationError before anything is reserved.
std::uint32_t read_count(Reader& r);

}  // namespace detail

template <typename T>
struct Codec;  // primary template intentionally undefined

template <typename T>
concept WireType = requires(Writer& w, Reader& r, const T& v) {
  Codec<T>::put(w, v);
  { Codec<T>::get(r) } -> std::convertible_to<T>;
};

template <typename T>
void put(Writer& w, const T& value) {
  Codec<T>::put(w, value);
}

template <typename T>
[[nodiscard]] T get(Reader& r) {
  return Codec<T>::get(r);
}

// --- scalar codecs ---------------------------------------------------------

template <>
struct Codec<bool> {
  static void put(Writer& w, bool v) {
    detail::put_tag(w, WireTag::Bool);
    w.write_bool(v);
  }
  static bool get(Reader& r) {
    detail::expect_tag(r, WireTag::Bool);
    return r.read_bool();
  }
};

template <>
struct Codec<std::int32_t> {
  static void put(Writer& w, std::int32_t v) {
    detail::put_tag(w, WireTag::I32);
    w.write_i32(v);
  }
  static std::int32_t get(Reader& r) {
    detail::expect_tag(r, WireTag::I32);
    return r.read_i32();
  }
};

template <>
struct Codec<std::uint32_t> {
  static void put(Writer& w, std::uint32_t v) {
    detail::put_tag(w, WireTag::U32);
    w.write_u32(v);
  }
  static std::uint32_t get(Reader& r) {
    detail::expect_tag(r, WireTag::U32);
    return r.read_u32();
  }
};

template <>
struct Codec<std::int64_t> {
  static void put(Writer& w, std::int64_t v) {
    detail::put_tag(w, WireTag::I64);
    w.write_i64(v);
  }
  static std::int64_t get(Reader& r) {
    detail::expect_tag(r, WireTag::I64);
    return r.read_i64();
  }
};

template <>
struct Codec<std::uint64_t> {
  static void put(Writer& w, std::uint64_t v) {
    detail::put_tag(w, WireTag::U64);
    w.write_u64(v);
  }
  static std::uint64_t get(Reader& r) {
    detail::expect_tag(r, WireTag::U64);
    return r.read_u64();
  }
};

template <>
struct Codec<double> {
  static void put(Writer& w, double v) {
    detail::put_tag(w, WireTag::F64);
    w.write_f64(v);
  }
  static double get(Reader& r) {
    detail::expect_tag(r, WireTag::F64);
    return r.read_f64();
  }
};

template <>
struct Codec<std::string> {
  static void put(Writer& w, const std::string& v) {
    detail::put_tag(w, WireTag::Str);
    w.write_string(v);
  }
  static std::string get(Reader& r) {
    detail::expect_tag(r, WireTag::Str);
    return r.read_string();
  }
};

// --- composite codecs ------------------------------------------------------

template <WireType T>
struct Codec<std::vector<T>> {
  static void put(Writer& w, const std::vector<T>& v) {
    detail::put_tag(w, WireTag::Vec);
    w.write_u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& e : v) Codec<T>::put(w, e);
  }
  static std::vector<T> get(Reader& r) {
    detail::expect_tag(r, WireTag::Vec);
    const std::uint32_t n = detail::read_count(r);
    std::vector<T> out;
    out.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) out.push_back(Codec<T>::get(r));
    return out;
  }
};

template <WireType A, WireType B>
struct Codec<std::pair<A, B>> {
  static void put(Writer& w, const std::pair<A, B>& v) {
    detail::put_tag(w, WireTag::Pair);
    Codec<A>::put(w, v.first);
    Codec<B>::put(w, v.second);
  }
  static std::pair<A, B> get(Reader& r) {
    detail::expect_tag(r, WireTag::Pair);
    A a = Codec<A>::get(r);
    B b = Codec<B>::get(r);
    return {std::move(a), std::move(b)};
  }
};

template <WireType T>
struct Codec<std::optional<T>> {
  static void put(Writer& w, const std::optional<T>& v) {
    detail::put_tag(w, WireTag::Opt);
    w.write_bool(v.has_value());
    if (v) Codec<T>::put(w, *v);
  }
  static std::optional<T> get(Reader& r) {
    detail::expect_tag(r, WireTag::Opt);
    if (!r.read_bool()) return std::nullopt;
    return Codec<T>::get(r);
  }
};

template <WireType K, WireType V>
struct Codec<std::map<K, V>> {
  static void put(Writer& w, const std::map<K, V>& v) {
    detail::put_tag(w, WireTag::Map);
    w.write_u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& [k, val] : v) {
      Codec<K>::put(w, k);
      Codec<V>::put(w, val);
    }
  }
  static std::map<K, V> get(Reader& r) {
    detail::expect_tag(r, WireTag::Map);
    const std::uint32_t n = detail::read_count(r);
    std::map<K, V> out;
    for (std::uint32_t i = 0; i < n; ++i) {
      K k = Codec<K>::get(r);
      V val = Codec<V>::get(r);
      out.emplace(std::move(k), std::move(val));
    }
    return out;
  }
};

// Marker for invocations with no result ("void methods").
struct Unit {
  friend bool operator==(Unit, Unit) = default;
};

template <>
struct Codec<Unit> {
  static void put(Writer& w, Unit) { detail::put_tag(w, WireTag::Unit); }
  static Unit get(Reader& r) {
    detail::expect_tag(r, WireTag::Unit);
    return {};
  }
};

}  // namespace mage::serial
