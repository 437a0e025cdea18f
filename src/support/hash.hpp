// Deterministic streaming hasher for stable fingerprints.
//
// FNV-1a over an explicitly serialized byte stream: every field is fed
// through a typed append (length-prefixed strings, bit-cast doubles), so the
// digest depends only on the logical value — never on padding, pointer
// identity, or container addresses. The wire codec's hashing io feeds it the
// values of a request's wire description (api::fingerprint) to key the
// result cache; model content fingerprints and tenant salts use it too. The
// digest is stable within a process run and across runs on the same
// platform.
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

namespace spivar::support {

class Fnv1aHasher {
 public:
  /// Feeds one 64-bit word, byte by byte.
  Fnv1aHasher& u64(std::uint64_t value) noexcept {
    for (int shift = 0; shift < 64; shift += 8) {
      state_ ^= (value >> shift) & 0xffu;
      state_ *= kPrime;
    }
    return *this;
  }

  Fnv1aHasher& i64(std::int64_t value) noexcept {
    return u64(static_cast<std::uint64_t>(value));
  }
  Fnv1aHasher& boolean(bool value) noexcept { return u64(value ? 1 : 0); }
  /// Doubles hash by bit pattern — bit-identical inputs, bit-identical keys.
  Fnv1aHasher& f64(double value) noexcept { return u64(std::bit_cast<std::uint64_t>(value)); }

  /// Length-prefixed, so consecutive strings cannot alias ("ab","c" vs "a","bc").
  Fnv1aHasher& str(std::string_view text) noexcept {
    u64(text.size());
    for (const char c : text) {
      state_ ^= static_cast<unsigned char>(c);
      state_ *= kPrime;
    }
    return *this;
  }

  /// Marks an optional as absent/present before its payload.
  Fnv1aHasher& presence(bool has_value) noexcept { return u64(has_value ? 0x9e3779b9u : 0); }

  [[nodiscard]] std::uint64_t digest() const noexcept { return state_; }

 private:
  static constexpr std::uint64_t kOffset = 14695981039346656037ull;
  static constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t state_ = kOffset;
};

}  // namespace spivar::support
