// Subscription ids (§3.2). A subscription id is the concatenation of:
//
//   c1 : id of the broker owning the subscription
//        (ceil(log2(#brokers)) bits)
//   c2 : per-broker local subscription id
//        (ceil(log2(max outstanding subscriptions per broker)) bits)
//   c3 : one bit per schema attribute; bit i set iff the subscription has a
//        constraint on attribute i (total-attribute-count bits)
//
// In memory we keep the three parts unpacked; SubIdCodec packs/unpacks the
// exact paper bit layout for the wire, so measured summary sizes follow the
// paper's `sid` parameter.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "model/schema.h"

namespace subsum::model {

using BrokerId = uint32_t;

struct SubId {
  BrokerId broker = 0;  // c1
  uint32_t local = 0;   // c2
  AttrMask attrs = 0;   // c3

  /// Number of attributes the subscription constrains (= popcount(c3)).
  [[nodiscard]] int attr_count() const noexcept { return popcount(attrs); }

  bool operator==(const SubId&) const = default;
  auto operator<=>(const SubId&) const = default;

  [[nodiscard]] std::string to_string() const;
};

/// Packs SubIds into the c1|c2|c3 bit layout.
class SubIdCodec {
 public:
  /// num_brokers >= 1, max_subs_per_broker >= 1, attr_count in [1, 64].
  SubIdCodec(uint32_t num_brokers, uint64_t max_subs_per_broker, size_t attr_count);

  [[nodiscard]] int c1_bits() const noexcept { return c1_bits_; }
  [[nodiscard]] int c2_bits() const noexcept { return c2_bits_; }
  [[nodiscard]] int c3_bits() const noexcept { return c3_bits_; }

  /// Encoded size in whole bytes (the paper's `sid`).
  [[nodiscard]] size_t encoded_size() const noexcept {
    return (static_cast<size_t>(c1_bits_ + c2_bits_ + c3_bits_) + 7) / 8;
  }

  /// Packs into a little-endian bit string: c3 in the low bits, then c2,
  /// then c1 (so figure 6 reads c1|c2|c3 left to right).
  /// Throws std::invalid_argument if a field exceeds its bit width.
  [[nodiscard]] __uint128_t pack(const SubId& id) const;
  [[nodiscard]] SubId unpack(__uint128_t bits) const noexcept;

 private:
  int c1_bits_;
  int c2_bits_;
  int c3_bits_;
};

/// Bits needed to represent n distinct values (>= 1 value -> >= 1 bit).
int bits_for(uint64_t n) noexcept;

/// Erases every id of `gone` (sorted; duplicates and absent ids allowed)
/// from the sorted, unique `ids`. Returns whether anything was erased.
bool erase_ids(std::vector<SubId>& ids, std::span<const SubId> gone);

}  // namespace subsum::model

template <>
struct std::hash<subsum::model::SubId> {
  size_t operator()(const subsum::model::SubId& id) const noexcept {
    // 64-bit mix of the three parts; c3 rarely disambiguates, but include it
    // so ill-formed duplicate ids with different masks still hash apart.
    uint64_t h = (static_cast<uint64_t>(id.broker) << 32) ^ id.local;
    h ^= id.attrs + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    return static_cast<size_t>(h);
  }
};
