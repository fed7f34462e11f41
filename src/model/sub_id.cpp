#include "model/sub_id.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace subsum::model {

std::string SubId::to_string() const {
  return "S(" + std::to_string(broker) + "." + std::to_string(local) + ")";
}

int bits_for(uint64_t n) noexcept {
  if (n <= 1) return 1;
  return std::bit_width(n - 1);
}

bool erase_ids(std::vector<SubId>& ids, std::span<const SubId> gone) {
  if (ids.empty() || gone.empty() || gone.back() < ids.front() || ids.back() < gone.front()) {
    return false;
  }
  const size_t before = ids.size();
  if (gone.size() < ids.size()) {
    // Fewer removals than entries: binary-search each one, left to right.
    auto from = ids.begin();
    for (const SubId& id : gone) {
      from = std::lower_bound(from, ids.end(), id);
      if (from == ids.end()) break;
      if (*from == id) from = ids.erase(from);
    }
  } else {
    std::erase_if(ids, [&](const SubId& id) {
      return std::binary_search(gone.begin(), gone.end(), id);
    });
  }
  return ids.size() != before;
}

SubIdCodec::SubIdCodec(uint32_t num_brokers, uint64_t max_subs_per_broker, size_t attr_count)
    : c1_bits_(bits_for(num_brokers)),
      c2_bits_(bits_for(max_subs_per_broker)),
      c3_bits_(static_cast<int>(attr_count)) {
  if (num_brokers == 0 || max_subs_per_broker == 0) {
    throw std::invalid_argument("codec requires at least one broker and one subscription");
  }
  if (attr_count == 0 || attr_count > Schema::kMaxAttrs) {
    throw std::invalid_argument("codec attr_count out of range");
  }
  if (c1_bits_ + c2_bits_ + c3_bits_ > 128) {
    throw std::invalid_argument("subscription id exceeds 128 bits");
  }
}

__uint128_t SubIdCodec::pack(const SubId& id) const {
  const auto check = [](uint64_t v, int bits, const char* field) {
    if (bits < 64 && v >= (uint64_t{1} << bits)) {
      throw std::invalid_argument(std::string(field) + " exceeds its bit width");
    }
  };
  check(id.broker, c1_bits_, "c1 (broker id)");
  check(id.local, c2_bits_, "c2 (local id)");
  check(id.attrs, c3_bits_, "c3 (attribute mask)");
  __uint128_t bits = id.attrs;
  bits |= static_cast<__uint128_t>(id.local) << c3_bits_;
  bits |= static_cast<__uint128_t>(id.broker) << (c3_bits_ + c2_bits_);
  return bits;
}

SubId SubIdCodec::unpack(__uint128_t bits) const noexcept {
  const auto mask = [](int n) -> __uint128_t {
    return n >= 128 ? ~__uint128_t{0} : ((__uint128_t{1} << n) - 1);
  };
  SubId id;
  id.attrs = static_cast<AttrMask>(bits & mask(c3_bits_));
  id.local = static_cast<uint32_t>((bits >> c3_bits_) & mask(c2_bits_));
  id.broker = static_cast<BrokerId>((bits >> (c3_bits_ + c2_bits_)) & mask(c1_bits_));
  return id;
}

}  // namespace subsum::model
