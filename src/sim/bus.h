// Message accounting for the deterministic in-process simulation. Every
// broker-to-broker message is recorded with a class and a byte size; the
// benches read the ledger to produce the paper's bandwidth/hop numbers.
#pragma once

#include <array>
#include <cstddef>
#include <string>

namespace subsum::sim {

enum class MsgType : uint8_t {
  kSummary = 0,        // propagation-phase summary messages (Algorithm 2)
  kSubForward = 1,     // per-subscription forwards (baselines)
  kEventForward = 2,   // event forwarding along the BROCLI walk
  kEventDelivery = 3,  // event + matched-id notifications to owner brokers
};
constexpr size_t kMsgTypeCount = 4;

const char* to_string(MsgType t) noexcept;

class Accounting {
 public:
  void record(MsgType t, size_t bytes) noexcept {
    auto& c = cells_[static_cast<size_t>(t)];
    c.messages += 1;
    c.bytes += bytes;
  }

  [[nodiscard]] size_t messages(MsgType t) const noexcept {
    return cells_[static_cast<size_t>(t)].messages;
  }
  [[nodiscard]] size_t bytes(MsgType t) const noexcept {
    return cells_[static_cast<size_t>(t)].bytes;
  }
  [[nodiscard]] size_t total_messages() const noexcept;
  [[nodiscard]] size_t total_bytes() const noexcept;

  void reset() noexcept { cells_ = {}; }

  [[nodiscard]] std::string to_string() const;

 private:
  struct Cell {
    size_t messages = 0;
    size_t bytes = 0;
  };
  std::array<Cell, kMsgTypeCount> cells_{};
};

}  // namespace subsum::sim
