// Test engine that replays a scripted word sequence, then falls back to
// a real engine. Lets tests force the Lemire rejection path, which real
// 64-bit streams hit with probability ~range/2^64 (never in practice),
// and check that two draw paths leave the stream at the same position.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "rng/xoshiro256.hpp"

namespace iba::test {

class ScriptedEngine {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  ScriptedEngine(std::vector<std::uint64_t> script, std::uint64_t seed)
      : script_(std::move(script)), fallback_(seed) {}

  result_type operator()() {
    ++drawn_;
    if (pos_ < script_.size()) {
      return script_[pos_++];
    }
    return fallback_();
  }

  [[nodiscard]] std::size_t words_drawn() const { return drawn_; }

 private:
  std::vector<std::uint64_t> script_;
  std::size_t pos_ = 0;
  std::size_t drawn_ = 0;
  rng::Xoshiro256pp fallback_;
};

}  // namespace iba::test
