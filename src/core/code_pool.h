// The Instruction Manager's dynamic code memory (paper Sec. 3.2):
// "the instruction manager allocates the minimum number of 22 byte blocks
// necessary to store the agent's code. ... By default, the instruction
// manager is allocated 440 bytes (20 blocks)."
//
// Only the capacity rule is modelled: an agent whose code needs more
// blocks than are free is rejected. The code bytes themselves live once,
// in the agent's DecodedProgram (core/vm_dispatch.h); no simulated cost
// depends on where the blocks would sit or how they would be chained.
#pragma once

#include <cassert>
#include <cstddef>

namespace agilla::core {

class CodePool {
 public:
  static constexpr std::size_t kBlockSize = 22;  ///< paper Sec. 3.2
  static constexpr std::size_t kDefaultBlocks = 20;

  explicit CodePool(std::size_t num_blocks = kDefaultBlocks)
      : total_blocks_(num_blocks) {}

  /// Reserves the blocks for `code_bytes` of code. False when the code is
  /// empty, larger than the pool or than a 16-bit code address reaches, or
  /// needs more blocks than are free (the receiver then rejects the agent).
  [[nodiscard]] bool reserve(std::size_t code_bytes) {
    if (code_bytes == 0 || code_bytes > capacity_bytes() ||
        code_bytes > 0xFFFF || blocks_needed(code_bytes) > free_blocks()) {
      return false;
    }
    used_blocks_ += blocks_needed(code_bytes);
    return true;
  }

  /// Returns the blocks `reserve(code_bytes)` took.
  void release(std::size_t code_bytes) {
    assert(blocks_needed(code_bytes) <= used_blocks_);
    used_blocks_ -= blocks_needed(code_bytes);
  }

  [[nodiscard]] static std::size_t blocks_needed(std::size_t code_bytes) {
    return (code_bytes + kBlockSize - 1) / kBlockSize;
  }

  [[nodiscard]] std::size_t total_blocks() const { return total_blocks_; }
  [[nodiscard]] std::size_t used_blocks() const { return used_blocks_; }
  [[nodiscard]] std::size_t free_blocks() const {
    return total_blocks_ - used_blocks_;
  }
  [[nodiscard]] std::size_t capacity_bytes() const {
    return total_blocks_ * kBlockSize;
  }

 private:
  std::size_t total_blocks_;
  std::size_t used_blocks_ = 0;
};

}  // namespace agilla::core
