// The programs the live agents of one deployment hold, by content: one
// immutable DecodedProgram (core/vm_dispatch.h) per distinct code image,
// whichever mote an agent sits on (DESIGN.md "Per-mote footprint").
// Agilla applications spread by cloning one agent onto many motes, so a
// deployment holds thousands of agents but only a few distinct images.
//
// The table keeps no program alive: it maps a content hash to weak
// references, and a program dies with its last agent, on any mote. Shard
// workers intern concurrently, so a lookup here takes a lock; the engine
// asks only after its own live agents missed (VmDispatcher::program_for).
// Implemented in core/vm_dispatch.cpp, next to the decoder.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>

namespace agilla::core {

class DecodedProgram;

class ProgramTable {
 public:
  ProgramTable() = default;
  ProgramTable(const ProgramTable&) = delete;
  ProgramTable& operator=(const ProgramTable&) = delete;

  /// The live program whose bytes equal `code` (hash compared first,
  /// then the bytes), else a fresh decode, entered into the table.
  /// `hash` must be hash_code_bytes(code).
  std::shared_ptr<const DecodedProgram> intern(
      std::span<const std::uint8_t> code, std::uint64_t hash);

  /// Entries held, expired ones not yet dropped included. Expired entries
  /// go when their hash is looked up again and at each sweep, so this
  /// stays within twice the live distinct programs (plus kFirstSweep).
  [[nodiscard]] std::size_t size() const;

  /// Table size that triggers the first sweep of expired entries.
  static constexpr std::size_t kFirstSweep = 64;

 private:
  mutable std::mutex mutex_;
  std::unordered_multimap<std::uint64_t, std::weak_ptr<const DecodedProgram>>
      entries_;
  std::size_t sweep_at_ = kFirstSweep;
};

}  // namespace agilla::core
