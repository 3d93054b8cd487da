#pragma once

#include <cstdint>
#include <string>

namespace ibsim::store {

/// Self-contained SHA-256 (FIPS 180-4). The result store keys runs by
/// content hash; a 64-bit mixer would make accidental key collisions a
/// realistic event over campaign-sized stores, so we pay the ~100 lines
/// for a real cryptographic digest instead of depending on a library
/// the build image may not carry.
class Sha256 {
 public:
  Sha256();

  /// Absorb `len` bytes. May be called repeatedly.
  void update(const void* data, std::size_t len);

  /// Finalise and return the 64-char lowercase hex digest. The object
  /// must not be updated afterwards.
  [[nodiscard]] std::string hex_digest();

 private:
  void process_block(const std::uint8_t* block);

  std::uint32_t state_[8];
  std::uint64_t total_bytes_ = 0;
  std::uint8_t buffer_[64];
  std::size_t buffered_ = 0;
};

}  // namespace ibsim::store
