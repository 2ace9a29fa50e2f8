// Model-driven instruction decoder (DESIGN.md S4). Built from an ArchModel
// at load time: for each instruction the fixed-bit mask/match pair comes
// from the ADL encoding declaration. Variable-length ISAs are handled by
// trying candidate lengths longest-first (x86-style longest match), so a
// one-byte opcode can never shadow a longer instruction sharing its prefix.
// Decoded results are cached by address — code is immutable during
// exploration, so every pc is decoded at most once per run.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "adl/model.h"
#include "loader/image.h"

namespace adlsym::decode {

struct DecodedInsn {
  const adl::InsnInfo* insn = nullptr;
  unsigned lengthBytes = 0;
  /// Operand field values, indexed like InsnInfo::operandFields.
  std::vector<uint64_t> operandValues;
  uint64_t raw = 0;  // the undecoded encoding word
};

class Decoder {
 public:
  explicit Decoder(const adl::ArchModel& model);

  /// Decode the instruction at `addr` from the image's concrete bytes.
  /// Returns nullptr for unmapped/unrecognized bytes (illegal instruction).
  const DecodedInsn* decodeAt(const loader::Image& image, uint64_t addr);

  /// Decode from a raw byte buffer (no caching); used by the disassembler
  /// and by decoder unit tests.
  std::optional<DecodedInsn> decodeBytes(const uint8_t* bytes, size_t len) const;

  struct Stats {
    uint64_t decodes = 0;
    uint64_t cacheHits = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  /// Assemble `len` bytes into an encoding word per the model's endianness.
  uint64_t bytesToWord(const uint8_t* bytes, unsigned len) const;

  const adl::ArchModel& model_;
  /// Candidate instructions grouped by length, longest first.
  std::vector<std::pair<unsigned, std::vector<const adl::InsnInfo*>>> byLength_;
  std::unordered_map<uint64_t, DecodedInsn> cache_;
  mutable Stats stats_;
};

}  // namespace adlsym::decode
