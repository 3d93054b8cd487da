#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ccalg/cc_algorithm.hpp"

namespace ibsim::ccalg {

/// String-keyed factory for reaction-point algorithms, a fixed table of
/// the four built-in algorithms (`aimd`, `dcqcn`, `iba_a10`, `none`).
/// The backing map keeps names sorted, so enumeration order — and the
/// numeric ids derived from it — is deterministic.
class CcAlgorithmRegistry {
 public:
  using Factory = std::unique_ptr<CcAlgorithm> (*)(const CcAlgoContext&);

  [[nodiscard]] static CcAlgorithmRegistry& instance();

  [[nodiscard]] bool contains(const std::string& name) const;

  /// Create an instance of `name`; aborts if unknown — callers that take
  /// user input must check contains() first and report `names()` in
  /// their error message.
  [[nodiscard]] std::unique_ptr<CcAlgorithm> create(const std::string& name,
                                                    const CcAlgoContext& ctx) const;

  /// All registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  /// Stable numeric id of `name` (its rank in the sorted name list), or
  /// -1 when unknown. Published as the `cc.algo` telemetry gauge, which
  /// only carries integers.
  [[nodiscard]] std::int64_t id_of(const std::string& name) const;

  /// "aimd, dcqcn, iba_a10, none" — for error messages and --help.
  [[nodiscard]] std::string names_joined() const;

 private:
  CcAlgorithmRegistry();

  const std::map<std::string, Factory> factories_;
};

}  // namespace ibsim::ccalg
