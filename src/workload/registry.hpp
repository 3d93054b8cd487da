#pragma once

#include <string>
#include <vector>

#include "workload/spec.hpp"

namespace ibsim::workload {

/// String-keyed factory for the canned workload patterns, a fixed table:
/// `all_to_all`, `idle`, `incast`, `ring_allreduce`, `stencil` and
/// `tree_allreduce` ("file" names a DSL file instead). Like
/// `ccalg::CcAlgorithmRegistry`, the backing map keeps names sorted so
/// enumeration order is deterministic.
class WorkloadRegistry {
 public:
  using Builder = WorkloadSpec (*)(const WorkloadParams&);

  [[nodiscard]] static WorkloadRegistry& instance();

  [[nodiscard]] bool contains(const std::string& name) const;

  /// Build an instance of `name`; aborts if unknown — callers that take
  /// user input must check contains() first and report `names()` in
  /// their error message.
  [[nodiscard]] WorkloadSpec build(const std::string& name,
                                   const WorkloadParams& params) const;

  /// All registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  /// "all_to_all, idle, incast, ..." — for error messages and --help.
  [[nodiscard]] std::string names_joined() const;
};

}  // namespace ibsim::workload
