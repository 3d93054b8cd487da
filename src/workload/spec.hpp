#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/time.hpp"

namespace ibsim::workload {

/// One point-to-point message of an application workload: `src_rank`
/// sends `bytes` to `dst_rank` once every dependency has completed and
/// the sender's `compute` delay has elapsed. Completion means the last
/// byte drained at the destination's sink — so fabric congestion
/// directly stretches the dependency chain, which is the feedback loop
/// the synthetic generators cannot express.
struct WorkloadOp {
  std::int32_t src_rank = 0;
  std::int32_t dst_rank = 0;
  std::int64_t bytes = 0;
  /// Logical phase (collective step) the op belongs to; phases only
  /// group ops for reporting — ordering comes from `deps`.
  std::int32_t phase = 0;
  /// Local computation inserted between the last dependency completing
  /// and this op becoming eligible to inject.
  core::Time compute = 0;
  /// Indices of ops that must complete before this one may start. Every
  /// dep must be a *smaller* index, so a spec is a DAG by construction.
  std::vector<std::int32_t> deps;
};

/// A complete application workload: `ranks` logical processes and the
/// dependency-ordered message set they exchange. Ranks map onto end
/// nodes 0..ranks-1 of the fabric they run on.
struct WorkloadSpec {
  std::string name;
  std::int32_t ranks = 0;
  std::vector<WorkloadOp> ops;

  /// Number of phases (max phase index + 1; 0 when there are no ops).
  [[nodiscard]] std::int32_t phase_count() const;
  /// Structural check: ranks >= 1, src/dst in range and distinct,
  /// bytes > 0, phase below the op count (so phase_count() never
  /// exceeds it), deps strictly earlier. Returns "" or a description.
  [[nodiscard]] std::string validate() const;
};

/// Knobs of the canned pattern builders.
struct WorkloadParams {
  std::int32_t ranks = 8;
  /// Payload per logical message (collectives divide it into chunks
  /// where the algorithm does, e.g. ring allreduce).
  std::int64_t message_bytes = 64 * 1024;
  /// Times the pattern repeats; iteration k+1 depends on iteration k.
  std::int32_t iterations = 1;
  /// Compute delay between dependency resolution and injection for ops
  /// that start a new iteration (models the application's compute step).
  core::Time compute = 0;
};

// Canned MPI-style patterns. All return specs satisfying validate().
/// Ranks 1..R-1 each send message_bytes to rank 0; iterations are
/// barrier-separated (every send of round k+1 waits for all of round k).
[[nodiscard]] WorkloadSpec build_incast(const WorkloadParams& params);
/// Classic ring allreduce: 2(R-1) steps of message_bytes/R chunks, each
/// step gated on the sender's previous send and its left neighbour's.
[[nodiscard]] WorkloadSpec build_ring_allreduce(const WorkloadParams& params);
/// Binomial-tree reduce to rank 0 followed by the mirrored broadcast.
[[nodiscard]] WorkloadSpec build_tree_allreduce(const WorkloadParams& params);
/// Pairwise-exchange personalized all-to-all: R-1 shifted steps, each
/// rank's step s send gated on its step s-1 send.
[[nodiscard]] WorkloadSpec build_all_to_all(const WorkloadParams& params);
/// 1-D ring halo exchange: every iteration each rank sends to both
/// neighbours, gated on its previous iteration's sends and receives.
[[nodiscard]] WorkloadSpec build_stencil(const WorkloadParams& params);
/// No application traffic at all — the victim-flow baseline: background
/// senders run alone, completion is immediate.
[[nodiscard]] WorkloadSpec build_idle(const WorkloadParams& params);

/// Parse the compact workload DSL:
///
///   # comment
///   name  <identifier>                  (optional)
///   ranks <R>                           (required, before the first op)
///   op src <i> dst <j> bytes <n> [phase <p>] [compute_us <t>]
///      [after <id>[,<id>...]]
///
/// Ops are numbered 0,1,2,... in file order; `after` references those
/// numbers and must point backwards. Returns "" on success or a
/// "line N: ..." diagnostic; `*out` is only valid on success.
[[nodiscard]] std::string parse_workload_text(const std::string& text, WorkloadSpec* out);

/// Load and parse a DSL file; same diagnostics plus I/O errors.
[[nodiscard]] std::string load_workload_file(const std::string& path, WorkloadSpec* out);

}  // namespace ibsim::workload
