#include "workload/spec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "workload/registry.hpp"

namespace ibsim::workload {
namespace {

WorkloadParams params(std::int32_t ranks, std::int32_t iters = 1) {
  WorkloadParams p;
  p.ranks = ranks;
  p.message_bytes = 8192;
  p.iterations = iters;
  return p;
}

TEST(WorkloadSpec, IncastShape) {
  const WorkloadSpec spec = build_incast(params(4, 2));
  EXPECT_TRUE(spec.validate().empty()) << spec.validate();
  ASSERT_EQ(spec.ops.size(), 6u);  // (ranks-1) senders x 2 iterations
  EXPECT_EQ(spec.phase_count(), 2);
  for (const WorkloadOp& op : spec.ops) EXPECT_EQ(op.dst_rank, 0);
  // First iteration starts unconstrained; the second barriers on all of it.
  for (std::size_t i = 0; i < 3; ++i) EXPECT_TRUE(spec.ops[i].deps.empty());
  for (std::size_t i = 3; i < 6; ++i) {
    EXPECT_EQ(spec.ops[i].deps, (std::vector<std::int32_t>{0, 1, 2}));
    EXPECT_EQ(spec.ops[i].phase, 1);
  }
}

TEST(WorkloadSpec, RingAllreduceShape) {
  const WorkloadSpec spec = build_ring_allreduce(params(4));
  EXPECT_TRUE(spec.validate().empty()) << spec.validate();
  // 2(R-1) steps x R ranks.
  ASSERT_EQ(spec.ops.size(), 24u);
  EXPECT_EQ(spec.phase_count(), 6);
  // Chunks are message_bytes / R.
  for (const WorkloadOp& op : spec.ops) {
    EXPECT_EQ(op.bytes, 8192 / 4);
    EXPECT_EQ(op.dst_rank, (op.src_rank + 1) % 4);
  }
  // Step 1, rank 2 waits on its own step-0 send and its left neighbour's.
  const WorkloadOp& op = spec.ops[4 + 2];
  EXPECT_EQ(op.deps, (std::vector<std::int32_t>{2, 1}));
}

TEST(WorkloadSpec, RingAllreduceIterationsChain) {
  const WorkloadSpec spec = build_ring_allreduce(params(3, 2));
  EXPECT_TRUE(spec.validate().empty());
  const std::size_t per_iter = 4u * 3u;  // 2(R-1) steps x R
  ASSERT_EQ(spec.ops.size(), 2 * per_iter);
  // First step of iteration 2 depends on the last step of iteration 1.
  const WorkloadOp& op = spec.ops[per_iter];
  EXPECT_EQ(op.deps.size(), 2u);
  for (const std::int32_t d : op.deps) EXPECT_LT(d, static_cast<std::int32_t>(per_iter));
}

TEST(WorkloadSpec, TreeAllreduceShape) {
  for (const std::int32_t ranks : {2, 4, 5, 8}) {
    const WorkloadSpec spec = build_tree_allreduce(params(ranks));
    EXPECT_TRUE(spec.validate().empty()) << "ranks=" << ranks << ": " << spec.validate();
    // Every non-root rank sends once up (reduce) and receives once down
    // (broadcast): 2(R-1) ops total.
    EXPECT_EQ(spec.ops.size(), static_cast<std::size_t>(2 * (ranks - 1)))
        << "ranks=" << ranks;
    std::set<std::int32_t> broadcast_receivers;
    for (const WorkloadOp& op : spec.ops) broadcast_receivers.insert(op.dst_rank);
    // Everyone is reached by some message (root by the reduce sends).
    EXPECT_EQ(broadcast_receivers.size(), static_cast<std::size_t>(ranks));
  }
}

TEST(WorkloadSpec, TreeAllreduceRootGatesBroadcast) {
  const WorkloadSpec spec = build_tree_allreduce(params(4));
  // Broadcast sends out of rank 0 depend on every reduce send into it.
  for (const WorkloadOp& op : spec.ops) {
    if (op.src_rank != 0) continue;
    EXPECT_FALSE(op.deps.empty());
    for (const std::int32_t d : op.deps) {
      EXPECT_EQ(spec.ops[static_cast<std::size_t>(d)].dst_rank, 0);
    }
  }
}

TEST(WorkloadSpec, AllToAllShape) {
  const WorkloadSpec spec = build_all_to_all(params(4, 2));
  EXPECT_TRUE(spec.validate().empty()) << spec.validate();
  ASSERT_EQ(spec.ops.size(), 4u * 3u * 2u);  // R x (R-1) pairs x 2 iterations
  // Every ordered pair appears once per iteration.
  std::set<std::pair<std::int32_t, std::int32_t>> pairs;
  for (std::size_t i = 0; i < 12; ++i) {
    pairs.emplace(spec.ops[i].src_rank, spec.ops[i].dst_rank);
  }
  EXPECT_EQ(pairs.size(), 12u);
  // Each rank's shift-s send waits on its shift-(s-1) send.
  const WorkloadOp& second_shift = spec.ops[4 + 1];  // shift 2, rank 1
  ASSERT_EQ(second_shift.deps.size(), 1u);
  EXPECT_EQ(spec.ops[static_cast<std::size_t>(second_shift.deps[0])].src_rank, 1);
}

TEST(WorkloadSpec, StencilShape) {
  const WorkloadSpec spec = build_stencil(params(4, 2));
  EXPECT_TRUE(spec.validate().empty()) << spec.validate();
  ASSERT_EQ(spec.ops.size(), 4u * 2u * 2u);  // 2 halos per rank per iteration
  // Iteration-2 ops wait on the sender's own halos and its neighbours'.
  for (std::size_t i = 8; i < 16; ++i) {
    EXPECT_FALSE(spec.ops[i].deps.empty());
    EXPECT_EQ(spec.ops[i].phase, 1);
  }
}

TEST(WorkloadSpec, StencilTwoRanksDedupsDeps) {
  const WorkloadSpec spec = build_stencil(params(2, 2));
  EXPECT_TRUE(spec.validate().empty()) << spec.validate();
  for (const WorkloadOp& op : spec.ops) {
    std::vector<std::int32_t> deps = op.deps;
    std::sort(deps.begin(), deps.end());
    EXPECT_TRUE(std::adjacent_find(deps.begin(), deps.end()) == deps.end());
  }
}

TEST(WorkloadSpec, IdleIsEmpty) {
  const WorkloadSpec spec = build_idle(params(4));
  EXPECT_TRUE(spec.validate().empty());
  EXPECT_TRUE(spec.ops.empty());
  EXPECT_EQ(spec.phase_count(), 0);
}

TEST(WorkloadSpec, ComputeAppliedToIterationStarts) {
  WorkloadParams p = params(3, 2);
  p.compute = 5 * core::kMicrosecond;
  const WorkloadSpec spec = build_incast(p);
  for (const WorkloadOp& op : spec.ops) {
    EXPECT_EQ(op.compute, op.deps.empty() ? 0 : 5 * core::kMicrosecond);
  }
}

TEST(WorkloadSpec, ValidateRejectsBadOps) {
  WorkloadSpec spec;
  spec.ranks = 2;
  WorkloadOp op;
  op.src_rank = 0;
  op.dst_rank = 0;  // self-send
  op.bytes = 1;
  spec.ops.push_back(op);
  EXPECT_NE(spec.validate().find("same"), std::string::npos);

  spec.ops[0].dst_rank = 5;  // out of range
  EXPECT_NE(spec.validate().find("out of range"), std::string::npos);

  spec.ops[0].dst_rank = 1;
  spec.ops[0].bytes = 0;
  EXPECT_NE(spec.validate().find("positive"), std::string::npos);

  spec.ops[0].bytes = 1;
  spec.ops[0].deps = {0};  // self/forward dependency
  EXPECT_NE(spec.validate().find("earlier"), std::string::npos);
}

TEST(WorkloadDsl, ParsesFullExample) {
  WorkloadSpec spec;
  const std::string err = parse_workload_text(R"(
# a tiny pipeline
name demo
ranks 3
op src 0 dst 1 bytes 4096
op src 1 dst 2 bytes 4096 after 0 phase 1
op src 2 dst 0 bytes 8192 after 0,1 phase 2 compute_us 7
)",
                                              &spec);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_EQ(spec.name, "demo");
  EXPECT_EQ(spec.ranks, 3);
  ASSERT_EQ(spec.ops.size(), 3u);
  EXPECT_TRUE(spec.ops[0].deps.empty());
  EXPECT_EQ(spec.ops[1].deps, (std::vector<std::int32_t>{0}));
  EXPECT_EQ(spec.ops[2].deps, (std::vector<std::int32_t>{0, 1}));
  EXPECT_EQ(spec.ops[2].phase, 2);
  EXPECT_EQ(spec.ops[2].compute, 7 * core::kMicrosecond);
  EXPECT_EQ(spec.ops[2].bytes, 8192);
}

TEST(WorkloadDsl, ReportsLineNumbers) {
  WorkloadSpec spec;
  EXPECT_NE(parse_workload_text("ranks 2\nbogus 1\n", &spec).find("line 2"),
            std::string::npos);
  EXPECT_NE(parse_workload_text("op src 0 dst 1 bytes 4\n", &spec).find("line 1"),
            std::string::npos);  // op before ranks
  const std::string fwd =
      parse_workload_text("ranks 2\nop src 0 dst 1 bytes 4 after 1\n", &spec);
  EXPECT_NE(fwd.find("line 2"), std::string::npos);
  EXPECT_NE(fwd.find("earlier"), std::string::npos);
  EXPECT_NE(parse_workload_text("ranks 2\nop src 0 dst 1\n", &spec).find("bytes"),
            std::string::npos);
  EXPECT_NE(parse_workload_text("ranks 2\nop src 0 dst 1 bytes\n", &spec)
                .find("missing a value"),
            std::string::npos);
  EXPECT_NE(parse_workload_text("ranks 2\nop src 0 dst 1 bytes x\n", &spec)
                .find("integer"),
            std::string::npos);
}

TEST(WorkloadDsl, RejectsStructurallyInvalidSpecs) {
  WorkloadSpec spec;
  EXPECT_NE(parse_workload_text("", &spec).find("ranks"), std::string::npos);
  EXPECT_NE(parse_workload_text("ranks 2\nop src 0 dst 0 bytes 4\n", &spec).find("same"),
            std::string::npos);
}

// An integer that the field cannot hold is named, never wrapped or
// overflowed into a valid-looking value.
TEST(WorkloadDsl, RejectsOutOfRangeIntegers) {
  WorkloadSpec spec;
  EXPECT_EQ(parse_workload_text("ranks 4\nop src 4294967297 dst 2 bytes 4096\n", &spec),
            "line 2: value 4294967297 out of range for 'src' (0..2147483647)");
  EXPECT_EQ(parse_workload_text("ranks 4\nop src 0 dst -1 bytes 4096\n", &spec),
            "line 2: value -1 out of range for 'dst' (0..2147483647)");
  EXPECT_EQ(parse_workload_text("ranks 4294967298\n", &spec),
            "line 1: value 4294967298 out of range for 'ranks' (1..2147483647)");
  EXPECT_EQ(parse_workload_text("ranks 0\n", &spec),
            "line 1: value 0 out of range for 'ranks' (1..2147483647)");
  EXPECT_EQ(
      parse_workload_text("ranks 4\nop src 0 dst 1 bytes 4096 compute_us 9223372036854775\n",
                          &spec),
      "line 2: value 9223372036854775 out of range for 'compute_us' (0..9223372036854)");
  EXPECT_EQ(parse_workload_text("ranks 4\nop src 0 dst 1 bytes 4096 phase 2147483647\n", &spec),
            "line 2: value 2147483647 out of range for 'phase' (0..2147483646)");
  // Beyond int64 too.
  EXPECT_EQ(parse_workload_text("ranks 4\nop src 0 dst 1 bytes 99999999999999999999\n", &spec),
            "line 2: value 99999999999999999999 out of range for 'bytes' "
            "(-9223372036854775808..9223372036854775807)");
  // The largest phase the field holds is read, then refused: a one-op
  // workload has one phase. The largest compute delay still parses.
  EXPECT_EQ(parse_workload_text("ranks 4\nop src 0 dst 3 bytes 4096 phase 2147483646\n", &spec),
            "op 0: phase 2147483646 must be below the op count (1)");
  ASSERT_EQ(parse_workload_text("ranks 4\nop src 0 dst 3 bytes 4096 compute_us 9223372036854\n",
                                &spec),
            "");
  EXPECT_EQ(spec.ops[0].compute, 9223372036854 * core::kMicrosecond);
}

// Phases only label ops for reporting, and the engine keeps one slot per
// phase: a label at or past the op count is refused, so a file cannot
// size that table.
TEST(WorkloadDsl, PhaseLabelsStayBelowTheOpCount) {
  WorkloadSpec spec;
  EXPECT_EQ(parse_workload_text("ranks 2\nop src 0 dst 1 bytes 4096 phase 10000000\n", &spec),
            "op 0: phase 10000000 must be below the op count (1)");
  EXPECT_EQ(parse_workload_text("ranks 2\nop src 0 dst 1 bytes 8 phase 1\n"
                                "op src 1 dst 0 bytes 8 phase 2\n",
                                &spec),
            "op 1: phase 2 must be below the op count (2)");
  ASSERT_EQ(parse_workload_text("ranks 2\nop src 0 dst 1 bytes 8 phase 1\n"
                                "op src 1 dst 0 bytes 8 phase 1\n",
                                &spec),
            "");
  EXPECT_EQ(spec.phase_count(), 2);
  // The canned builders already keep every phase label below the op count.
  for (const std::string& name : WorkloadRegistry::instance().names()) {
    const WorkloadSpec built = WorkloadRegistry::instance().build(name, params(5, 3));
    EXPECT_EQ(built.validate(), "") << name;
  }
}

TEST(WorkloadRegistry, BuiltinsRegisteredSorted) {
  const auto& registry = WorkloadRegistry::instance();
  const std::vector<std::string> names = registry.names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const char* name :
       {"all_to_all", "idle", "incast", "ring_allreduce", "stencil", "tree_allreduce"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
  }
  EXPECT_FALSE(registry.contains("file"));
  EXPECT_FALSE(registry.contains("bogus"));
  EXPECT_NE(registry.names_joined().find("incast"), std::string::npos);
}

TEST(WorkloadRegistry, BuildsByName) {
  const WorkloadSpec spec = WorkloadRegistry::instance().build("incast", params(5));
  EXPECT_EQ(spec.name, "incast");
  EXPECT_EQ(spec.ranks, 5);
  EXPECT_EQ(spec.ops.size(), 4u);
}

}  // namespace
}  // namespace ibsim::workload
