// Allocation-count regression guard for the fabric hot path, and an
// allocation-size guard for per-HCA CC state.
//
// The PR 7 layout refactor (SoA port/VL banks + the packet arena) promises
// that once a simulation reaches steady state, the per-packet path performs
// ZERO heap allocations: packets recycle through the arena freelist, queues
// are intrusive, arbiter tables are inline, and every hot vector is
// reserved at build time. This binary overrides the global allocator to
// count every operator-new across a steady-state window of >100k events
// and pins the count to a small constant. What may still allocate grows
// only when something sets a new record, never per packet: the event
// queue's chunk pool (the calendar wheel's storage) when the total
// pending count does, its heaps and drain array geometrically, and a CC
// reaction point's list of throttled flows when more flows are throttled
// at once than ever before. The packet arena itself must not grow at all.
//
// The allocator also counts bytes: a CC agent must not size its flow
// state by the fabric's node count, so building one for a million
// nodes may allocate no more than building one for 64; and building and
// running the 10240-HCA fat-tree may allocate at most 16 KiB per HCA in
// all (it takes about 8 KB), so a per-HCA table holding 4 bytes per
// node (40 KiB) cannot hide in it.
//
// Kept in its own test binary so the counting allocator cannot interact
// with any other suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "cc/ca_cc.hpp"
#include "sim/simulation.hpp"
#include "topo/builders.hpp"

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
std::atomic<std::uint64_t> g_heap_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  g_heap_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  g_heap_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                               (size + static_cast<std::size_t>(align) - 1) &
                                   ~(static_cast<std::size_t>(align) - 1));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace ibsim::sim {
namespace {

SimConfig hotspot_config(bool cc_on) {
  SimConfig config;
  config.topology = TopologyKind::FoldedClos;
  config.clos = topo::FoldedClosParams::scaled(6, 3, 3);
  config.sim_time = 20 * core::kMillisecond;
  config.warmup = core::kMillisecond;
  config.seed = 1;
  config.cc = cc_on ? ib::CcParams::paper_table1() : ib::CcParams::disabled();
  config.scenario.fraction_b = 1.0;
  config.scenario.p = 0.5;
  config.scenario.n_hotspots = 1;
  return config;
}

/// Warm a simulation past its transient, then count heap allocations over
/// a further simulate window.
struct WindowCounts {
  std::uint64_t heap_allocs;
  std::uint64_t arena_growths;
  std::uint64_t events;
};

WindowCounts run_and_count(Simulation& sim, core::Time warm_until, core::Time measure_until) {
  sim.fabric().start(sim.sched());
  sim.sched().run_until(warm_until);
  const std::uint64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  const std::uint64_t growths_before = sim.fabric().arena().growths();
  const std::uint64_t events = sim.sched().run_until(measure_until);
  return {g_heap_allocs.load(std::memory_order_relaxed) - allocs_before,
          sim.fabric().arena().growths() - growths_before, events};
}

// By 10ms of simulated hotspot traffic every hot vector has seen its
// working-set peak; the remaining 10ms window executes >100k events and
// may allocate at most a handful of times (one of those records
// occasionally broken). 16 is over 3 orders of magnitude below
// one-per-packet, so any per-packet allocation sneaking back into the
// path blows through it immediately.
constexpr std::uint64_t kWindowAllocBudget = 16;

TEST(AllocAudit, SteadyStateWindowHasNoPerPacketAllocations) {
  // Hotspot congestion with CC enabled: packet churn, FECN/BECN/CNP
  // traffic, CC timers, credit returns — the full hot path.
  Simulation sim(hotspot_config(/*cc_on=*/true));
  const WindowCounts counts =
      run_and_count(sim, 10 * core::kMillisecond, 20 * core::kMillisecond);
  ASSERT_GT(counts.events, 100000u) << "window too quiet to prove anything";
  EXPECT_LE(counts.heap_allocs, kWindowAllocBudget)
      << "the steady-state path allocates per packet again ("
      << counts.heap_allocs << " allocations over " << counts.events
      << " events)";
  EXPECT_EQ(counts.arena_growths, 0u) << "the packet arena grew mid-run";
}

TEST(AllocAudit, SteadyStateWindowHasNoPerPacketAllocationsWithoutCc) {
  // CC off removes throttling, so offered load — and packet churn — is
  // strictly higher; the zero-per-packet property must hold regardless.
  Simulation sim(hotspot_config(/*cc_on=*/false));
  const WindowCounts counts =
      run_and_count(sim, 10 * core::kMillisecond, 20 * core::kMillisecond);
  ASSERT_GT(counts.events, 100000u);
  EXPECT_LE(counts.heap_allocs, kWindowAllocBudget)
      << counts.heap_allocs << " allocations over " << counts.events
      << " events";
  EXPECT_EQ(counts.arena_growths, 0u);
}

TEST(AllocAudit, ArenaFollowsLivePackets) {
  // A fresh fabric's arena holds no packet slots, and a run touches
  // exactly as many as were ever live at once. live() is sampled after
  // every simulated instant, the finest step the scheduler offers.
  Simulation sim(hotspot_config(/*cc_on=*/true));
  const ib::PacketArena& arena = sim.fabric().arena();
  EXPECT_EQ(arena.slots(), 0u);
  EXPECT_EQ(arena.capacity(), 0u);
  core::Scheduler& sched = sim.sched();
  sim.fabric().start(sched);
  std::int64_t peak = 0;
  while (sched.next_event_time() <= 10 * core::kMillisecond) {
    sched.run_until(sched.next_event_time());
    peak = std::max(peak, arena.live());
  }
  ASSERT_GT(peak, 0) << "the fabric carried no traffic";
  EXPECT_EQ(arena.slots(), static_cast<std::size_t>(peak));
  EXPECT_LT(arena.capacity(), 2 * static_cast<std::size_t>(peak));
}

class NullCnpSender : public cc::CnpSender {
 public:
  void send_cnp(ib::NodeId to, ib::NodeId flow_dst) override {
    (void)to;
    (void)flow_dst;
  }
};

/// Bytes allocated while constructing a CC agent for an `n_nodes`
/// fabric, and further while it sends one packet to each of its first
/// `flows_used` destinations.
struct AgentBytes {
  std::uint64_t construct;
  std::uint64_t flows;
};

AgentBytes agent_bytes(std::int32_t n_nodes, const char* algo, std::int32_t flows_used) {
  ib::CongestionControlTable cct;
  cct.populate_linear();
  core::Scheduler sched;
  NullCnpSender sender;
  const std::uint64_t before = g_heap_bytes.load(std::memory_order_relaxed);
  cc::CaCcAgent agent(0, n_nodes, ib::CcParams::paper_table1(), &cct, &sched, &sender, algo);
  const std::uint64_t built = g_heap_bytes.load(std::memory_order_relaxed);
  for (ib::NodeId dst = 0; dst < flows_used; ++dst) {
    agent.on_data_granted(dst, ib::kMtuBytes, core::kMicrosecond);
  }
  return {built - before, g_heap_bytes.load(std::memory_order_relaxed) - built};
}

TEST(AllocAudit, CcAgentStateDoesNotScaleWithTheFabric) {
  for (const char* algo : {"iba_a10", "dcqcn"}) {
    (void)agent_bytes(64, algo, 0);  // first-use allocations of the registry
    const AgentBytes small = agent_bytes(64, algo, 0);
    const AgentBytes huge = agent_bytes(1 << 20, algo, 0);
    EXPECT_LE(huge.construct, small.construct)
        << algo << ": building an agent for 1M nodes allocated " << huge.construct
        << " bytes, for 64 nodes " << small.construct;
    // State follows the flows in use: 100 flows stay within a few KiB
    // of table, whatever the fabric's size.
    const AgentBytes used = agent_bytes(1 << 20, algo, 100);
    EXPECT_LE(used.flows, 32u * 1024u) << algo;
  }
}

/// Footprint ceiling of the 10k fat-tree: bytes handed out by operator
/// new per HCA over the snapshot, fabric build and a 100 us run. Nothing
/// at this scale may be sized by node count squared: one 4-byte entry
/// per (HCA, destination) alone is 40 KiB per HCA, and dense
/// per-destination CC state used to cost ~240 KB.
constexpr std::uint64_t kMaxBytesPerEndpoint = 16384;

TEST(AllocAudit, Scale10kFootprintPerEndpoint) {
  SimConfig config;
  config.topology = TopologyKind::FatTree3;
  config.fat_tree3 = topo::FatTree3Params::scale_10k();
  config.sim_time = 100 * core::kMicrosecond;
  config.warmup = 0;
  config.cc.ccti_increase = 4;
  config.cc.ccti_timer = 38;
  config.scenario.fraction_b = 0.0;
  config.scenario.fraction_c_of_rest = 0.8;
  config.scenario.n_hotspots = 8;
  const std::uint64_t endpoints = static_cast<std::uint64_t>(config.fat_tree3.node_count());

  const std::uint64_t before = g_heap_bytes.load(std::memory_order_relaxed);
  Simulation sim(config);
  const SimResult result = sim.run();
  const std::uint64_t per_endpoint =
      (g_heap_bytes.load(std::memory_order_relaxed) - before) / endpoints;
  ASSERT_GT(result.delivered_packets, 0u) << "the fabric carried no traffic";
  EXPECT_LE(per_endpoint, kMaxBytesPerEndpoint)
      << "building and running " << endpoints << " HCAs allocated " << per_endpoint
      << " bytes per HCA";
}

}  // namespace
}  // namespace ibsim::sim
