#include "sim/sweep_service.hpp"

#include "service/json.hpp"
#include "service/sweep_request.hpp"
#include "store/result_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

namespace ibsim::service {
namespace {

namespace fs = std::filesystem;
using sim::SweepCell;
using sim::SweepService;

Json parse_ok(const std::string& text) {
  std::string error;
  Json v = Json::parse(text, &error);
  EXPECT_TRUE(error.empty()) << error;
  return v;
}

sim::SimConfig tiny_base() {
  sim::SimConfig config;
  config.topology = sim::TopologyKind::SingleSwitch;
  config.single_switch_nodes = 6;
  config.sim_time = 200 * core::kMicrosecond;
  config.warmup = 0;
  config.scenario.n_hotspots = 1;
  return config;
}

TEST(SweepRequest, ParsesBaseAxesAndName) {
  const Json json = parse_ok(
      R"({"op":"submit","name":"t2","base":{"hotspots":1,"fraction_c":0.8},)"
      R"("axes":{"cc_enabled":[0,1],"seed":[1,2,3]}})");
  SweepRequest request;
  std::string error;
  ASSERT_TRUE(parse_sweep_request(json, &request, &error)) << error;
  EXPECT_EQ(request.name, "t2");
  ASSERT_EQ(request.base.size(), 2u);
  EXPECT_EQ(request.base[0], (std::pair<std::string, std::string>{"hotspots", "1"}));
  EXPECT_EQ(request.base[1].second, "0.8");  // source spelling preserved
  ASSERT_EQ(request.axes.size(), 2u);
  EXPECT_EQ(request.axes[0].first, "cc_enabled");
  EXPECT_EQ(request.axes[1].second, (std::vector<std::string>{"1", "2", "3"}));
}

TEST(SweepRequest, RejectsUnknownRequestFields) {
  // A worker count is the daemon's to choose (sweepd --threads); a
  // submit that names one is refused like any other stray field.
  const std::pair<const char*, const char*> cases[] = {
      {R"({"op":"submit","nmae":"typo"})", "nmae"},
      {R"({"op":"submit","name":"x","threads":1e300})", "threads"},
  };
  for (const auto& [text, field] : cases) {
    SweepRequest request;
    std::string error;
    EXPECT_FALSE(parse_sweep_request(parse_ok(text), &request, &error)) << text;
    EXPECT_NE(error.find(std::string("unknown request field '") + field + "'"),
              std::string::npos)
        << error;
  }
}

TEST(SweepRequest, ExpandsCartesianProductRowMajor) {
  SweepRequest request;
  request.name = "grid";
  request.base = {{"hotspots", "1"}};
  request.axes = {{"cc_enabled", {"0", "1"}}, {"seed", {"1", "2", "3"}}};
  std::vector<SweepCell> cells;
  std::string error;
  ASSERT_TRUE(expand_sweep(request, tiny_base(), &cells, &error)) << error;
  ASSERT_EQ(cells.size(), 6u);
  // Last axis varies fastest.
  EXPECT_EQ(cells[0].label, "cc_enabled=0 seed=1");
  EXPECT_EQ(cells[1].label, "cc_enabled=0 seed=2");
  EXPECT_EQ(cells[3].label, "cc_enabled=1 seed=1");
  EXPECT_FALSE(cells[0].config.cc.enabled);
  EXPECT_TRUE(cells[5].config.cc.enabled);
  EXPECT_EQ(cells[5].config.seed, 3u);
  // Base applied to every cell.
  for (const SweepCell& cell : cells) EXPECT_EQ(cell.config.scenario.n_hotspots, 1);
}

TEST(SweepRequest, AxisOverridesBaseAndErrorsPropagate) {
  SweepRequest request;
  request.base = {{"seed", "9"}};
  request.axes = {{"seed", {"1", "2"}}};
  std::vector<SweepCell> cells;
  std::string error;
  ASSERT_TRUE(expand_sweep(request, tiny_base(), &cells, &error)) << error;
  EXPECT_EQ(cells[0].config.seed, 1u);
  EXPECT_EQ(cells[1].config.seed, 2u);

  // Unknown keys get the config parser's diagnostic, did-you-mean included.
  request.base = {{"hotspost", "1"}};
  request.axes.clear();
  EXPECT_FALSE(expand_sweep(request, tiny_base(), &cells, &error));
  EXPECT_NE(error.find("hotspost"), std::string::npos);
  EXPECT_NE(error.find("hotspots"), std::string::npos);
}

TEST(SweepRequest, OutOfRangeAxisValueFailsTheSweep) {
  // 256 does not fit the 8-bit Threshold weight; it must not wrap to 0
  // (marking off) and share threshold_weight=0's run key.
  SweepRequest request;
  request.name = "thresholds";
  request.axes = {{"threshold_weight", {"15", "256"}}};
  std::vector<SweepCell> cells;
  std::string error;
  EXPECT_FALSE(expand_sweep(request, tiny_base(), &cells, &error));
  EXPECT_TRUE(cells.empty());
  EXPECT_NE(error.find("threshold_weight=256"), std::string::npos) << error;
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  EXPECT_NE(error.find("out of range for 'threshold_weight' (0..255)"), std::string::npos)
      << error;
}

TEST(SweepRequest, OversizedProductIsRefusedBeforeExpansion) {
  std::vector<std::string> values(1000);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = std::to_string(i + 1);
  SweepRequest request;
  request.name = "huge";
  request.axes.assign(4, {"seed", values});
  std::vector<SweepCell> cells;
  std::string error;
  EXPECT_FALSE(expand_sweep(request, tiny_base(), &cells, &error));
  EXPECT_TRUE(cells.empty());
  EXPECT_EQ(error, "the axes give 1000000000000 cells; a sweep holds at most 65536");

  // 4^63 wraps a 64-bit product to 0, which must not pass as an empty
  // sweep.
  request.axes.assign(63, {"seed", {"1", "2", "3", "4"}});
  EXPECT_FALSE(expand_sweep(request, tiny_base(), &cells, &error));
  EXPECT_EQ(error, "the axes give over 2^64 cells; a sweep holds at most 65536");
}

TEST(SweepRequest, AxislessRequestIsOneCell) {
  SweepRequest request;
  request.name = "solo";
  request.base = {{"seed", "5"}};
  std::vector<SweepCell> cells;
  std::string error;
  ASSERT_TRUE(expand_sweep(request, tiny_base(), &cells, &error)) << error;
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].label, "solo");
  EXPECT_EQ(cells[0].config.seed, 5u);
}

std::vector<SweepCell> tiny_cells(int n) {
  std::vector<SweepCell> cells;
  for (int i = 0; i < n; ++i) {
    SweepCell cell;
    cell.label = "seed=" + std::to_string(i + 1);
    cell.config = tiny_base();
    cell.config.seed = static_cast<std::uint64_t>(i + 1);
    cells.push_back(cell);
  }
  return cells;
}

/// Thread-safe sink for cell outcomes.
struct Sink {
  std::mutex mu;
  std::vector<SweepService::CellOutcome> outcomes;
  SweepService::CellCallback callback() {
    return [this](const SweepService::CellOutcome& outcome) {
      std::lock_guard<std::mutex> lock(mu);
      outcomes.push_back(outcome);
    };
  }
};

TEST(SweepService, ComputesThenServesFromStore) {
  const fs::path dir = fs::path(::testing::TempDir()) / "ibsim_sweep_service_store";
  fs::remove_all(dir);
  {
    SweepService service({dir.string(), 2});
    Sink first;
    service.submit("cold", tiny_cells(3), first.callback());
    service.drain();
    ASSERT_EQ(first.outcomes.size(), 3u);
    // Cold outcomes arrive in completion order; compare by cell index.
    std::sort(first.outcomes.begin(), first.outcomes.end(),
              [](const auto& x, const auto& y) { return x.index < y.index; });
    for (const auto& outcome : first.outcomes) {
      EXPECT_FALSE(outcome.cached);
      EXPECT_GT(outcome.result.delivered_bytes, 0);
    }

    // Same cells again: pure store hits, delivered before submit returns.
    Sink second;
    service.submit("warm", tiny_cells(3), second.callback());
    ASSERT_EQ(second.outcomes.size(), 3u);
    std::sort(second.outcomes.begin(), second.outcomes.end(),
              [](const auto& x, const auto& y) { return x.index < y.index; });
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_TRUE(second.outcomes[i].cached);
      EXPECT_EQ(second.outcomes[i].result.delivered_bytes,
                first.outcomes[i].result.delivered_bytes)
          << "cached result diverged on cell " << i;
    }

    const auto jobs = service.status();
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].name, "cold");
    EXPECT_TRUE(jobs[0].complete);
    EXPECT_EQ(jobs[1].store_hits, 3u);
    EXPECT_TRUE(jobs[1].complete);
  }
  fs::remove_all(dir);
  store::StoreRegistry::instance().clear();
}

TEST(SweepService, FileWritingCellRunsLiveAndRewritesItsFile) {
  // A stored result cannot write a counter CSV, so a cell that asks for
  // one is neither served from the store nor published to it: the
  // resubmitted cell runs again and writes its file again.
  const fs::path dir = fs::path(::testing::TempDir()) / "ibsim_sweep_service_files";
  const fs::path csv = fs::path(::testing::TempDir()) / "ibsim_sweep_service_counters.csv";
  fs::remove_all(dir);
  fs::remove(csv);
  {
    SweepService service({dir.string(), 1});
    std::vector<SweepCell> cells = tiny_cells(1);
    cells[0].config.telemetry.counters_csv = csv.string();
    for (const char* pass : {"first", "resubmit"}) {
      Sink sink;
      service.submit(pass, cells, sink.callback());
      service.drain();
      ASSERT_EQ(sink.outcomes.size(), 1u) << pass;
      EXPECT_FALSE(sink.outcomes[0].cached) << pass;
      EXPECT_TRUE(fs::exists(csv)) << pass;
      fs::remove(csv);
    }
    EXPECT_EQ(service.store()->entries(), 0u);
  }
  fs::remove_all(dir);
  store::StoreRegistry::instance().clear();
}

TEST(SweepService, ConcurrentIdenticalCellsRunOnce) {
  // No store: dedup must come from in-flight subscription alone. One
  // worker guarantees the first job's second cell is still queued when
  // the overlapping job arrives.
  SweepService service({"", 1});
  Sink a;
  Sink b;
  auto cells_a = tiny_cells(2);  // seeds 1, 2
  auto cells_b = tiny_cells(2);  // identical
  // Long enough per cell (tens of ms of wall time) that the lone worker
  // cannot possibly clear job a's first cell before the very next
  // statement submits job b, even if this thread gets preempted.
  for (auto* cells : {&cells_a, &cells_b}) {
    for (SweepCell& cell : *cells) cell.config.sim_time = 10 * core::kMillisecond;
  }
  service.submit("a", std::move(cells_a), a.callback());
  service.submit("b", std::move(cells_b), b.callback());
  service.drain();

  ASSERT_EQ(a.outcomes.size(), 2u);
  ASSERT_EQ(b.outcomes.size(), 2u);
  // Job b subscribed to a's in-flight runs rather than scheduling its own.
  for (const auto& outcome : b.outcomes) {
    EXPECT_TRUE(outcome.shared) << outcome.label;
  }
  // Both jobs observed the same results, keyed the same.
  const auto by_index = [](std::vector<SweepService::CellOutcome>* v) {
    std::sort(v->begin(), v->end(),
              [](const auto& x, const auto& y) { return x.index < y.index; });
  };
  by_index(&a.outcomes);
  by_index(&b.outcomes);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(a.outcomes[i].key, b.outcomes[i].key);
    EXPECT_EQ(a.outcomes[i].result.delivered_bytes, b.outcomes[i].result.delivered_bytes);
  }
}

TEST(SweepService, StatusTracksProgressAndDoneFires) {
  SweepService service({"", 2});
  Sink sink;
  std::mutex done_mu;
  std::vector<std::uint64_t> done_jobs;
  const std::uint64_t job = service.submit(
      "tracked", tiny_cells(2), sink.callback(), [&](std::uint64_t id) {
        std::lock_guard<std::mutex> lock(done_mu);
        done_jobs.push_back(id);
      });
  service.drain();
  ASSERT_EQ(done_jobs.size(), 1u);
  EXPECT_EQ(done_jobs[0], job);
  const auto jobs = service.status();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].cells, 2u);
  EXPECT_EQ(jobs[0].done, 2u);
  EXPECT_TRUE(jobs[0].complete);
}

/// Probes the order of a two-cell job's callbacks. The first on_cell to
/// enter holds its delivery open until the other cell's on_cell has
/// returned, then gives a premature on_done time to show up before it
/// returns itself. on_done records how many on_cell calls had returned.
struct DeliveryOrderProbe {
  std::mutex mu;
  std::condition_variable cv;
  int entered = 0;
  int returned = 0;
  int returned_at_done = -1;
  bool other_timed_out = false;

  SweepService::CellCallback on_cell() {
    return [this](const SweepService::CellOutcome&) {
      std::unique_lock<std::mutex> lock(mu);
      if (entered++ == 0) {
        other_timed_out =
            !cv.wait_for(lock, std::chrono::seconds(30), [&] { return returned == 1; });
        (void)cv.wait_for(lock, std::chrono::milliseconds(250),
                          [&] { return returned_at_done >= 0; });
      }
      ++returned;
      cv.notify_all();
    };
  }

  SweepService::DoneCallback on_done() {
    return [this](std::uint64_t) {
      std::lock_guard<std::mutex> lock(mu);
      returned_at_done = returned;
      cv.notify_all();
    };
  }

  void expect_done_after_both_cells() {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_FALSE(other_timed_out) << "the second cell was never delivered";
    EXPECT_EQ(returned, 2);
    EXPECT_EQ(returned_at_done, 2) << "done overtook a cell delivery";
  }
};

TEST(SweepService, DoneWaitsForEveryWorkerDelivery) {
  // Two workers each finish one cell. The worker that completes the job
  // is not the one whose delivery returns last.
  SweepService service({"", 2});
  DeliveryOrderProbe probe;
  service.submit("race", tiny_cells(2), probe.on_cell(), probe.on_done());
  service.drain();
  probe.expect_done_after_both_cells();
}

TEST(SweepService, DoneWaitsForStoreHitDelivery) {
  // Cell 1 is a store hit that submit delivers itself; cell 2 runs on a
  // worker, long enough that submit's delivery of the hit enters first.
  const fs::path dir = fs::path(::testing::TempDir()) / "ibsim_sweep_service_order";
  fs::remove_all(dir);
  {
    SweepService service({dir.string(), 1});
    std::vector<SweepCell> cells = tiny_cells(2);
    cells[1].config.sim_time = 10 * core::kMillisecond;
    Sink warmup;
    service.submit("fill", {cells[0]}, warmup.callback());
    service.drain();
    DeliveryOrderProbe probe;
    service.submit("mixed", std::move(cells), probe.on_cell(), probe.on_done());
    service.drain();
    probe.expect_done_after_both_cells();
  }
  fs::remove_all(dir);
  store::StoreRegistry::instance().clear();
}

TEST(SweepService, EmptyJobIsDoneAtSubmit) {
  SweepService service({"", 1});
  int done = 0;
  service.submit("empty", {}, nullptr, [&](std::uint64_t) { ++done; });
  EXPECT_EQ(done, 1);
  service.drain();
  EXPECT_EQ(done, 1);
}

}  // namespace
}  // namespace ibsim::service
