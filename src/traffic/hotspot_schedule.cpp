#include "traffic/hotspot_schedule.hpp"

#include "core/assert.hpp"

namespace ibsim::traffic {

namespace {
constexpr std::uint16_t kMoveEvent = 0x4507;
}

HotspotSchedule::HotspotSchedule(std::int32_t n_nodes, std::int32_t n_hotspots,
                                 core::Time lifetime, core::Rng rng)
    : n_nodes_(n_nodes), lifetime_(lifetime), rng_(rng) {
  IBSIM_ASSERT(n_hotspots >= 0 && n_hotspots <= n_nodes,
               "hotspot count must fit in the node count");
  hotspots_.resize(static_cast<std::size_t>(n_hotspots));
  is_hotspot_.assign(static_cast<std::size_t>(n_nodes), false);
  redraw();
}

void HotspotSchedule::redraw() {
  std::fill(is_hotspot_.begin(), is_hotspot_.end(), false);
  // Rejection-sample distinct nodes; with 8 hotspots among hundreds of
  // nodes collisions are rare.
  for (auto& hs : hotspots_) {
    ib::NodeId pick;
    do {
      pick = static_cast<ib::NodeId>(rng_.next_below(static_cast<std::uint64_t>(n_nodes_)));
    } while (is_hotspot_[static_cast<std::size_t>(pick)]);
    is_hotspot_[static_cast<std::size_t>(pick)] = true;
    hs = pick;
  }
}

void HotspotSchedule::install(core::Scheduler& sched) {
  if (moving() && !hotspots_.empty()) {
    sched.schedule_in(lifetime_, this, kMoveEvent);
  }
}

void HotspotSchedule::on_event(core::Scheduler& sched, const core::Event& ev) {
  IBSIM_ASSERT(ev.kind == kMoveEvent, "hotspot schedule received an unknown event");
  redraw();
  ++moves_;
  sched.schedule_in(lifetime_, this, kMoveEvent);
}

}  // namespace ibsim::traffic
