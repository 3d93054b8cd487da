#include "telemetry/sampler.hpp"

#include <cinttypes>

#include "core/assert.hpp"

namespace ibsim::telemetry {

namespace {
constexpr std::uint16_t kSampleEvent = 0x7E1E;
}

CounterSampler::CounterSampler(const CounterRegistry* registry, core::Time interval,
                               std::string csv_path, std::function<void(core::Time)> refresh)
    : registry_(registry),
      interval_(interval),
      path_(std::move(csv_path)),
      refresh_(std::move(refresh)) {
  IBSIM_ASSERT(interval > 0, "counter sampler needs a positive interval");
}

CounterSampler::~CounterSampler() { close(); }

bool CounterSampler::install(core::Scheduler& sched) {
  IBSIM_ASSERT(!installed_, "counter sampler installed twice");
  installed_ = true;
  file_ = std::fopen(path_.c_str(), "w");
  if (file_ == nullptr) return false;
  columns_ = registry_->size();
  std::fputs("t_us", file_);
  for (std::size_t i = 0; i < columns_; ++i) {
    std::fprintf(file_, ",%s", registry_->name(i).c_str());
  }
  std::fputc('\n', file_);
  sched.schedule_in(interval_, this, kSampleEvent);
  return true;
}

void CounterSampler::on_event(core::Scheduler& sched, const core::Event& ev) {
  IBSIM_ASSERT(ev.kind == kSampleEvent, "counter sampler received an unknown event");
  if (file_ != nullptr) {
    const core::Time now = sched.now();
    if (refresh_) refresh_(now);
    std::fprintf(file_, "%.3f", static_cast<double>(now) / 1e6);
    for (std::size_t i = 0; i < columns_; ++i) {
      std::fprintf(file_, ",%" PRId64, registry_->value(i));
    }
    std::fputc('\n', file_);
    ++rows_;
  }
  sched.schedule_in(interval_, this, kSampleEvent);
}

void CounterSampler::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

}  // namespace ibsim::telemetry
