#include "telemetry/counters.hpp"

namespace ibsim::telemetry {

CounterRegistry::Handle CounterRegistry::resolve(const std::string& name, Kind kind) {
  const auto it = index_.find(name);
  if (it != index_.end()) {
    const auto idx = static_cast<std::size_t>(it->second);
    IBSIM_ASSERT(kinds_[idx] == kind, "instrument re-registered with a different kind");
    return Handle{it->second};
  }
  const auto idx = static_cast<std::int32_t>(values_.size());
  index_.emplace(name, idx);
  names_.push_back(name);
  kinds_.push_back(kind);
  values_.push_back(0);
  return Handle{idx};
}

std::vector<std::pair<std::string, std::int64_t>> CounterRegistry::snapshot() const {
  std::vector<std::pair<std::string, std::int64_t>> out;
  out.reserve(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) out.emplace_back(names_[i], values_[i]);
  return out;
}

}  // namespace ibsim::telemetry
