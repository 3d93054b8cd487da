#include "ccalg/registry.hpp"

#include "ccalg/aimd.hpp"
#include "ccalg/dcqcn.hpp"
#include "ccalg/iba_a10.hpp"
#include "ccalg/none.hpp"
#include "core/assert.hpp"

namespace ibsim::ccalg {

CcAlgorithmRegistry::CcAlgorithmRegistry()
    : factories_{{"aimd", &Aimd::make},
                 {"dcqcn", &Dcqcn::make},
                 {"iba_a10", &IbaA10::make},
                 {"none", &NoneAlgorithm::make}} {}

CcAlgorithmRegistry& CcAlgorithmRegistry::instance() {
  static CcAlgorithmRegistry registry;
  return registry;
}

bool CcAlgorithmRegistry::contains(const std::string& name) const {
  return factories_.count(name) != 0;
}

std::unique_ptr<CcAlgorithm> CcAlgorithmRegistry::create(
    const std::string& name, const CcAlgoContext& ctx) const {
  auto it = factories_.find(name);
  IBSIM_ASSERT(it != factories_.end(), "unknown congestion-control algorithm");
  return it->second(ctx);
}

std::vector<std::string> CcAlgorithmRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;
}

std::int64_t CcAlgorithmRegistry::id_of(const std::string& name) const {
  std::int64_t id = 0;
  for (const auto& [key, factory] : factories_) {
    if (key == name) return id;
    ++id;
  }
  return -1;
}

std::string CcAlgorithmRegistry::names_joined() const {
  std::string out;
  for (const auto& [name, factory] : factories_) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

}  // namespace ibsim::ccalg
