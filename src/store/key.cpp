#include "store/key.hpp"

#include "sim/config_fields.hpp"
#include "store/hash.hpp"
#include "store/version.hpp"

namespace ibsim::store {

std::string canonical_config_text(const sim::SimConfig& config) {
  std::string text;
  for (const sim::ConfigField& field : sim::config_fields()) {
    if (field.keyed()) text += sim::field_canonical_line(field, config);
  }
  return text;
}

std::string run_key_with_version(const sim::SimConfig& config,
                                 const std::string& code_version) {
  Sha256 h;
  static const char* header = "ibsim-run-key-v3\n";
  h.update(header, std::char_traits<char>::length(header));
  const std::string text = canonical_config_text(config);
  h.update(text.data(), text.size());
  const std::string version_line = "code_version=" + code_version + "\n";
  h.update(version_line.data(), version_line.size());
  return h.hex_digest();
}

std::string run_key(const sim::SimConfig& config) {
  return run_key_with_version(config, code_version());
}

}  // namespace ibsim::store
