#pragma once

#include <string>

namespace ibsim::store {

/// The code-version stamp baked into every binary at build time: the
/// short git hash of the checkout, with a "-dirty" suffix when the
/// working tree had uncommitted changes, or "unknown" outside a git
/// checkout. Generated by cmake/GenerateVersion.cmake into the build
/// tree (version_impl.cpp) on every build, so a rebuild after a commit
/// or an edit always refreshes it.
///
/// The stamp is part of every result-store key (store/key.hpp): two
/// binaries built from different code can never alias each other's
/// cached results, which is what makes an on-disk cache of simulation
/// outputs sound at all.
[[nodiscard]] const char* code_version();

/// "<program> <code-version>" — the --version output shared by the
/// CLI binaries (simulate and the benches).
[[nodiscard]] std::string version_line(const char* program);

}  // namespace ibsim::store
