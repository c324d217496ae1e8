#ifndef KGFD_TOOLS_STARTUP_FLAGS_H_
#define KGFD_TOOLS_STARTUP_FLAGS_H_

#include <cstdlib>
#include <string>

#include "kgfd.h"
#include "util/flags.h"

namespace kgfd {

/// The start-up that kgfd_cli and kgfd_server share. --embedding_backend
/// ram|mmap overrides KGFD_EMBEDDING_BACKEND and is exported to the
/// environment, so every model load (config-driven jobs and server workers
/// too) resolves the same backend. A typo there, in KGFD_KERNEL_BACKEND or
/// in KGFD_DEFAULT_STRATEGY is an error here, not an abort on first use or
/// a silent fallback. --failpoints 'site=spec;...' arms fault injection.
inline Status ApplyStartupFlags(const Flags& flags) {
  const std::string backend = flags.GetString("embedding_backend", "");
  if (!backend.empty()) setenv("KGFD_EMBEDDING_BACKEND", backend.c_str(), 1);
  KGFD_RETURN_NOT_OK(kernels::ValidateKernelBackendEnv());
  KGFD_RETURN_NOT_OK(ValidateEmbeddingBackendEnv());
  KGFD_RETURN_NOT_OK(ValidateDefaultStrategyEnv());
  const std::string failpoints = flags.GetString("failpoints", "");
  if (failpoints.empty()) return Status::OK();
  return FailPoints::Instance().EnableFromSpec(failpoints);
}

}  // namespace kgfd

#endif  // KGFD_TOOLS_STARTUP_FLAGS_H_
