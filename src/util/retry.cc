#include "util/retry.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace kgfd {

bool RetryableCode(StatusCode code) { return code == StatusCode::kIoError; }

double RetryBackoffMs(const RetryPolicy& policy, size_t failures) {
  if (failures == 0) return 0.0;
  double backoff = policy.initial_backoff_ms;
  for (size_t i = 1; i < failures; ++i) {
    backoff *= policy.backoff_multiplier;
    if (backoff >= policy.max_backoff_ms) break;
  }
  return std::clamp(backoff, 0.0, policy.max_backoff_ms);
}

namespace internal {

void RetrySleep(const RetryPolicy& policy, size_t failures) {
  const double ms = RetryBackoffMs(policy, failures);
  if (ms > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
  }
}

Status DecorateExhausted(const char* op, size_t attempts, Status status) {
  if (attempts <= 1) return status;
  return Status(status.code(), std::string(op) + " failed after " +
                                   std::to_string(attempts) +
                                   " attempts: " + status.message());
}

}  // namespace internal

Status RetryStatus(const RetryPolicy& policy, const char* op,
                   const std::function<Status()>& fn) {
  // Piggyback on the Result flavor with a throwaway value type.
  Result<char> result = Retry<char>(policy, op, [&fn]() -> Result<char> {
    Status status = fn();
    if (!status.ok()) return status;
    return '\0';
  });
  return result.ok() ? Status::OK() : result.status();
}

}  // namespace kgfd
