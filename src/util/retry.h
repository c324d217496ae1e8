#ifndef KGFD_UTIL_RETRY_H_
#define KGFD_UTIL_RETRY_H_

#include <cstddef>
#include <functional>
#include <string>

#include "util/status.h"

namespace kgfd {

/// Bounded-retry policy with exponential backoff, wrapped around the
/// transient-failure-prone I/O paths (dataset loading, checkpoint and
/// resume-manifest I/O). Only IoError is considered transient.
struct RetryPolicy {
  /// Total tries including the first; 1 disables retrying.
  size_t max_attempts = 3;
  double initial_backoff_ms = 1.0;
  double backoff_multiplier = 2.0;
  double max_backoff_ms = 100.0;
};

/// True if `code` is transient, i.e. worth another try: IoError only.
bool RetryableCode(StatusCode code);

/// Backoff before attempt `attempt` (1-based count of failures so far):
/// initial * multiplier^(attempt-1), capped at max_backoff_ms.
double RetryBackoffMs(const RetryPolicy& policy, size_t failures);

namespace internal {
/// Sleeps for the backoff before the next attempt.
void RetrySleep(const RetryPolicy& policy, size_t failures);
/// Wraps the terminal error with attempt context (no-op on the first
/// attempt, where nothing was retried and the message should stay pristine).
Status DecorateExhausted(const char* op, size_t attempts, Status status);
}  // namespace internal

/// Runs `fn` until it succeeds, fails with a non-retryable code, or has
/// made policy.max_attempts attempts. `op` names the operation in the
/// final error.
template <typename T>
Result<T> Retry(const RetryPolicy& policy, const char* op,
                const std::function<Result<T>()>& fn) {
  const size_t max_attempts = policy.max_attempts == 0
                                  ? size_t{1}
                                  : policy.max_attempts;
  for (size_t attempt = 1;; ++attempt) {
    Result<T> result = fn();
    if (result.ok()) return result;
    if (!RetryableCode(result.status().code())) return result;
    if (attempt >= max_attempts) {
      return internal::DecorateExhausted(op, attempt, result.status());
    }
    internal::RetrySleep(policy, attempt);
  }
}

/// Status-returning flavor of Retry.
Status RetryStatus(const RetryPolicy& policy, const char* op,
                   const std::function<Status()>& fn);

}  // namespace kgfd

#endif  // KGFD_UTIL_RETRY_H_
