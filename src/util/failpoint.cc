#include "util/failpoint.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace kgfd {

namespace {

/// FNV-1a, used to derive a per-site RNG stream from the registry seed.
uint64_t HashSiteName(const std::string& site) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : site) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

Result<StatusCode> StatusCodeFromName(const std::string& name) {
  for (StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kOutOfRange,
        StatusCode::kIoError, StatusCode::kFailedPrecondition,
        StatusCode::kInternal, StatusCode::kNotImplemented,
        StatusCode::kCancelled, StatusCode::kDeadlineExceeded}) {
    if (name == StatusCodeName(code)) return code;
  }
  return Status::InvalidArgument("unknown status code: " + name);
}

Result<uint64_t> ParseUint(const std::string& text,
                           const std::string& what) {
  Result<uint64_t> v = ParseUint64(text);
  if (v.ok() && text.find_first_not_of("0123456789") == std::string::npos) {
    return v;
  }
  return Status::InvalidArgument("failpoint spec: bad " + what + ": '" +
                                 text + "'");
}

}  // namespace

Result<FailPointSpec> FailPointSpec::Parse(const std::string& text) {
  FailPointSpec spec;
  std::string s = Trim(text);
  if (s.empty()) {
    return Status::InvalidArgument("failpoint spec: empty");
  }

  // Modifiers: a number followed by '+' (skip), '%' (probability) or
  // '*' (max triggers), repeated.
  for (;;) {
    const size_t digits = s.find_first_not_of("0123456789.");
    if (digits == 0 || digits == std::string::npos) break;
    const char kind = s[digits];
    if (kind != '+' && kind != '%' && kind != '*') break;
    const std::string number = s.substr(0, digits);
    if (kind == '%') {
      const Result<double> percent = ParseDouble(number);
      if (!percent.ok() || percent.value() < 0.0 || percent.value() > 100.0) {
        return Status::InvalidArgument(
            "failpoint spec: bad probability: '" + number + "%'");
      }
      spec.probability = percent.value() / 100.0;
    } else if (kind == '+') {
      KGFD_ASSIGN_OR_RETURN(spec.skip, ParseUint(number, "skip count"));
    } else {
      KGFD_ASSIGN_OR_RETURN(spec.max_triggers,
                            ParseUint(number, "trigger cap"));
    }
    s.erase(0, digits + 1);
  }

  // Action word with optional parenthesized arguments.
  std::string action = s;
  std::vector<std::string> args;
  const size_t paren = s.find('(');
  if (paren != std::string::npos) {
    if (s.back() != ')') {
      return Status::InvalidArgument("failpoint spec: unbalanced '(' in '" +
                                     text + "'");
    }
    action = s.substr(0, paren);
    const std::string inner = s.substr(paren + 1, s.size() - paren - 2);
    if (!inner.empty()) {
      for (const std::string& a : Split(inner, ',')) {
        args.push_back(Trim(a));
      }
    }
  }

  if (action == "off") {
    spec.action = Action::kOff;
    if (!args.empty()) {
      return Status::InvalidArgument("failpoint spec: off takes no args");
    }
  } else if (action == "return") {
    spec.action = Action::kReturnError;
    if (!args.empty()) {
      KGFD_ASSIGN_OR_RETURN(spec.code, StatusCodeFromName(args[0]));
      if (args.size() > 1) spec.message = args[1];
      if (args.size() > 2) {
        return Status::InvalidArgument(
            "failpoint spec: return takes at most (CODE, MESSAGE)");
      }
    }
  } else if (action == "delay") {
    spec.action = Action::kDelay;
    if (args.size() != 1) {
      return Status::InvalidArgument("failpoint spec: delay requires (MS)");
    }
    KGFD_ASSIGN_OR_RETURN(spec.delay_ms, ParseUint(args[0], "delay ms"));
  } else {
    return Status::InvalidArgument("failpoint spec: unknown action '" +
                                   action + "'");
  }
  return spec;
}

FailPoints& FailPoints::Instance() {
  static FailPoints* instance = new FailPoints();
  return *instance;
}

FailPoints::FailPoints() {
  const char* env = std::getenv("KGFD_FAILPOINTS");
  if (env != nullptr && env[0] != '\0') {
    const Status status = EnableFromSpec(env);
    if (!status.ok()) {
      KGFD_LOG(Warn) << "ignoring invalid KGFD_FAILPOINTS: "
                     << status.ToString();
    }
  }
}

FailPoints::SiteState& FailPoints::SiteLocked(const std::string& site) {
  auto [it, inserted] = sites_.try_emplace(site);
  if (inserted) {
    it->second.rng = Rng(HashSiteName(site) ^ seed_);
    ResolveCountersLocked(site, &it->second);
  }
  return it->second;
}

void FailPoints::ResolveCountersLocked(const std::string& site,
                                       SiteState* state) {
  if (metrics_ == nullptr) {
    state->hits_counter = nullptr;
    state->triggers_counter = nullptr;
    return;
  }
  state->hits_counter = metrics_->GetCounter("failpoint." + site + ".hits");
  state->triggers_counter =
      metrics_->GetCounter("failpoint." + site + ".triggers");
}

Status FailPoints::Enable(const std::string& site,
                          const std::string& spec_text) {
  KGFD_ASSIGN_OR_RETURN(const FailPointSpec spec,
                        FailPointSpec::Parse(spec_text));
  return Enable(site, spec);
}

Status FailPoints::Enable(const std::string& site,
                          const FailPointSpec& spec) {
  if (site.empty()) {
    return Status::InvalidArgument("failpoint site name is empty");
  }
  std::lock_guard<std::mutex> lock(mu_);
  SiteState& state = SiteLocked(site);
  if (!state.armed) armed_count_.fetch_add(1, std::memory_order_relaxed);
  state.armed = true;
  state.spec = spec;
  return Status::OK();
}

Status FailPoints::EnableFromSpec(const std::string& multi_spec) {
  std::string normalized = multi_spec;
  std::replace(normalized.begin(), normalized.end(), '\n', ';');
  for (const std::string& entry : Split(normalized, ';')) {
    const std::string trimmed = Trim(entry);
    if (trimmed.empty()) continue;
    const size_t eq = trimmed.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument(
          "failpoint spec entry missing '=': '" + trimmed + "'");
    }
    KGFD_RETURN_NOT_OK(
        Enable(Trim(trimmed.substr(0, eq)), Trim(trimmed.substr(eq + 1))));
  }
  return Status::OK();
}

void FailPoints::Disable(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end() || !it->second.armed) return;
  it->second.armed = false;
  it->second.spec = FailPointSpec();
  armed_count_.fetch_sub(1, std::memory_order_relaxed);
}

void FailPoints::DisableAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, state] : sites_) {
    if (state.armed) {
      state.armed = false;
      state.spec = FailPointSpec();
      armed_count_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

void FailPoints::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  sites_.clear();
  armed_count_.store(0, std::memory_order_relaxed);
  metrics_ = nullptr;
  seed_ = 0x5bd1e995u;
}

void FailPoints::AttachMetrics(MetricsRegistry* metrics) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_ = metrics;
  for (auto& [name, state] : sites_) ResolveCountersLocked(name, &state);
}

void FailPoints::SetSeed(uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  seed_ = seed;
  for (auto& [name, state] : sites_) {
    state.rng = Rng(HashSiteName(name) ^ seed_);
  }
}

Status FailPoints::Evaluate(const char* site) {
  if (!AnyArmed()) return Status::OK();
  return EvaluateSlow(site, /*allow_error=*/true);
}

void FailPoints::EvaluateDelay(const char* site) {
  if (!AnyArmed()) return;
  // allow_error=false means EvaluateSlow can only apply delays, never fail.
  (void)EvaluateSlow(site, /*allow_error=*/false);
}

Status FailPoints::EvaluateSlow(const char* site, bool allow_error) {
  uint64_t delay_ms = 0;
  Status injected = Status::OK();
  {
    std::lock_guard<std::mutex> lock(mu_);
    SiteState& state = SiteLocked(site);
    ++state.hits;
    if (state.hits_counter != nullptr) state.hits_counter->Increment();
    if (state.armed && state.spec.action != FailPointSpec::Action::kOff) {
      const FailPointSpec& spec = state.spec;
      const bool action_applies =
          spec.action == FailPointSpec::Action::kDelay ||
          (spec.action == FailPointSpec::Action::kReturnError && allow_error);
      const bool eligible = action_applies && state.hits > spec.skip &&
                            state.triggers < spec.max_triggers &&
                            (spec.probability >= 1.0 ||
                             state.rng.UniformDouble() < spec.probability);
      if (eligible) {
        ++state.triggers;
        if (state.triggers_counter != nullptr) {
          state.triggers_counter->Increment();
        }
        if (spec.action == FailPointSpec::Action::kDelay) {
          delay_ms = spec.delay_ms;
        } else {
          injected = Status(spec.code,
                            spec.message.empty()
                                ? "injected fault at " + std::string(site)
                                : spec.message);
        }
      }
    }
  }
  if (delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
  return injected;
}

uint64_t FailPoints::HitCount(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.hits;
}

uint64_t FailPoints::TriggerCount(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.triggers;
}

std::vector<std::string> FailPoints::ArmedSites() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> armed;
  for (const auto& [name, state] : sites_) {
    if (state.armed) armed.push_back(name);
  }
  std::sort(armed.begin(), armed.end());
  return armed;
}

}  // namespace kgfd
