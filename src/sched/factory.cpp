#include "sched/factory.hpp"

#include <cstdio>
#include <vector>

#include "common/assert.hpp"
#include "common/fields.hpp"
#include "sched/exact_basrpt.hpp"
#include "sched/fast_basrpt.hpp"
#include "sched/distributed_basrpt.hpp"
#include "sched/fifo.hpp"
#include "sched/maxweight.hpp"
#include "sched/noisy.hpp"
#include "sched/srpt.hpp"
#include "sched/threshold.hpp"

namespace basrpt::sched {

SchedulerSpec SchedulerSpec::srpt() {
  SchedulerSpec spec;
  spec.policy = Policy::kSrpt;
  return spec;
}

SchedulerSpec SchedulerSpec::fast_basrpt(double v) {
  SchedulerSpec spec;
  spec.policy = Policy::kFastBasrpt;
  spec.v = v;
  return spec;
}

SchedulerSpec SchedulerSpec::threshold_srpt(double threshold_packets) {
  SchedulerSpec spec;
  spec.policy = Policy::kThresholdSrpt;
  spec.threshold_packets = threshold_packets;
  return spec;
}

SchedulerSpec SchedulerSpec::exact_basrpt(double v) {
  SchedulerSpec spec;
  spec.policy = Policy::kExactBasrpt;
  spec.v = v;
  return spec;
}

SchedulerSpec SchedulerSpec::maxweight() {
  SchedulerSpec spec;
  spec.policy = Policy::kMaxWeight;
  return spec;
}

SchedulerSpec SchedulerSpec::fifo() {
  SchedulerSpec spec;
  spec.policy = Policy::kFifo;
  return spec;
}

SchedulerSpec SchedulerSpec::dist_basrpt(double v, int rounds) {
  SchedulerSpec spec;
  spec.policy = Policy::kDistBasrpt;
  spec.v = v;
  spec.rounds = rounds;
  return spec;
}

SchedulerSpec SchedulerSpec::with_size_error(double error) const {
  SchedulerSpec spec = *this;
  spec.size_error = error;
  return spec;
}

namespace {

/// Shortest %g rendering that parses back to exactly `value` (falls
/// through to 17 significant digits, which always round-trips).
std::string format_real(double value) {
  char buf[64];
  for (const int precision : {6, 9, 17}) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    double parsed = 0.0;
    if (fields::parse_finite(buf, &parsed) && parsed == value) {
      break;
    }
  }
  return buf;
}

double parse_real(const std::string& key, const std::string& value) {
  double parsed = 0.0;
  if (!fields::parse_finite(value, &parsed)) {
    throw ConfigError("scheduler spec: '" + key + "' needs a number, got '" +
                      value + "'");
  }
  return parsed;
}

std::int64_t parse_int(const std::string& key, const std::string& value) {
  std::int64_t parsed = 0;
  if (!fields::parse_i64(value, &parsed)) {
    throw ConfigError("scheduler spec: '" + key + "' needs an integer, got '" +
                      value + "'");
  }
  return parsed;
}

bool policy_has_v(Policy policy) {
  return policy == Policy::kFastBasrpt || policy == Policy::kExactBasrpt ||
         policy == Policy::kDistBasrpt;
}

}  // namespace

SchedulerSpec SchedulerSpec::parse(const std::string& text) {
  std::vector<std::string> segments;
  std::size_t start = 0;
  for (;;) {
    const std::size_t colon = text.find(':', start);
    segments.push_back(text.substr(
        start, colon == std::string::npos ? std::string::npos : colon - start));
    if (colon == std::string::npos) {
      break;
    }
    start = colon + 1;
  }

  // Policy names accept '_' as '-' so shell-friendly spellings like
  // fast_basrpt work unquoted everywhere.
  std::string name = segments.front();
  for (char& c : name) {
    if (c == '_') {
      c = '-';
    }
  }
  if (name.empty()) {
    throw ConfigError("scheduler spec: empty policy name in '" + text + "'");
  }

  SchedulerSpec spec;
  spec.policy = parse_policy(name);

  bool saw_v = false;
  bool saw_threshold = false;
  bool saw_rounds = false;
  bool saw_err = false;
  bool saw_seed = false;
  for (std::size_t i = 1; i < segments.size(); ++i) {
    const std::string& segment = segments[i];
    const std::size_t eq = segment.find('=');
    if (segment.empty() || eq == std::string::npos || eq == 0) {
      throw ConfigError("scheduler spec: expected key=value, got '" + segment +
                        "' in '" + text + "'");
    }
    std::string key = segment.substr(0, eq);
    for (char& c : key) {
      if (c == '_') {
        c = '-';
      }
    }
    const std::string value = segment.substr(eq + 1);
    const auto require_once = [&](bool& seen) {
      if (seen) {
        throw ConfigError("scheduler spec: repeated '" + key + "' in '" +
                          text + "'");
      }
      seen = true;
    };
    const auto require_applies = [&](bool applies) {
      if (!applies) {
        throw ConfigError("scheduler spec: '" + key +
                          "' does not apply to policy '" + name + "'");
      }
    };
    if (key == "v") {
      require_applies(policy_has_v(spec.policy));
      require_once(saw_v);
      spec.v = parse_real(key, value);
      if (spec.v < 0.0) {
        throw ConfigError("scheduler spec: v must be >= 0");
      }
    } else if (key == "threshold") {
      require_applies(spec.policy == Policy::kThresholdSrpt);
      require_once(saw_threshold);
      spec.threshold_packets = parse_real(key, value);
      if (spec.threshold_packets <= 0.0) {
        throw ConfigError("scheduler spec: threshold must be > 0");
      }
    } else if (key == "rounds") {
      require_applies(spec.policy == Policy::kDistBasrpt);
      require_once(saw_rounds);
      const std::int64_t rounds = parse_int(key, value);
      if (rounds < 1) {
        throw ConfigError("scheduler spec: rounds must be >= 1");
      }
      spec.rounds = static_cast<int>(rounds);
    } else if (key == "err") {
      require_once(saw_err);
      spec.size_error = parse_real(key, value);
      if (spec.size_error < 1.0) {
        throw ConfigError(
            "scheduler spec: err must be >= 1 (1 = exact sizes)");
      }
    } else if (key == "noise-seed") {
      require_once(saw_seed);
      spec.noise_seed = static_cast<std::uint64_t>(parse_int(key, value));
    } else {
      throw ConfigError("scheduler spec: unknown option '" + key + "' in '" +
                        text + "'");
    }
  }
  return spec;
}

std::string SchedulerSpec::to_string() const {
  std::string out = sched::to_string(policy);
  if (policy_has_v(policy)) {
    out += ":v=" + format_real(v);
  }
  if (policy == Policy::kThresholdSrpt) {
    out += ":threshold=" + format_real(threshold_packets);
  }
  if (policy == Policy::kDistBasrpt) {
    out += ":rounds=" + std::to_string(rounds);
  }
  if (size_error > 1.0) {
    out += ":err=" + format_real(size_error) +
           ":noise-seed=" + std::to_string(noise_seed);
  }
  return out;
}

SchedulerPtr make_scheduler(const SchedulerSpec& spec) {
  SchedulerPtr scheduler;
  switch (spec.policy) {
    case Policy::kSrpt:
      scheduler = std::make_unique<SrptScheduler>();
      break;
    case Policy::kFastBasrpt:
      scheduler = std::make_unique<FastBasrptScheduler>(spec.v);
      break;
    case Policy::kThresholdSrpt:
      scheduler =
          std::make_unique<ThresholdSrptScheduler>(spec.threshold_packets);
      break;
    case Policy::kExactBasrpt:
      scheduler = std::make_unique<ExactBasrptScheduler>(spec.v);
      break;
    case Policy::kMaxWeight:
      scheduler = std::make_unique<MaxWeightScheduler>();
      break;
    case Policy::kFifo:
      scheduler = std::make_unique<FifoScheduler>();
      break;
    case Policy::kDistBasrpt:
      scheduler =
          std::make_unique<DistributedBasrptScheduler>(spec.v, spec.rounds);
      break;
  }
  BASRPT_REQUIRE(scheduler != nullptr, "unknown scheduler policy");
  if (spec.size_error > 1.0) {
    scheduler = std::make_unique<NoisySizeScheduler>(
        std::move(scheduler), spec.size_error, spec.noise_seed);
  }
  return scheduler;
}

Policy parse_policy(const std::string& name) {
  if (name == "srpt") {
    return Policy::kSrpt;
  }
  if (name == "fast-basrpt") {
    return Policy::kFastBasrpt;
  }
  if (name == "threshold-srpt") {
    return Policy::kThresholdSrpt;
  }
  if (name == "exact-basrpt") {
    return Policy::kExactBasrpt;
  }
  if (name == "maxweight") {
    return Policy::kMaxWeight;
  }
  if (name == "fifo") {
    return Policy::kFifo;
  }
  if (name == "dist-basrpt") {
    return Policy::kDistBasrpt;
  }
  throw ConfigError("unknown scheduler policy: " + name);
}

std::string to_string(Policy policy) {
  switch (policy) {
    case Policy::kSrpt:
      return "srpt";
    case Policy::kFastBasrpt:
      return "fast-basrpt";
    case Policy::kThresholdSrpt:
      return "threshold-srpt";
    case Policy::kExactBasrpt:
      return "exact-basrpt";
    case Policy::kMaxWeight:
      return "maxweight";
    case Policy::kFifo:
      return "fifo";
    case Policy::kDistBasrpt:
      return "dist-basrpt";
  }
  return "?";
}

}  // namespace basrpt::sched
