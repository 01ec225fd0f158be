#include "ckpt/manager.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/fields.hpp"
#include "perf/profiler.hpp"

namespace basrpt::ckpt {

namespace fs = std::filesystem;

namespace {

constexpr const char* kSuffix = ".ckpt";

[[noreturn]] void io_fail(const std::string& what, const std::string& path) {
  throw ConfigError("checkpoint: " + what + " failed for " + path + ": " +
                    std::strerror(errno));
}

/// write(2) the whole buffer and fsync before close; any failure throws.
void write_durable(const std::string& path, const std::string& payload) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    io_fail("open", path);
  }
  std::size_t written = 0;
  while (written < payload.size()) {
    const ssize_t n =
        ::write(fd, payload.data() + written, payload.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      ::close(fd);
      io_fail("write", path);
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    io_fail("fsync", path);
  }
  if (::close(fd) != 0) {
    io_fail("close", path);
  }
}

/// fsync the directory so the rename itself is durable. Best effort on
/// filesystems that refuse O_DIRECTORY fsync (some network mounts).
void sync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return;
  }
  (void)::fsync(fd);
  (void)::close(fd);
}

/// `<run_id>.<seq>.ckpt` → seq, or nullopt when the name doesn't match.
std::optional<std::uint64_t> parse_seq(const std::string& filename,
                                       const std::string& run_id) {
  const std::string prefix = run_id + ".";
  if (filename.rfind(prefix, 0) != 0 ||
      filename.size() <= prefix.size() + std::strlen(kSuffix)) {
    return std::nullopt;
  }
  if (filename.compare(filename.size() - std::strlen(kSuffix),
                       std::strlen(kSuffix), kSuffix) != 0) {
    return std::nullopt;
  }
  const std::string_view digits = std::string_view(filename).substr(
      prefix.size(), filename.size() - prefix.size() - std::strlen(kSuffix));
  std::uint64_t seq = 0;
  if (!fields::parse_u64(digits, &seq)) {
    return std::nullopt;  // not digits, or > 2^64: not ours
  }
  return seq;
}

std::string seq_name(const std::string& run_id, std::uint64_t seq) {
  char digits[32];
  std::snprintf(digits, sizeof(digits), "%06llu",
                static_cast<unsigned long long>(seq));
  return run_id + "." + digits + kSuffix;
}

}  // namespace

CheckpointManager::CheckpointManager(CheckpointManagerConfig config)
    : config_(std::move(config)) {
  BASRPT_REQUIRE(!config_.dir.empty(), "checkpoint dir must not be empty");
  BASRPT_REQUIRE(!config_.run_id.empty(),
                 "checkpoint run id must not be empty");
  BASRPT_REQUIRE(
      config_.run_id.find('/') == std::string::npos &&
          config_.run_id.find('.') == std::string::npos,
      "checkpoint run id must not contain '/' or '.': " + config_.run_id);
  BASRPT_REQUIRE(config_.keep_last >= 1, "checkpoint keep_last must be >= 1");
  std::error_code ec;
  fs::create_directories(config_.dir, ec);
  BASRPT_REQUIRE(!ec, "cannot create checkpoint dir " + config_.dir + ": " +
                          ec.message());
}

std::string CheckpointManager::write(const std::string& payload) {
  const perf::ScopedPhase phase(obs::Phase::kCheckpointWrite);
  const std::string final_name = seq_name(config_.run_id, seq_);
  const std::string final_path =
      (fs::path(config_.dir) / final_name).string();
  // The temp name carries the pid so two racing runs pointed at the same
  // directory cannot tear each other's in-flight file.
  const std::string tmp_path =
      final_path + ".tmp." + std::to_string(::getpid());
  write_durable(tmp_path, payload);
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    io_fail("rename", final_path);
  }
  sync_dir(config_.dir);
  ++seq_;
  ++writes_;
  prune();
  return final_path;
}

void CheckpointManager::prune() {
  std::vector<std::pair<std::uint64_t, fs::path>> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(config_.dir, ec)) {
    const auto seq = parse_seq(entry.path().filename().string(),
                               config_.run_id);
    if (seq) {
      found.emplace_back(*seq, entry.path());
    }
  }
  if (found.size() <= static_cast<std::size_t>(config_.keep_last)) {
    return;
  }
  std::sort(found.begin(), found.end());
  const std::size_t surplus =
      found.size() - static_cast<std::size_t>(config_.keep_last);
  for (std::size_t i = 0; i < surplus; ++i) {
    fs::remove(found[i].second, ec);  // best effort; rotation is hygiene
  }
}

std::string CheckpointManager::latest(const std::string& dir,
                                      const std::string& run_id) {
  std::error_code ec;
  std::optional<std::uint64_t> best_seq;
  fs::path best_path;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const auto seq = parse_seq(entry.path().filename().string(), run_id);
    if (seq && (!best_seq || *seq > *best_seq)) {
      best_seq = *seq;
      best_path = entry.path();
    }
  }
  return best_seq ? best_path.string() : std::string();
}

std::uint64_t CheckpointManager::sequence_of(const std::string& path) {
  const std::string filename = fs::path(path).filename().string();
  // Recover the run id by stripping `.<digits>.ckpt` from the right.
  const std::size_t suffix_len = std::strlen(kSuffix);
  BASRPT_REQUIRE(filename.size() > suffix_len &&
                     filename.compare(filename.size() - suffix_len,
                                      suffix_len, kSuffix) == 0,
                 "not a checkpoint filename: " + filename);
  const std::string stem =
      filename.substr(0, filename.size() - suffix_len);
  const std::size_t dot = stem.rfind('.');
  BASRPT_REQUIRE(dot != std::string::npos && dot + 1 < stem.size(),
                 "not a checkpoint filename: " + filename);
  const auto seq = parse_seq(filename, stem.substr(0, dot));
  BASRPT_REQUIRE(seq.has_value(), "not a checkpoint filename: " + filename);
  return *seq;
}

}  // namespace basrpt::ckpt
