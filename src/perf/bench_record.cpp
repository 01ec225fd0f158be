#include "perf/bench_record.hpp"

#include <unistd.h>

#include <ctime>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "common/assert.hpp"

namespace basrpt::perf {

namespace {

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    return "";
  }
  std::string line;
  std::getline(in, line);
  while (!line.empty() && (line.back() == '\r' || line.back() == '\n')) {
    line.pop_back();
  }
  return line;
}

std::string detect_commit() {
  if (const char* env = std::getenv("BASRPT_COMMIT")) {
    return env;
  }
  // Best effort, repo-root invocation assumed (how the benches run).
  const std::string head = read_first_line(".git/HEAD");
  if (head.rfind("ref: ", 0) == 0) {
    const std::string sha = read_first_line(".git/" + head.substr(5));
    return sha.empty() ? "unknown" : sha;
  }
  return head.empty() ? "unknown" : head;
}

std::string detect_hostname() {
  char buf[256] = {};
  if (gethostname(buf, sizeof(buf) - 1) == 0 && buf[0] != '\0') {
    return buf;
  }
  return "unknown";
}

std::string detect_cpu() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') {
          ++start;
        }
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

const double* BenchCase::find_metric(const std::string& key) const {
  for (const auto& [name, value] : metrics) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

const BenchCase* BenchRecord::find_case(const std::string& label) const {
  for (const BenchCase& c : cases) {
    if (c.label == label) {
      return &c;
    }
  }
  return nullptr;
}

BenchRecord make_record(const std::string& name, int warmup, int reps) {
  BenchRecord record;
  record.name = name;
  record.warmup = warmup;
  record.reps = reps;
  record.commit = detect_commit();
  record.host = detect_hostname();
  record.cpu = detect_cpu();
  const unsigned hw = std::thread::hardware_concurrency();
  record.hw_threads = hw > 0 ? static_cast<int>(hw) : 1;
  record.generated_unix = static_cast<std::int64_t>(std::time(nullptr));
  return record;
}

json::Value record_to_json(const BenchRecord& record) {
  json::Value doc = json::Value::object();
  doc.set("schema", json::Value::string(record.schema));
  doc.set("name", json::Value::string(record.name));
  doc.set("commit", json::Value::string(record.commit));
  json::Value host = json::Value::object();
  host.set("hostname", json::Value::string(record.host));
  host.set("cpu", json::Value::string(record.cpu));
  host.set("hw_threads",
           json::Value::number(static_cast<double>(record.hw_threads)));
  doc.set("host", std::move(host));
  doc.set("generated_unix",
          json::Value::number(static_cast<double>(record.generated_unix)));
  doc.set("warmup", json::Value::number(static_cast<double>(record.warmup)));
  doc.set("reps", json::Value::number(static_cast<double>(record.reps)));
  json::Value cases = json::Value::array();
  for (const BenchCase& c : record.cases) {
    json::Value entry = json::Value::object();
    entry.set("label", json::Value::string(c.label));
    json::Value params = json::Value::object();
    for (const auto& [key, value] : c.params) {
      params.set(key, json::Value::string(value));
    }
    entry.set("params", std::move(params));
    json::Value metrics = json::Value::object();
    for (const auto& [key, value] : c.metrics) {
      metrics.set(key, json::Value::number(value));
    }
    entry.set("metrics", std::move(metrics));
    cases.push(std::move(entry));
  }
  doc.set("cases", std::move(cases));
  return doc;
}

void write_record_file(const std::string& path, const BenchRecord& record) {
  std::ofstream out(path);
  BASRPT_REQUIRE(out.good(), "cannot open bench record file: " + path);
  out << record_to_json(record).serialize(2);
  out.flush();
  BASRPT_REQUIRE(out.good(), "failed writing bench record file: " + path);
}

}  // namespace basrpt::perf
