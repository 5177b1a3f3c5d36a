#include "harness.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "crypto/sha256_ni.hpp"
#include "obs/context.hpp"

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

double sum(const std::vector<double>& samples) {
  double total = 0.0;
  for (const double s : samples) total += s;
  return total;
}

namespace {

/// VmHWM of /proc/<pid>/status in KiB; 0 when unreadable.
double vm_hwm_kib(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6));
    }
  }
  return 0.0;
}

}  // namespace

double peak_rss_mb() {
  double kib = vm_hwm_kib("self");
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    std::ifstream children(task.path() / "children");
    std::string pid;
    while (children >> pid) kib += vm_hwm_kib(pid);
  }
  return kib / 1024.0;
}

void set_op_metrics(Result& result, const std::vector<double>& op_walls,
                    double committed, const std::vector<double>& setups,
                    double peak_rss) {
  result.set("setup_s", median(setups), "s");
  result.set("committed_tx_per_s", committed / sum(op_walls), "1/s");
  result.set("op_wall_p50_s", percentile(op_walls, 0.5), "s");
  result.set("peak_rss_mb", peak_rss, "MiB");
  result.op_walls = op_walls;
}

Tracer::Tracer() : t0_(Clock::now()) { spans_.reserve(1 << 14); }

int Tracer::begin(const std::string& name, std::uint64_t op, int parent,
                  bool layer) {
  const double at = seconds_since(t0_);
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, at, at, parent, op, layer});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id) {
  const double at = seconds_since(t0_);
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<std::size_t>(id)).end = at;
}

namespace {

std::vector<double> child_seconds(const std::vector<Span>& spans) {
  std::vector<double> children(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  return children;
}

}  // namespace

double Tracer::self_seconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<double> children = child_seconds(spans_);
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      total += spans_[i].end - spans_[i].start - children[i];
    }
  }
  return total;
}

double Tracer::total_seconds(const std::string& name) const {
  return sum(durations(name));
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end - s.start);
  }
  return out;
}

double Tracer::coverage(const std::string& op_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<double> children = child_seconds(spans_);
  double covered = 0.0;
  double ops = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name == op_name) ops += s.end - s.start;
    if (s.layer) covered += s.end - s.start - children[i];
  }
  return ops > 0.0 ? covered / ops : 0.0;
}

void Tracer::write(const std::string& path) const {
  ensure_directory(std::filesystem::path(path).parent_path().string());
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  std::lock_guard<std::mutex> lock(mu_);
  out << "[\n";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                  "\"parent\":%d,\"op\":%llu,\"layer\":%s}%s\n",
                  i, s.name.c_str(), s.start, s.end, s.parent,
                  static_cast<unsigned long long>(s.op),
                  s.layer ? "true" : "false",
                  i + 1 < spans_.size() ? "," : "");
    out << buf;
  }
  out << "]\n";
}

double counter_total(const mvcom::obs::MetricsRegistry& registry,
                     const std::string& name, const std::string& label_value) {
  double total = 0.0;
  for (const auto& m : registry.snapshot()) {
    if (m.name != name) continue;
    bool match = label_value.empty();
    for (const auto& label : m.labels) {
      if (label.value == label_value) match = true;
    }
    if (match) total += m.value;
  }
  return total;
}

std::string host_facts_json() {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  std::string escaped;
  for (const char c : cpu) {
    if (c == '"' || c == '\\') escaped += '\\';
    escaped += c;
  }
  std::ostringstream os;
  os << "{\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"cpu_model\":\"" << escaped << "\""
     << ",\"sha_ni\":"
     << (mvcom::crypto::sha_ni_available() ? "true" : "false")
     << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\""
     << ",\"mvcom_obs\":" << (mvcom::obs::kEnabled ? "true" : "false")
     << "}";
  return os.str();
}

void ensure_directory(const std::string& dir) {
  if (dir.empty()) return;
  std::filesystem::create_directories(dir);
}

}  // namespace perfbench
