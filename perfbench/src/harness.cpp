#include "harness.hpp"

#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>

#include "crypto/isa.hpp"
#include "util/threadpool.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

bool ParseOptions(int argc, char** argv, Options& options) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--quick") {
      options.quick = true;
    } else if (!has_value) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", arg.c_str());
      return false;
    } else if (arg == "--workload") {
      options.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--fault") {
      options.fault = argv[++i];
    } else if (arg == "--work-dir") {
      options.work_dir = argv[++i];
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", arg.c_str());
      return false;
    }
  }
  if (!have_workload) {
    std::fprintf(stderr, "perfbench: --workload is required\n");
    return false;
  }
  if (!(options.seconds > 0.0)) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return false;
  }
  return true;
}

double NowUs() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch)
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  tail.percentile = 50.0;
  for (const double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    if (n * (1.0 - p / 100.0) >= 10.0) tail.percentile = p;
  }
  // Nearest-rank percentile.
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(tail.percentile / 100.0 * n));
  tail.value = values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
  return tail;
}

std::string TailName(const std::string& name, const Tail& tail) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%s (p%g of %zu)", name.c_str(),
                tail.percentile, tail.samples);
  return buf;
}

int Tracer::Begin(std::string name, std::string key, int parent) {
  if (!enabled_) return -1;
  Span span{std::move(name), std::move(key), NowUs(), 0.0, parent};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int id) {
  if (id < 0) return;
  const double now = NowUs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_us = now;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteTo(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"parent\": %d, \"name\": \"%s\", "
                 "\"key\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f}\n",
                 i, s.parent, s.name.c_str(), s.key.c_str(), s.start_us,
                 s.end_us);
  }
  return std::fclose(f) == 0;
}

std::vector<SelfTime> SelfTimes(const std::vector<Span>& spans) {
  // Union of child intervals per parent, so overlapping children
  // (parallel participants) are not subtracted twice.
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_us,
                                                                 s.end_us);
    }
  }
  std::map<std::string, SelfTime> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cursor = s.start_us;
    for (const auto& [start, end] : kids) {
      const double lo = std::max(start, cursor);
      const double hi = std::min(end, s.end_us);
      if (hi > lo) covered += hi - lo;
      cursor = std::max(cursor, std::min(end, s.end_us));
    }
    SelfTime& entry = by_name[s.name];
    entry.name = s.name;
    ++entry.count;
    entry.total_ms += (s.end_us - s.start_us) / 1e3;
    entry.self_ms += (s.end_us - s.start_us - covered) / 1e3;
  }
  std::vector<SelfTime> out;
  for (auto& [name, entry] : by_name) out.push_back(entry);
  return out;
}

void Report::Check(bool ok, const std::string& what) {
  std::printf("check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) {
    std::lock_guard<std::mutex> lock(mu_);
    failures_.push_back(what);
  }
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  std::printf("metric %-40s %.6g %s\n", name.c_str(), value, unit.c_str());
  if (!std::isfinite(value)) Check(false, "metric " + name + " is finite");
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.push_back(Entry{name, value, unit});
}

void Report::Extra(const std::string& name, double value,
                   const std::string& unit) const {
  std::printf("extra  %-40s %.6g %s\n", name.c_str(), value, unit.c_str());
}

void Report::Info(const std::string& line) const {
  std::printf("%s\n", line.c_str());
}

bool Report::correct() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_.empty() && failed_ == 0 && attempted_ > 0;
}

std::uint64_t Report::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

std::uint64_t Report::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

void Report::PrintJson() const {
  const bool ok = correct();
  std::lock_guard<std::mutex> lock(mu_);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              ok ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(
                  attempted_, 1)),
              static_cast<unsigned long long>(failed_));
  if (ok) {
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Entry& m = metrics_[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double PeakRssMb() {
  struct rusage usage {};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

bool MakeDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return !ec && std::filesystem::is_directory(path, ec);
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

std::uintmax_t FileSize(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : size;
}

std::string FilesystemName(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0x01021994UL:
      return "tmpfs";
    case 0xEF53UL:
      return "ext4";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    case 0x794C7630UL:
      return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "fs-0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return buf;
    }
  }
}

void PrintHost(const Report& report, const Options& options) {
  char line[512];
  std::snprintf(
      line, sizeof line,
      "host nproc=%ld hardware_threads=%u crypto_isa=%s build=%s "
      "pool_threads=%u workload=%s seed=%llu seconds=%g trace=%d",
      ::sysconf(_SC_NPROCESSORS_ONLN),
      caltrain::util::Parallelism::HardwareThreads(),
      caltrain::crypto::ActiveIsaSummary(), PERFBENCH_BUILD_TYPE,
      caltrain::util::Parallelism::threads(), options.workload.c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0);
  report.Info(line);
}

}  // namespace perfbench
