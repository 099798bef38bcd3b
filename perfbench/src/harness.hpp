// Measurement harness shared by the perfbench workloads: command-line
// options, sample summaries, the in-memory span tracer, output checks
// and the result report (human-readable lines plus the final JSON
// line).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test input corruption (see selftest.py): "wrong-release-key",
  /// "no-triggered-probes" or empty.
  std::string fault;
  /// Shrinks every workload to a smoke-test size (self-test only).
  bool quick = false;
  /// Scratch directory (WAL files, span dumps), inside the checkout.
  std::string work_dir = ".bench_build/perfbench-work";
};

/// Parses `--workload W --seed N --seconds S --trace 0|1` plus the
/// self-test flags `--fault NAME` and `--quick`.  Returns false (after
/// printing why to stderr) on a malformed command line.
bool ParseOptions(int argc, char** argv, Options& options);

using Clock = std::chrono::steady_clock;

/// Microseconds since the first call (one shared epoch for all spans).
double NowUs();

double Median(std::vector<double> values);

/// The highest percentile of `values` that still has at least ten
/// samples beyond it, from the ladder 50/75/90/95/99/99.9.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};
Tail TailOf(std::vector<double> values);
/// "<name> (p<percentile> of <samples>)".
std::string TailName(const std::string& name, const Tail& tail);

/// Collects latency samples from several client threads.
class Samples {
 public:
  void Add(double value) {
    std::lock_guard<std::mutex> lock(mu_);
    values_.push_back(value);
  }
  [[nodiscard]] std::vector<double> values() const {
    std::lock_guard<std::mutex> lock(mu_);
    return values_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<double> values_;
};

/// One traced interval.  `key` carries the protocol ids the span
/// belongs to (participant/session/upload_seq, probe index, ...).
struct Span {
  std::string name;
  std::string key;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
};

/// In-memory span recorder.  Disabled tracers record nothing and hand
/// out id -1, so untraced runs pay one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  int Begin(std::string name, std::string key, int parent);
  void End(int id);
  [[nodiscard]] std::vector<Span> spans() const;
  /// Writes every span to `path` as one JSON object per line.
  bool WriteTo(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: begins on construction, ends on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name, std::string key = {},
        int parent = -1)
      : tracer_(tracer),
        id_(tracer.Begin(std::move(name), std::move(key), parent)) {}
  ~Scope() { tracer_.End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// Self time per span name: duration minus the part covered by its
/// children, summed over every span of that name.
struct SelfTime {
  std::string name;
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::vector<SelfTime> SelfTimes(const std::vector<Span>& spans);

/// Counts requests and records failed output checks.
class Report {
 public:
  void Attempt(bool ok) {
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Records a check; a false `ok` marks the run incorrect.
  void Check(bool ok, const std::string& what);
  /// Records an end-to-end or per-layer metric for the JSON line.
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Prints a metric of this workload that is not part of the JSON
  /// line (see README.md: workload-specific figures).
  void Extra(const std::string& name, double value,
             const std::string& unit) const;
  /// Prints one human-readable line (not part of the JSON line).
  void Info(const std::string& line) const;

  [[nodiscard]] bool correct() const;
  [[nodiscard]] std::uint64_t attempted() const;
  [[nodiscard]] std::uint64_t failed() const;
  /// Prints the final JSON line.  An incorrect run prints no metrics.
  void PrintJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  mutable std::mutex mu_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<Entry> metrics_;
};

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// Creates `path` (and parents); returns false on failure.
bool MakeDirs(const std::string& path);
/// Removes `path` recursively (no-op when absent).
void RemoveTree(const std::string& path);
/// Size of the file at `path` in bytes, 0 when it cannot be read.
std::uintmax_t FileSize(const std::string& path);
/// "tmpfs", "ext4", ... for the filesystem holding `path`.
std::string FilesystemName(const std::string& path);

/// Host and build provenance: nproc, crypto ISA tier, build type,
/// service pool threads, seed.
void PrintHost(const Report& report, const Options& options);

}  // namespace perfbench
