// perfbench: the CalTrain end-to-end benchmark.
//
//   perfbench --workload round|ingest|forensics --seed N --seconds S
//             --trace 0|1 [--quick] [--fault NAME] [--work-dir DIR]
//
// Drives the public API (net::Server in front of serve::Service over
// loopback TCP, net::Client and core::Participant on the client side),
// checks every output, prints human-readable metric lines and, last,
// one JSON line {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end set; with --trace 1 the
// passes alternate traced and untraced, spans are written under the
// work directory, and the per-layer replay suite runs.  Exit status is
// 0 on a correct run, 1 when an output check fails, 2 on bad usage.
#include <cstdio>
#include <exception>

#include "harness.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::ParseOptions(argc, argv, options)) return 2;
  perfbench::Report report;
  perfbench::PrintHost(report, options);
  try {
    if (options.workload == "round") {
      perfbench::RunRound(options, report);
    } else if (options.workload == "ingest") {
      perfbench::RunIngest(options, report);
    } else if (options.workload == "forensics") {
      perfbench::RunForensics(options, report);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n",
                   options.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    report.Attempt(false);
    report.Check(false, std::string("unexpected error: ") + e.what());
  }
  report.Info("peak_rss_mb " + std::to_string(perfbench::PeakRssMb()));
  report.PrintJson();
  return report.correct() ? 0 : 1;
}
