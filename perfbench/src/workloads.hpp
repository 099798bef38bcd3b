// The perfbench workloads and the pieces they share: a loopback
// service stack (TrainingServer + serve::Service + net::Server), timed
// client calls that feed the span tracer and the request counters, and
// the closed-loop uploader every workload uses.
#pragma once

#include <latch>
#include <memory>
#include <string>
#include <vector>

#include "core/participant.hpp"
#include "core/server.hpp"
#include "harness.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "nn/network.hpp"
#include "serve/service.hpp"

namespace perfbench {

inline constexpr std::size_t kChunkRecords = 64;

/// A service fronted by the epoll TCP server on an ephemeral loopback
/// port.  Members are declared in dependency order, so destruction
/// stops the front end before the service and the server go away.
struct Stack {
  Stack(std::uint64_t seed, const caltrain::serve::ServiceConfig& config);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  [[nodiscard]] std::unique_ptr<caltrain::net::Client> NewClient() const;

  caltrain::core::TrainingServer server;
  caltrain::serve::Service service;
  caltrain::net::Server front;
};

/// What one uploader saw.
struct UploadTally {
  std::size_t sent = 0;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  bool closed_ok = false;
  double first_send_us = 0.0;  ///< first SubmitUpload sent
  double last_receipt_us = 0.0;  ///< last receipt arrived
};

/// One participant's closed-loop client script: Connect ->
/// ProvisionVia -> OpenSession -> SubmitUpload in 64-record chunks ->
/// CloseSession.  Uploads `sealed` when given; otherwise the
/// participant seals its data after provisioning (inside the timed
/// window).  Every uploader of a stage then meets at `upload_window`
/// (one count per uploader), so the upload phase opens for all of them
/// at once.  Chunk latencies go to `latencies_ms`.  The client stays
/// connected for later requests.
UploadTally RunUploader(
    caltrain::net::Client& client, caltrain::core::Participant& participant,
    const std::vector<caltrain::data::EncryptedRecord>* sealed,
    std::latch& upload_window, Tracer& tracer, int parent, Report& report,
    Samples& latencies_ms);

/// True when receipts account for every record: accepted == sent and
/// rejected == 0 for each uploader, and the server's committed total
/// matches.  `detail` receives the tallies for the check line.
bool ReceiptsOk(const std::vector<UploadTally>& tallies,
                const caltrain::core::TrainingServer& server,
                std::string& detail);

/// Committed records per second over the window from the first upload
/// sent to the last receipt received, across `tallies`.
double UploadRate(const std::vector<UploadTally>& tallies);

/// FrontNet depth of the paper's Experiment II boundary: every layer up
/// to and including the max pool that follows the third convolution.
int BoundaryFrontLayers(const caltrain::nn::NetworkSpec& spec);

/// Index of the face network's embedding FC (first connected layer),
/// the fingerprint layer of Experiment IV.
int EmbeddingLayer(const caltrain::nn::NetworkSpec& spec);

/// Sum of the stage spans (children of the pass span `pass_id`) over
/// the pass span.
double StageCoverage(const std::vector<Span>& spans, int pass_id);

/// Prints the span self-time table and writes the spans to the
/// workload's trace file under the work directory.
void DumpTrace(const Tracer& tracer, const Options& options,
               const Report& report);

void RunRound(const Options& options, Report& report);
void RunIngest(const Options& options, Report& report);
void RunForensics(const Options& options, Report& report);

/// Per-layer replay suite of the traced run: times calls into each
/// layer's public functions on small fixtures and records every
/// per-layer metric.
void RunLayerReplay(const Options& options, Report& report);

/// Shared tail of every workload: records the end-to-end metrics
/// common to all workloads (untraced runs) or the trace summary
/// (traced runs).
struct PassResults {
  /// True once `seconds` have passed since `start_us` and at least
  /// `min_passes` untraced (and, in traced runs, traced) passes ran.
  [[nodiscard]] bool Done(const Options& options, std::size_t min_passes,
                          double start_us) const;

  std::vector<double> setup_s;
  std::vector<double> round_s;          ///< untraced passes
  std::vector<double> traced_round_s;   ///< traced passes
  std::vector<double> stage_coverage;   ///< traced: stage spans / pass
  std::vector<double> upload_rate;
  Samples upload_ms;
};
void RecordCommonMetrics(const Options& options, PassResults& results,
                         Report& report);

}  // namespace perfbench
