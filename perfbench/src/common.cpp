#include <algorithm>
#include <cstdio>
#include <limits>

#include "util/error.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace caltrain;

namespace {

core::ServerConfig ServerConfigFor(std::uint64_t seed) {
  core::ServerConfig config;
  config.seed = seed;
  return config;
}

}  // namespace

Stack::Stack(std::uint64_t seed, const serve::ServiceConfig& config)
    : server(ServerConfigFor(seed)), service(server, config), front(service) {
  front.Start();
}

Stack::~Stack() { front.Stop(); }

std::unique_ptr<net::Client> Stack::NewClient() const {
  net::ClientOptions options;
  options.port = front.port();
  return std::make_unique<net::Client>(options);
}

UploadTally RunUploader(net::Client& client, core::Participant& participant,
                        const std::vector<data::EncryptedRecord>* sealed,
                        std::latch& upload_window, Tracer& tracer, int parent,
                        Report& report, Samples& latencies_ms) {
  UploadTally tally;
  const Scope whole(tracer, "client.participant", participant.id(), parent);
  try {
    net::Client::HelloInfo hello;
    {
      const Scope span(tracer, "net.Connect", participant.id(), whole.id());
      hello = client.Connect();
    }
    report.Attempt(true);
    {
      const Scope span(tracer, "core.ProvisionVia", participant.id(),
                       whole.id());
      participant.ProvisionVia(client, hello.attestation_public_key,
                               hello.measurement);
    }
    report.Attempt(true);
  } catch (const Error& e) {
    report.Attempt(false);
    report.Info("error: " + participant.id() + " connect/provision: " +
                e.what());
    upload_window.count_down();
    return tally;
  }
  std::vector<data::EncryptedRecord> packed;
  if (sealed == nullptr) {
    const Scope span(tracer, "data.PackRecords", participant.id(), whole.id());
    packed = participant.PackRecords();
    sealed = &packed;
  }
  {
    const Scope span(tracer, "client.upload_window", participant.id(),
                     whole.id());
    upload_window.arrive_and_wait();
  }

  serve::Result<serve::SessionId> session(serve::SessionId{0});
  {
    const Scope span(tracer, "net.OpenSession", participant.id(), whole.id());
    session = client.OpenSession(participant.id());
  }
  report.Attempt(session.ok());
  if (!session.ok()) return tally;
  const std::string session_key =
      participant.id() + "/" + std::to_string(session.value());

  const std::vector<data::EncryptedRecord>& records = *sealed;
  tally.first_send_us = NowUs();
  for (std::size_t first = 0, seq = 0; first < records.size();
       first += kChunkRecords, ++seq) {
    const std::size_t count = std::min(kChunkRecords, records.size() - first);
    const auto begin = records.begin() + static_cast<std::ptrdiff_t>(first);
    // The copy is the chunk the client hands to the wire, made before
    // the clock starts.
    std::vector<data::EncryptedRecord> chunk(
        begin, begin + static_cast<std::ptrdiff_t>(count));
    const double start = NowUs();
    serve::Result<serve::UploadReceipt> receipt(serve::UploadReceipt{});
    {
      const Scope span(tracer, "net.SubmitUpload",
                       session_key + "/" + std::to_string(seq), whole.id());
      receipt = client.SubmitUpload(session.value(), std::move(chunk));
    }
    const double end = NowUs();
    report.Attempt(receipt.ok());
    tally.sent += count;
    if (receipt.ok()) {
      latencies_ms.Add((end - start) / 1e3);
      tally.accepted += receipt.value().accepted;
      tally.rejected += receipt.value().rejected;
      tally.last_receipt_us = end;
    }
  }

  serve::Result<serve::SessionStats> stats(serve::SessionStats{});
  {
    const Scope span(tracer, "net.CloseSession", session_key, whole.id());
    stats = client.CloseSession(session.value());
  }
  report.Attempt(stats.ok());
  tally.closed_ok = stats.ok() && stats.value().accepted == tally.accepted &&
                    stats.value().submitted == tally.sent;
  return tally;
}

bool ReceiptsOk(const std::vector<UploadTally>& tallies,
                const core::TrainingServer& server, std::string& detail) {
  std::size_t sent = 0;
  std::size_t accepted = 0;
  bool each_ok = true;
  for (const UploadTally& t : tallies) {
    sent += t.sent;
    accepted += t.accepted;
    each_ok = each_ok && t.sent > 0 && t.accepted == t.sent &&
              t.rejected == 0 && t.closed_ok;
  }
  detail = "sent " + std::to_string(sent) + ", accepted " +
           std::to_string(server.accepted_records()) + ", rejected " +
           std::to_string(server.rejected_records());
  return each_ok && server.accepted_records() == accepted &&
         server.rejected_records() == 0;
}

double UploadRate(const std::vector<UploadTally>& tallies) {
  double first = std::numeric_limits<double>::max();
  double last = 0.0;
  std::size_t accepted = 0;
  for (const UploadTally& t : tallies) {
    first = std::min(first, t.first_send_us);
    last = std::max(last, t.last_receipt_us);
    accepted += t.accepted;
  }
  return last > first ? static_cast<double>(accepted) / ((last - first) / 1e6)
                      : 0.0;
}

int BoundaryFrontLayers(const nn::NetworkSpec& spec) {
  int convs = 0;
  for (std::size_t i = 0; i < spec.layers.size(); ++i) {
    if (spec.layers[i].kind == nn::LayerKind::kConv) ++convs;
    if (convs >= 3 && spec.layers[i].kind == nn::LayerKind::kMaxPool) {
      return static_cast<int>(i) + 1;
    }
  }
  return 0;
}

int EmbeddingLayer(const nn::NetworkSpec& spec) {
  for (std::size_t i = 0; i < spec.layers.size(); ++i) {
    if (spec.layers[i].kind == nn::LayerKind::kConnected) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

double StageCoverage(const std::vector<Span>& spans, int pass_id) {
  const Span& pass = spans[static_cast<std::size_t>(pass_id)];
  double stages = 0.0;
  for (const Span& s : spans) {
    if (s.parent == pass_id) stages += s.end_us - s.start_us;
  }
  const double whole = pass.end_us - pass.start_us;
  return whole > 0.0 ? stages / whole : 0.0;
}

void DumpTrace(const Tracer& tracer, const Options& options,
               const Report& report) {
  if (!tracer.enabled()) return;
  const std::vector<Span> spans = tracer.spans();
  report.Info("span self time: name count total_ms self_ms");
  for (const SelfTime& s : SelfTimes(spans)) {
    char line[256];
    std::snprintf(line, sizeof line, "  span %-28s %6zu %10.2f %10.2f",
                  s.name.c_str(), s.count, s.total_ms, s.self_ms);
    report.Info(line);
  }
  const std::string path = options.work_dir + "/trace-" + options.workload +
                           "-" + std::to_string(options.seed) + ".jsonl";
  if (MakeDirs(options.work_dir) && tracer.WriteTo(path)) {
    report.Info("spans (" + std::to_string(spans.size()) + ") written to " +
                path);
  }
}

bool PassResults::Done(const Options& options, std::size_t min_passes,
                       double start_us) const {
  const bool enough = round_s.size() >= min_passes &&
                      (!options.trace || traced_round_s.size() >= min_passes);
  return enough && (NowUs() - start_us) / 1e6 >= options.seconds;
}

void RecordCommonMetrics(const Options& options, PassResults& results,
                         Report& report) {
  const std::vector<double> uploads = results.upload_ms.values();
  const Tail tail = TailOf(uploads);
  char line[200];
  std::snprintf(line, sizeof line,
                "samples: %zu setups, %zu untraced passes, %zu traced "
                "passes, %zu upload chunks (tail = p%g)",
                results.setup_s.size(), results.round_s.size(),
                results.traced_round_s.size(), uploads.size(),
                tail.percentile);
  report.Info(line);
  report.Extra("failed_ratio",
               static_cast<double>(report.failed()) /
                   static_cast<double>(
                       std::max<std::uint64_t>(report.attempted(), 1)),
               "ratio");
  if (!options.trace) {
    report.Metric("setup_s", Median(results.setup_s), "s");
    report.Metric("round_s", Median(results.round_s), "s");
    report.Metric("upload_records_per_s", Median(results.upload_rate), "1/s");
    report.Metric("upload_p50_ms", Median(uploads), "ms");
    report.Extra(TailName("upload_tail_ms", tail), tail.value, "ms");
    report.Metric("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }
  // The tail does not repeat within a tenth across runs, so it is a
  // per-layer (unbounded) figure of the traced run.
  report.Metric("upload_tail_ms", tail.value, "ms");
  const double untraced = Median(results.round_s);
  const double traced = Median(results.traced_round_s);
  report.Metric("trace.overhead", untraced > 0.0 ? traced / untraced - 1.0 : 0,
                "ratio");
  report.Metric("trace.stage_coverage", Median(results.stage_coverage),
                "ratio");
}

}  // namespace perfbench
