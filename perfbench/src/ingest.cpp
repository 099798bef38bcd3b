// Workload `ingest`: upload only, no training.
//
// Four participants on four connections stream ~16k records, sealed
// during setup, in 64-record chunks into a journaled service
// (durable_dir set, kGroup fsync per acknowledgement wave).  Every
// pass stands up a fresh service and journal.  This path is all writes
// through net framing, serve queue/batch/reorder-commit, crypto GCM
// open and batch Schnorr, enclave transitions and persist group
// commit; nn and linkage do nothing here.
#include <malloc.h>

#include <thread>

#include "data/synthetic_cifar.hpp"
#include "persist/journal.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace caltrain;

namespace {

struct IngestShape {
  int participants = 4;
  std::size_t records_per_participant = 4000;
  int setups = 3;
};

struct IngestInputs {
  std::vector<core::Participant> participants;
  std::vector<std::vector<data::EncryptedRecord>> sealed;
};

IngestInputs Setup(const IngestShape& shape, std::uint64_t seed) {
  IngestInputs inputs;
  Rng rng(seed);
  const data::SyntheticCifar gen;
  inputs.participants.reserve(static_cast<std::size_t>(shape.participants));
  for (int p = 0; p < shape.participants; ++p) {
    inputs.participants.emplace_back(
        "uploader-" + std::to_string(p),
        gen.Generate(shape.records_per_participant, rng), seed * 16 + 1 + p);
    inputs.sealed.push_back(inputs.participants.back().PackRecords());
  }
  return inputs;
}

}  // namespace

void RunIngest(const Options& options, Report& report) {
  IngestShape shape;
  if (options.quick) {
    shape.records_per_participant = 256;
    shape.setups = 1;
  }
  const std::string wal_root = options.work_dir + "/wal";
  RemoveTree(wal_root);
  if (!MakeDirs(wal_root)) {
    report.Check(false, "ingest: cannot create " + wal_root);
    return;
  }
  report.Info("workload ingest: " + std::to_string(shape.participants) +
              " participants x " +
              std::to_string(shape.records_per_participant) +
              " sealed CIFAR records in " + std::to_string(kChunkRecords) +
              "-record chunks; closed loop, client connections=" +
              std::to_string(shape.participants) + "; WAL medium=" +
              FilesystemName(wal_root) + " (" + wal_root +
              "), sync policy=kGroup (one fdatasync per wave)");

  PassResults results;
  IngestInputs inputs;
  for (int s = 0; s < shape.setups; ++s) {
    inputs = IngestInputs{};  // free the previous inputs first
    ::malloc_trim(0);
    const double start = NowUs();
    inputs = Setup(shape, options.seed * 1000 + static_cast<std::uint64_t>(s));
    results.setup_s.push_back((NowUs() - start) / 1e6);
  }

  Tracer tracer(options.trace);
  std::vector<double> wal_bytes_per_record;
  std::vector<double> ecalls_per_record;
  int receipt_failures = 0;
  const std::size_t min_passes = options.quick ? 1 : 3;
  const double start = NowUs();
  for (int pass = 0;; ++pass) {
    if (results.Done(options, min_passes, start)) break;
    const bool traced = options.trace && pass % 2 == 1;

    ::malloc_trim(0);  // each pass starts from a trimmed heap
    const std::string wal_dir = wal_root + "/pass-" + std::to_string(pass);
    if (!MakeDirs(wal_dir)) {
      report.Check(false, "ingest: cannot create " + wal_dir);
      return;
    }
    serve::ServiceConfig config;
    config.durable_dir = wal_dir;
    config.journal_sync = persist::SyncMode::kGroup;
    {
      Stack stack(options.seed, config);
      std::vector<std::unique_ptr<net::Client>> clients;
      for (std::size_t p = 0; p < inputs.participants.size(); ++p) {
        clients.push_back(stack.NewClient());
      }
      std::vector<UploadTally> tallies(inputs.participants.size());
      Tracer untraced(false);
      Tracer& pass_tracer = traced ? tracer : untraced;

      const std::size_t first_span = tracer.spans().size();
      const double t0 = NowUs();
      {
        const Scope whole(pass_tracer, "pass",
                          "ingest/" + std::to_string(pass));
        const Scope stage(pass_tracer, "stage.upload", "", whole.id());
        std::vector<std::thread> uploaders;
        std::latch upload_window(
            static_cast<std::ptrdiff_t>(inputs.participants.size()));
        for (std::size_t p = 0; p < inputs.participants.size(); ++p) {
          uploaders.emplace_back([&, p] {
            tallies[p] = RunUploader(*clients[p], inputs.participants[p],
                                     &inputs.sealed[p], upload_window,
                                     pass_tracer, stage.id(), report,
                                     results.upload_ms);
          });
        }
        for (std::thread& t : uploaders) t.join();
      }
      const double seconds = (NowUs() - t0) / 1e6;
      (traced ? results.traced_round_s : results.round_s).push_back(seconds);
      if (traced) {
        results.stage_coverage.push_back(
            StageCoverage(tracer.spans(), static_cast<int>(first_span)));
      }
      results.upload_rate.push_back(UploadRate(tallies));

      std::string detail;
      if (!ReceiptsOk(tallies, stack.server, detail)) {
        ++receipt_failures;
        report.Info("ingest pass " + std::to_string(pass) + ": " + detail);
      }
      const double records =
          static_cast<double>(stack.server.accepted_records());
      ecalls_per_record.push_back(
          static_cast<double>(
              stack.server.training_enclave().transitions().ecalls) /
          records);
      wal_bytes_per_record.push_back(
          static_cast<double>(FileSize(wal_dir + "/service.wal")) / records);
    }
    RemoveTree(wal_dir);
  }
  report.Check(receipt_failures == 0,
               "ingest: receipts account for every record in every pass");
  RemoveTree(wal_root);

  report.Extra("upload_records_per_s (ingest headline)",
               Median(results.upload_rate), "1/s");
  report.Extra("enclave.ecalls_per_record", Median(ecalls_per_record),
               "count");
  report.Extra("persist.wal_bytes_per_record", Median(wal_bytes_per_record),
               "B");
  RecordCommonMetrics(options, results, report);
  DumpTrace(tracer, options, report);
  if (options.trace) RunLayerReplay(options, report);
}

}  // namespace perfbench
