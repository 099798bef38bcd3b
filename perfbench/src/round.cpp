// Workload `round`: the paper's full CalTrain round over loopback TCP.
//
// Three participants on three connections run Connect -> ProvisionVia
// -> OpenSession -> SubmitUpload (64-record chunks, sealed client-side
// inside the round) -> CloseSession.  The operator then trains Table II
// at CI width with the FrontNet at the Experiment II boundary (3 convs
// + max pool), fingerprints the corpus, sends a few hundred Investigate
// RPCs on a fourth connection, and every participant fetches and
// reassembles its release.  Each pass stands up a fresh service.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <thread>

#include "data/synthetic_cifar.hpp"
#include "nn/presets.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace caltrain;

namespace {

struct RoundShape {
  int participants = 3;
  std::size_t records_per_participant = 192;
  int epochs = 2;
  int scale = 16;  // Table II filter divisor (the CI width)
  std::size_t probes = 200;
  std::size_t k = 5;
};

struct RoundFixture {
  std::vector<core::Participant> participants;
  std::vector<nn::Image> probes;
  std::unique_ptr<Stack> stack;
};

/// Running tallies of the per-pass checks.
struct RoundChecks {
  int passes = 0;
  int receipts_ok = 0;
  int loss_decreased = 0;
  int db_matches = 0;
  int releases_ok = 0;
  int investigates_ok = 0;
};

RoundFixture Setup(const RoundShape& shape, std::uint64_t seed) {
  RoundFixture fixture;
  Rng rng(seed);
  const data::SyntheticCifar gen;
  fixture.participants.reserve(static_cast<std::size_t>(shape.participants));
  for (int p = 0; p < shape.participants; ++p) {
    fixture.participants.emplace_back(
        "lab-" + std::string(1, static_cast<char>('A' + p)),
        gen.Generate(shape.records_per_participant, rng), seed * 16 + 1 + p);
  }
  for (std::size_t i = 0; i < shape.probes; ++i) {
    fixture.probes.push_back(
        gen.Sample(static_cast<int>(i % static_cast<std::size_t>(
                                            gen.classes())),
                   rng));
  }
  fixture.stack = std::make_unique<Stack>(seed, serve::ServiceConfig{});
  return fixture;
}

struct PassOutcome {
  double round_s = 0.0;
  double train_samples_per_s = 0.0;
  double upload_rate = 0.0;
};

PassOutcome RunPass(const RoundShape& shape, const Options& options,
                    RoundFixture& fixture, int pass_index, Tracer& tracer,
                    Report& report, PassResults& results,
                    Samples& investigate_ms, RoundChecks& checks) {
  Stack& stack = *fixture.stack;
  PassOutcome outcome;
  const double t0 = NowUs();
  const Scope pass(tracer, "pass", "round/" + std::to_string(pass_index));

  // Stage 1: concurrent provisioning + upload, one connection each.
  std::vector<std::unique_ptr<net::Client>> clients;
  std::vector<UploadTally> tallies(fixture.participants.size());
  {
    const Scope stage(tracer, "stage.upload", "", pass.id());
    std::vector<std::thread> uploaders;
    for (std::size_t p = 0; p < fixture.participants.size(); ++p) {
      clients.push_back(stack.NewClient());
    }
    std::latch upload_window(
        static_cast<std::ptrdiff_t>(fixture.participants.size()));
    for (std::size_t p = 0; p < fixture.participants.size(); ++p) {
      uploaders.emplace_back([&, p] {
        tallies[p] = RunUploader(*clients[p], fixture.participants[p],
                                 /*sealed=*/nullptr, upload_window, tracer,
                                 stage.id(), report, results.upload_ms);
      });
    }
    for (std::thread& t : uploaders) t.join();
  }
  std::string detail;
  if (ReceiptsOk(tallies, stack.server, detail)) ++checks.receipts_ok;
  outcome.upload_rate = UploadRate(tallies);

  // Stage 2: partitioned training at the Experiment II boundary.
  const nn::NetworkSpec spec = nn::Table2Spec(shape.scale);
  core::PartitionedTrainOptions train;
  train.epochs = shape.epochs;
  train.batch_size = 32;
  train.front_layers = BoundaryFrontLayers(spec);
  train.sgd.learning_rate = 0.02F;
  train.augment = false;
  train.seed = options.seed + 5;
  std::size_t trained = 0;
  {
    const Scope stage(tracer, "stage.train", "", pass.id());
    const double start = NowUs();
    const serve::Result<core::TrainReport> result =
        stack.service.SubmitTrain(spec, train).get();
    const double seconds = (NowUs() - start) / 1e6;
    report.Attempt(result.ok());
    if (result.ok() && !result.value().epochs.empty()) {
      const core::TrainReport& r = result.value();
      trained = r.records_trained;
      outcome.train_samples_per_s =
          static_cast<double>(r.records_trained) * shape.epochs / seconds;
      if (r.epochs.back().mean_loss < r.epochs.front().mean_loss) {
        ++checks.loss_decreased;
      }
    }
  }

  // Stage 3: fingerprinting stage -> linkage database.
  {
    const Scope stage(tracer, "stage.fingerprint", "", pass.id());
    const serve::Result<std::size_t> db =
        stack.service.SubmitFingerprint().get();
    report.Attempt(db.ok());
    if (db.ok() && db.value() == stack.server.accepted_records() &&
        db.value() == trained) {
      ++checks.db_matches;
    }
  }

  // Stage 4: misprediction investigations from the operator connection.
  {
    const Scope stage(tracer, "stage.investigate", "", pass.id());
    const std::unique_ptr<net::Client> operator_client = stack.NewClient();
    bool all_ok = true;
    try {
      (void)operator_client->Connect();
      for (std::size_t i = 0; i < fixture.probes.size(); ++i) {
        const double start = NowUs();
        serve::Result<core::MispredictionReport> result(
            core::MispredictionReport{});
        {
          const Scope span(tracer, "net.Investigate",
                           "probe=" + std::to_string(i), stage.id());
          result = operator_client->Investigate(fixture.probes[i], shape.k);
        }
        investigate_ms.Add((NowUs() - start) / 1e3);
        report.Attempt(result.ok());
        all_ok = all_ok && result.ok() &&
                 result.value().neighbors.size() == shape.k;
      }
    } catch (const std::exception& e) {
      report.Attempt(false);
      all_ok = false;
      report.Info(std::string("error: operator connect: ") + e.what());
    }
    if (all_ok) ++checks.investigates_ok;
  }

  // Stage 5: every participant fetches its release over its own
  // connection and reassembles it with its key.
  {
    const Scope stage(tracer, "stage.release", "", pass.id());
    bool all_ok = true;
    const std::size_t n = fixture.participants.size();
    for (std::size_t p = 0; p < n; ++p) {
      core::Participant& owner = fixture.participants[p];
      serve::Result<core::TrainingServer::ReleasedModel> released(
          core::TrainingServer::ReleasedModel{});
      {
        const Scope span(tracer, "net.Release", owner.id(), stage.id());
        released = clients[p]->Release(owner.id());
      }
      report.Attempt(released.ok());
      if (!released.ok()) {
        all_ok = false;
        continue;
      }
      const core::Participant& key_holder =
          options.fault == "wrong-release-key"
              ? fixture.participants[(p + 1) % n]
              : owner;
      const Scope span(tracer, "serve.AssembleReleased", owner.id(),
                       stage.id());
      all_ok = all_ok &&
               serve::Service::AssembleReleased(released.value(),
                                                key_holder.data_key())
                   .ok();
    }
    if (all_ok) ++checks.releases_ok;
  }
  outcome.round_s = (NowUs() - t0) / 1e6;
  ++checks.passes;
  return outcome;
}

}  // namespace

void RunRound(const Options& options, Report& report) {
  RoundShape shape;
  if (options.quick) {
    shape.records_per_participant = 64;
    shape.probes = 20;
  }
  report.Info("workload round: " + std::to_string(shape.participants) +
              " participants x " +
              std::to_string(shape.records_per_participant) +
              " CIFAR records, Table II scale " + std::to_string(shape.scale) +
              ", FrontNet " +
              std::to_string(BoundaryFrontLayers(nn::Table2Spec(shape.scale))) +
              " layers, " + std::to_string(shape.epochs) + " epochs, " +
              std::to_string(shape.probes) +
              " investigates; closed loop, client connections=" +
              std::to_string(shape.participants + 1));

  PassResults results;
  Samples investigate_ms;
  std::vector<double> train_rates;
  RoundChecks checks;
  Tracer tracer(options.trace);
  const std::size_t min_passes = options.quick ? 1 : 2;
  const double start = NowUs();
  for (int pass = 0;; ++pass) {
    if (results.Done(options, min_passes, start)) break;
    const bool traced = options.trace && pass % 2 == 1;

    // Hand the previous pass's freed heap back to the kernel so the
    // peak RSS reflects one pass's working set, not allocator drift.
    ::malloc_trim(0);
    const double setup_start = NowUs();
    RoundFixture fixture =
        Setup(shape, options.seed * 1000 + static_cast<std::uint64_t>(pass));
    results.setup_s.push_back((NowUs() - setup_start) / 1e6);

    Tracer untraced(false);
    Tracer& pass_tracer = traced ? tracer : untraced;
    const std::size_t first_span = tracer.spans().size();
    const PassOutcome outcome =
        RunPass(shape, options, fixture, pass, pass_tracer, report, results,
                investigate_ms, checks);
    if (traced) {
      results.traced_round_s.push_back(outcome.round_s);
      results.stage_coverage.push_back(
          StageCoverage(tracer.spans(), static_cast<int>(first_span)));
    } else {
      results.round_s.push_back(outcome.round_s);
    }
    train_rates.push_back(outcome.train_samples_per_s);
    results.upload_rate.push_back(outcome.upload_rate);
  }

  report.Check(checks.receipts_ok == checks.passes,
               "round: receipts account for every record in every pass");
  report.Check(checks.loss_decreased == checks.passes,
               "round: last epoch mean loss below the first in every pass");
  report.Check(checks.db_matches == checks.passes,
               "round: linkage.db_size equals accepted records");
  report.Check(checks.investigates_ok == checks.passes,
               "round: every Investigate returned k neighbours");
  report.Check(checks.releases_ok == checks.passes,
               "round: every release reassembles with its owner's key");
  if (options.trace) {
    const auto [low, high] = std::minmax_element(
        results.stage_coverage.begin(), results.stage_coverage.end());
    char line[160];
    std::snprintf(line, sizeof line,
                  "round: stage spans sum to within 10%% of round_s in every "
                  "traced pass (%.4f..%.4f)",
                  *low, *high);
    report.Check(*low > 0.9 && *high < 1.1, line);
  }

  const std::vector<double> probes = investigate_ms.values();
  const Tail tail = TailOf(probes);
  report.Extra("train_samples_per_s", Median(train_rates), "1/s");
  report.Extra("investigate_p50_ms", Median(probes), "ms");
  report.Extra(TailName("investigate_tail_ms", tail), tail.value, "ms");
  RecordCommonMetrics(options, results, report);
  DumpTrace(tracer, options, report);
  if (options.trace) RunLayerReplay(options, report);
}

}  // namespace perfbench
