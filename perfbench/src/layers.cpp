// Per-layer replay suite of the traced run.
//
// Each layer is timed from outside, through its public functions, on
// fixtures made from the seed:
//   * a face serving fixture (journaled Service behind net::Server):
//     provisioning, sealing, GCM open, batch Schnorr, uploads over TCP
//     against the same chunk in-process, status/investigate round
//     trips against in-process investigate, the WAL, the linkage
//     database and the face network's forward pass per layer;
//   * a CIFAR mini-round in-process: Table II training at the
//     Experiment II boundary (batch time, boundary traffic, EPC
//     paging), the fingerprint stage and releases;
//   * Table II per layer (forward/backward/update under the profile of
//     the layer's side of the boundary), the Fig. 6 enclave overhead
//     from interleaved warm TrainBatch runs, and raw journal appends.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "core/partitioned.hpp"
#include "crypto/schnorr.hpp"
#include "data/synthetic_cifar.hpp"
#include "data/synthetic_faces.hpp"
#include "enclave/enclave.hpp"
#include "linkage/linkage_db.hpp"
#include "nn/presets.hpp"
#include "persist/journal.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace caltrain;

namespace {

constexpr double kPaperBoundaryOverhead = 0.081;  // Fig. 6, Experiment II

template <typename Fn>
double TimeUs(Fn&& fn) {
  const double start = NowUs();
  fn();
  return NowUs() - start;
}

std::vector<std::vector<data::EncryptedRecord>> Chunks(
    std::vector<data::EncryptedRecord> records) {
  std::vector<std::vector<data::EncryptedRecord>> chunks;
  for (std::size_t first = 0; first < records.size(); first += kChunkRecords) {
    const std::size_t last = std::min(records.size(), first + kChunkRecords);
    chunks.emplace_back(
        std::make_move_iterator(records.begin() +
                                static_cast<std::ptrdiff_t>(first)),
        std::make_move_iterator(records.begin() +
                                static_cast<std::ptrdiff_t>(last)));
  }
  return chunks;
}

// --------------------------------------------------------- face fixture
void FaceServingReplay(const Options& options, Report& report,
                       double& wal_bytes_per_record) {
  const std::size_t per_participant = options.quick ? 256 : 2048;
  const std::size_t probe_count = options.quick ? 32 : 256;
  const int identities = 8;
  const std::string wal_dir = options.work_dir + "/replay-wal";
  RemoveTree(wal_dir);
  if (!MakeDirs(wal_dir)) {
    report.Check(false, "replay: cannot create " + wal_dir);
    return;
  }

  data::SyntheticFacesOptions face_options;
  face_options.identities = identities;
  const data::SyntheticFaces faces(face_options);
  Rng rng(options.seed * 31 + 7);
  core::Participant remote("replay-tcp",
                           faces.Generate(per_participant, rng),
                           options.seed * 31 + 1);
  core::Participant local("replay-local",
                          faces.Generate(per_participant, rng),
                          options.seed * 31 + 2);

  serve::ServiceConfig config;
  config.durable_dir = wal_dir;
  config.journal_sync = persist::SyncMode::kGroup;
  {
    Stack stack(options.seed, config);
    const std::unique_ptr<net::Client> client = stack.NewClient();
    const net::Client::HelloInfo hello = client->Connect();
    report.Attempt(true);

    // securechannel: attested handshake + key provisioning over TCP.
    std::vector<double> provision_ms;
    std::vector<core::Participant> extras;
    for (int i = 0; i < 6; ++i) {
      extras.emplace_back("replay-extra-" + std::to_string(i),
                          data::LabeledDataset{}, options.seed * 31 + 10 + i);
    }
    for (core::Participant* p : {&remote, &local}) {
      provision_ms.push_back(TimeUs([&] {
        p->ProvisionVia(*client, hello.attestation_public_key,
                        hello.measurement);
      }) / 1e3);
    }
    for (core::Participant& p : extras) {
      provision_ms.push_back(TimeUs([&] {
        p.ProvisionVia(*client, hello.attestation_public_key,
                       hello.measurement);
      }) / 1e3);
    }
    report.Metric("securechannel.provision_ms", Median(provision_ms), "ms");

    // data: sealing (GCM seal + Schnorr sign per record).
    std::vector<data::EncryptedRecord> remote_records;
    std::vector<data::EncryptedRecord> local_records;
    const double pack_us = TimeUs([&] {
      remote_records = remote.PackRecords();
      local_records = local.PackRecords();
    });
    report.Metric("data.pack_us_per_record",
                  pack_us / static_cast<double>(2 * per_participant), "us");

    // crypto: GCM open and batch Schnorr verify, per record.
    const std::size_t crypto_records = std::min<std::size_t>(
        512, remote_records.size());
    // The server caches one key schedule per participant; so does this.
    const crypto::AesGcm cipher(remote.data_key());
    std::vector<double> gcm_us;
    bool opened_all = true;
    for (int rep = 0; rep < 3; ++rep) {
      gcm_us.push_back(TimeUs([&] {
        for (std::size_t i = 0; i < crypto_records; ++i) {
          opened_all = opened_all &&
                       data::OpenRecord(remote_records[i], cipher).has_value();
        }
      }) / static_cast<double>(crypto_records));
    }
    std::vector<Bytes> messages;
    for (std::size_t i = 0; i < crypto_records; ++i) {
      messages.push_back(remote_records[i].SignedPortion());
    }
    std::vector<double> schnorr_us;
    bool verified_all = true;
    for (int rep = 0; rep < 3; ++rep) {
      schnorr_us.push_back(TimeUs([&] {
        for (std::size_t first = 0; first < crypto_records; first += 32) {
          std::vector<crypto::SchnorrBatchItem> items;
          for (std::size_t i = first;
               i < std::min(crypto_records, first + 32); ++i) {
            items.push_back(crypto::SchnorrBatchItem{
                remote.signing_public_key(), messages[i],
                crypto::DeserializeSignature(remote_records[i].signature)});
          }
          verified_all = verified_all && crypto::SchnorrVerifyBatch(items)
                                             .empty();
        }
      }) / static_cast<double>(crypto_records));
    }
    report.Check(opened_all && verified_all,
                 "replay: every sealed record opens and its signature "
                 "verifies");
    report.Metric("crypto.gcm_open_us_per_record", Median(gcm_us), "us");
    report.Metric("crypto.schnorr_verify_us_per_record", Median(schnorr_us),
                  "us");

    // net vs serve: the same 64-record chunk over TCP and in-process,
    // alternating, into one journaled service.
    const serve::Result<serve::SessionId> tcp_session =
        client->OpenSession(remote.id());
    const serve::Result<serve::SessionId> local_session =
        stack.service.OpenUploadSession(local.id());
    report.Attempt(tcp_session.ok());
    report.Attempt(local_session.ok());
    if (!tcp_session.ok() || !local_session.ok()) {
      report.Check(false, "replay: upload sessions open");
      return;
    }
    const std::uint64_t ecalls_before =
        stack.server.training_enclave().transitions().ecalls;
    auto tcp_chunks = Chunks(std::move(remote_records));
    auto local_chunks = Chunks(std::move(local_records));
    std::vector<double> tcp_ms;
    std::vector<double> local_ms;
    std::size_t sent = 0;
    for (std::size_t c = 0; c < tcp_chunks.size(); ++c) {
      sent += tcp_chunks[c].size() + local_chunks[c].size();
      serve::Result<serve::UploadReceipt> r1(serve::UploadReceipt{});
      tcp_ms.push_back(TimeUs([&] {
        r1 = client->SubmitUpload(tcp_session.value(),
                                  std::move(tcp_chunks[c]));
      }) / 1e3);
      serve::Result<serve::UploadReceipt> r2(serve::UploadReceipt{});
      local_ms.push_back(TimeUs([&] {
        r2 = stack.service
                 .SubmitUpload(local_session.value(),
                               std::move(local_chunks[c]))
                 .get();
      }) / 1e3);
      report.Attempt(r1.ok());
      report.Attempt(r2.ok());
    }
    report.Attempt(client->CloseSession(tcp_session.value()).ok());
    report.Attempt(
        stack.service.CloseUploadSession(local_session.value()).ok());
    const double records = static_cast<double>(sent);
    report.Metric("net.upload_rtt_ms", Median(tcp_ms), "ms");
    report.Metric("serve.upload_ms", Median(local_ms), "ms");
    report.Metric("enclave.ecalls_per_record",
                  static_cast<double>(
                      stack.server.training_enclave().transitions().ecalls -
                      ecalls_before) /
                      records,
                  "count");
    wal_bytes_per_record =
        static_cast<double>(FileSize(wal_dir + "/service.wal")) / records;
    report.Metric("persist.wal_bytes_per_record", wal_bytes_per_record, "B");
    report.Metric("serve.accepted",
                  static_cast<double>(stack.server.accepted_records()),
                  "count");
    report.Metric("serve.rejected",
                  static_cast<double>(stack.server.rejected_records()),
                  "count");
    report.Check(stack.server.accepted_records() == sent &&
                     stack.server.rejected_records() == 0,
                 "replay: receipts account for every record (" +
                     std::to_string(sent) + ")");

    std::vector<double> status_us;
    for (int i = 0; i < 200; ++i) {
      serve::Result<net::StatusAck> status(net::StatusAck{});
      status_us.push_back(TimeUs([&] { status = client->Status(); }));
      report.Attempt(status.ok());
    }
    report.Metric("net.status_rtt_us", Median(status_us), "us");

    // Train the face model briefly, then fingerprint at the embedding FC.
    const nn::NetworkSpec spec =
        nn::FaceNetSpec(faces.shape(), identities, 64, 8);
    const int layer = EmbeddingLayer(spec);
    core::PartitionedTrainOptions train;
    train.epochs = 1;
    train.front_layers = 2;
    train.augment = false;
    train.seed = options.seed + 11;
    report.Attempt(stack.service.SubmitTrain(spec, train).get().ok());
    const serve::Result<std::size_t> db =
        stack.service.SubmitFingerprint(layer).get();
    report.Attempt(db.ok());
    const std::size_t db_size = db.ok() ? db.value() : 0;
    report.Metric("linkage.db_size", static_cast<double>(db_size), "count");
    report.Check(db_size == stack.server.accepted_records(),
                 "replay: linkage.db_size equals accepted records");
    core::QueryService* query = stack.service.query_service();
    if (query == nullptr) {
      report.Check(false, "replay: query stage is up");
      return;
    }

    // Investigate over TCP vs in-process, alternating.
    std::vector<nn::Image> probes;
    for (std::size_t i = 0; i < probe_count; ++i) {
      probes.push_back(faces.Sample(static_cast<int>(i % identities), rng));
    }
    std::vector<double> tcp_us;
    std::vector<double> local_us;
    std::vector<core::MispredictionReport> reports;
    for (const nn::Image& probe : probes) {
      serve::Result<core::MispredictionReport> r1(core::MispredictionReport{});
      tcp_us.push_back(TimeUs([&] { r1 = client->Investigate(probe, 5); }));
      serve::Result<core::MispredictionReport> r2(core::MispredictionReport{});
      local_us.push_back(TimeUs(
          [&] { r2 = stack.service.SubmitInvestigate(probe, 5).get(); }));
      report.Attempt(r1.ok());
      report.Attempt(r2.ok());
      if (r2.ok()) reports.push_back(r2.value());
    }
    report.Metric("net.investigate_rtt_us", Median(tcp_us), "us");
    report.Metric("serve.investigate_us", Median(local_us), "us");
    report.Metric("net.frames_rejected",
                  static_cast<double>(stack.front.frames_rejected()), "count");

    // linkage: insert, single and batched kNN on a copy of the database.
    linkage::LinkageDatabase copy =
        linkage::LinkageDatabase::Deserialize(query->database().Serialize());
    std::vector<linkage::LinkageRecord> tuples;
    for (std::uint64_t id = 0; id < copy.size(); ++id) {
      const linkage::LinkageTuple& t = copy.tuple(id);
      tuples.push_back({t.fingerprint, t.label, t.source, t.hash});
    }
    linkage::LinkageDatabase fresh;
    const double insert_us =
        TimeUs([&] { (void)fresh.InsertBatch(std::move(tuples)); });
    report.Metric("linkage.insert_us_per_tuple",
                  insert_us / static_cast<double>(std::max<std::size_t>(
                                  copy.size(), 1)),
                  "us");
    copy.RebuildIndexes();
    std::size_t segment_max = 0;
    for (int label = 0; label < identities; ++label) {
      segment_max = std::max(segment_max, copy.IdsForLabel(label).size());
    }
    report.Metric("linkage.segment_max", static_cast<double>(segment_max),
                  "count");
    std::vector<double> query_us;
    std::vector<linkage::Fingerprint> fps;
    std::vector<int> labels;
    for (const core::MispredictionReport& r : reports) {
      query_us.push_back(TimeUs([&] {
        (void)copy.QueryNearest(r.fingerprint, r.predicted_label, 5);
      }));
      fps.push_back(r.fingerprint);
      labels.push_back(r.predicted_label);
    }
    report.Metric("linkage.query_us", Median(query_us), "us");
    std::vector<double> batch_us;
    for (std::size_t first = 0; first + 64 <= fps.size(); first += 64) {
      const std::vector<linkage::Fingerprint> q(fps.begin() + first,
                                                fps.begin() + first + 64);
      const std::vector<int> l(labels.begin() + first,
                               labels.begin() + first + 64);
      batch_us.push_back(
          TimeUs([&] { (void)copy.QueryNearestBatch(q, l, 5); }) / 64.0);
    }
    report.Metric("linkage.query_batch_us_per_probe",
                  batch_us.empty() ? Median(query_us) : Median(batch_us),
                  "us");

    // nn: the face network's forward pass per layer, batch 1, fast
    // profile (the investigate path).
    nn::Network net =
        nn::Network::DeserializeModel(query->model().SerializeModel());
    const int top = net.SoftmaxIndex() + 1;
    std::vector<std::vector<double>> fwd(static_cast<std::size_t>(top));
    nn::LayerContext ctx;
    ctx.profile = nn::KernelProfile::kFast;
    for (const nn::Image& probe : probes) {
      nn::Batch input(1, probe.shape);
      std::copy(probe.pixels.begin(), probe.pixels.end(), input.Sample(0));
      for (int i = 0; i < top; ++i) {
        fwd[static_cast<std::size_t>(i)].push_back(TimeUs([&] {
          net.ForwardRange(i == 0 ? &input : nullptr, i, i + 1, ctx);
        }));
      }
    }
    for (int i = 0; i < top; ++i) {
      report.Metric("nn.face.L" + std::to_string(i) + ".fwd_us",
                    Median(fwd[static_cast<std::size_t>(i)]), "us");
    }
  }
  RemoveTree(wal_dir);
}

// ------------------------------------------------------ CIFAR mini-round
void CifarRoundReplay(const Options& options, Report& report) {
  const std::size_t per_participant = options.quick ? 64 : 384;
  const data::SyntheticCifar gen;
  Rng rng(options.seed * 37 + 5);
  std::vector<core::Participant> participants;
  for (int p = 0; p < 2; ++p) {
    participants.emplace_back("mini-" + std::to_string(p),
                              gen.Generate(per_participant, rng),
                              options.seed * 37 + 1 + p);
  }
  Stack stack(options.seed, serve::ServiceConfig{});
  for (core::Participant& p : participants) {
    p.Provision(stack.server, stack.server.training_measurement());
    const serve::Result<serve::SessionId> session =
        stack.service.OpenUploadSession(p.id());
    report.Attempt(session.ok());
    if (!session.ok()) continue;
    report.Attempt(
        stack.service.SubmitUpload(session.value(), p.PackRecords()).get().ok());
    report.Attempt(stack.service.CloseUploadSession(session.value()).ok());
  }

  const nn::NetworkSpec spec = nn::Table2Spec(16);
  core::PartitionedTrainOptions train;
  train.epochs = 1;
  train.batch_size = 32;
  train.front_layers = BoundaryFrontLayers(spec);
  train.sgd.learning_rate = 0.02F;
  train.augment = false;
  train.seed = options.seed + 13;
  const serve::Result<core::TrainReport> result =
      stack.service.SubmitTrain(spec, train).get();
  report.Attempt(result.ok());
  if (!result.ok() || result.value().epochs.empty()) {
    report.Check(false, "replay: CIFAR mini-round trains");
    return;
  }
  const core::TrainReport& r = result.value();
  const double batches =
      static_cast<double>(std::max<std::uint64_t>(r.partition.batches, 1));
  const double epochs = static_cast<double>(r.epochs.size());
  report.Metric("core.train_batch_ms", r.epochs.front().seconds * 1e3 *
                                           epochs / batches,
                "ms");
  report.Metric("core.ir_bytes_per_batch",
                static_cast<double>(r.partition.ir_bytes_out) / batches, "B");
  report.Metric("core.delta_bytes_per_batch",
                static_cast<double>(r.partition.delta_bytes_in) / batches,
                "B");
  report.Metric("enclave.epc_faults_per_epoch",
                static_cast<double>(r.epc.page_faults) / epochs, "count");
  report.Metric("enclave.mee_bytes_per_epoch",
                static_cast<double>(r.epc.bytes_encrypted) / epochs, "B");

  serve::Result<std::size_t> db(std::size_t{0});
  const double fingerprint_us =
      TimeUs([&] { db = stack.service.SubmitFingerprint().get(); });
  report.Attempt(db.ok());
  report.Metric("core.fingerprint_s", fingerprint_us / 1e6, "s");

  std::vector<double> release_ms;
  bool assembled = true;
  for (const core::Participant& p : participants) {
    serve::Result<core::TrainingServer::ReleasedModel> released(
        core::TrainingServer::ReleasedModel{});
    release_ms.push_back(
        TimeUs([&] { released = stack.service.SubmitRelease(p.id()).get(); }) /
        1e3);
    report.Attempt(released.ok());
    assembled = assembled && released.ok() &&
                serve::Service::AssembleReleased(released.value(),
                                                 p.data_key())
                    .ok();
  }
  report.Metric("core.release_ms", Median(release_ms), "ms");
  report.Check(assembled, "replay: mini-round releases reassemble");
}

// ------------------------------------------------------ Table II layers
nn::Batch CifarBatch(const data::LabeledDataset& data, std::size_t first,
                     int n, std::vector<int>& labels) {
  nn::Batch batch(n, data.images[0].shape);
  labels.assign(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    const std::size_t src = first + static_cast<std::size_t>(i);
    std::copy(data.images[src].pixels.begin(), data.images[src].pixels.end(),
              batch.Sample(i));
    labels[static_cast<std::size_t>(i)] = data.labels[src];
  }
  return batch;
}

void TableTwoLayers(const Options& options, Report& report) {
  const int n = 32;
  const int reps = options.quick ? 2 : 7;
  const data::SyntheticCifar gen;
  Rng rng(options.seed * 41 + 3);
  const data::LabeledDataset data = gen.Generate(4 * n, rng);
  const nn::NetworkSpec spec = nn::Table2Spec(16);
  const int front = BoundaryFrontLayers(spec);

  nn::Network net = nn::BuildNetwork(spec, rng);
  const int layers = net.NumLayers();
  std::vector<int> labels;
  const nn::Batch batch = CifarBatch(data, 0, n, labels);
  Rng dropout_rng(options.seed + 17);
  const auto ctx_for = [&](int layer) {
    nn::LayerContext ctx;
    ctx.training = true;
    ctx.rng = &dropout_rng;
    ctx.labels = &labels;
    ctx.profile = layer < front ? nn::KernelProfile::kPrecise
                                : nn::KernelProfile::kFast;
    ctx.want_input_grad = layer > 0;
    return ctx;
  };
  nn::SgdConfig sgd;
  sgd.learning_rate = 0.02F;
  const std::size_t count = static_cast<std::size_t>(layers);
  std::vector<std::vector<double>> fwd(count), bwd(count), upd(count);
  for (int rep = 0; rep < reps + 1; ++rep) {  // first rep warms up
    std::vector<double> f(count), b(count), u(count);
    for (int i = 0; i < layers; ++i) {
      f[static_cast<std::size_t>(i)] = TimeUs([&] {
        net.ForwardRange(i == 0 ? &batch : nullptr, i, i + 1, ctx_for(i));
      });
    }
    for (int i = layers - 1; i >= 0; --i) {
      b[static_cast<std::size_t>(i)] =
          TimeUs([&] { net.BackwardRange(i, i + 1, ctx_for(i)); });
    }
    for (int i = 0; i < layers; ++i) {
      u[static_cast<std::size_t>(i)] =
          TimeUs([&] { net.UpdateRange(i, i + 1, sgd, n); });
    }
    if (rep == 0) continue;
    for (std::size_t i = 0; i < count; ++i) {
      fwd[i].push_back(f[i]);
      bwd[i].push_back(b[i]);
      upd[i].push_back(u[i]);
    }
  }
  for (int i = 0; i < layers; ++i) {
    const std::size_t idx = static_cast<std::size_t>(i);
    char prefix[32];
    std::snprintf(prefix, sizeof prefix, "nn.t2.L%02d", i);
    const std::string side = i < front ? "enclave" : "outside";
    report.Metric(std::string(prefix) + ".fwd_us." + side, Median(fwd[idx]),
                  "us");
    report.Metric(std::string(prefix) + ".bwd_us." + side, Median(bwd[idx]),
                  "us");
    const nn::LayerKind kind = net.layer(i).kind();
    if (kind == nn::LayerKind::kConv || kind == nn::LayerKind::kConnected) {
      report.Metric(std::string(prefix) + ".upd_us." + side, Median(upd[idx]),
                    "us");
    }
  }

  // Fig. 6 point: warm TrainBatch at the boundary against FrontNet = 0,
  // interleaved on the same batches, alternating which side runs first.
  Rng init_a(options.seed * 43 + 1);
  Rng init_b(options.seed * 43 + 1);
  nn::Network boundary_net = nn::BuildNetwork(spec, init_a);
  nn::Network baseline_net = nn::BuildNetwork(spec, init_b);
  enclave::EnclaveConfig enclave_config;
  enclave_config.code_identity = BytesOf("perfbench fig6");
  enclave_config.seed = options.seed;
  enclave::Enclave boundary_enclave(enclave_config);
  enclave::Enclave baseline_enclave(enclave_config);
  core::PartitionedTrainer boundary(boundary_net, boundary_enclave, front);
  core::PartitionedTrainer baseline(baseline_net, baseline_enclave, 0);
  std::vector<nn::Batch> batches;
  std::vector<std::vector<int>> batch_labels(4);
  for (std::size_t b = 0; b < 4; ++b) {
    batches.push_back(CifarBatch(data, b * n, n, batch_labels[b]));
  }
  Rng rng_a(options.seed + 23);
  Rng rng_b(options.seed + 23);
  std::vector<double> with_enclave;
  std::vector<double> without;
  const int rounds = options.quick ? 4 : 16;
  for (int r = -2; r < rounds; ++r) {  // two warm-up rounds
    const std::size_t b = static_cast<std::size_t>(r + 2) % batches.size();
    double t_boundary = 0.0;
    double t_baseline = 0.0;
    const auto run_boundary = [&] {
      t_boundary = TimeUs([&] {
        (void)boundary.TrainBatch(batches[b], batch_labels[b], sgd, rng_a);
      });
    };
    const auto run_baseline = [&] {
      t_baseline = TimeUs([&] {
        (void)baseline.TrainBatch(batches[b], batch_labels[b], sgd, rng_b);
      });
    };
    if (r % 2 == 0) {
      run_boundary();
      run_baseline();
    } else {
      run_baseline();
      run_boundary();
    }
    if (r < 0) continue;
    with_enclave.push_back(t_boundary);
    without.push_back(t_baseline);
  }
  const double overhead = Median(with_enclave) / Median(without) - 1.0;
  char line[200];
  std::snprintf(line, sizeof line,
                "fig6 point: TrainBatch %.2f ms at FrontNet=%d vs %.2f ms at "
                "FrontNet=0 -> overhead %+.1f%% (paper: %+.1f%%)",
                Median(with_enclave) / 1e3, front, Median(without) / 1e3,
                overhead * 100.0, kPaperBoundaryOverhead * 100.0);
  report.Info(line);
  report.Metric("core.enclave_overhead", overhead, "ratio");
  report.Check(overhead >= 0.0, "replay: core.enclave_overhead >= 0");
}

// ---------------------------------------------------------- journal I/O
void JournalAppends(const Options& options, Report& report,
                    double wal_bytes_per_record) {
  const std::string dir = options.work_dir + "/replay-journal";
  RemoveTree(dir);
  if (!MakeDirs(dir)) {
    report.Check(false, "replay: cannot create " + dir);
    return;
  }
  // One commit-batch event: ingest_batch (32) records of WAL payload.
  const std::size_t payload_bytes = static_cast<std::size_t>(
      std::max(1.0, wal_bytes_per_record * 32.0));
  const Bytes payload(payload_bytes, std::uint8_t{0x5a});
  std::vector<double> append_us;
  std::vector<double> sync_us;
  {
    auto journal =
        persist::Journal::Open(dir + "/replay.wal", persist::SyncMode::kGroup);
    const int waves = options.quick ? 8 : 64;
    for (int i = 0; i < waves; ++i) {
      append_us.push_back(TimeUs([&] { (void)journal->Append(payload); }));
      sync_us.push_back(TimeUs([&] { journal->Sync(); }));
    }
  }
  RemoveTree(dir);
  report.Metric("persist.append_us", Median(append_us), "us");
  report.Metric("persist.sync_us", Median(sync_us), "us");
}

}  // namespace

void RunLayerReplay(const Options& options, Report& report) {
  report.Info("per-layer replay suite:");
  double wal_bytes_per_record = 0.0;
  try {
    FaceServingReplay(options, report, wal_bytes_per_record);
    CifarRoundReplay(options, report);
    TableTwoLayers(options, report);
    JournalAppends(options, report, wal_bytes_per_record);
  } catch (const std::exception& e) {
    report.Attempt(false);
    report.Check(false, std::string("replay: unexpected error: ") + e.what());
  }
}

}  // namespace perfbench
