#include "dist/coordinator.hpp"

#include <cstdio>
#include <utility>

#include "common/assert.hpp"
#include "dist/checkpoint.hpp"
#include "net/socket.hpp"
#include "scenario/arrival.hpp"
#include "sim/checkpoint.hpp"

namespace iba::dist {

Coordinator::Coordinator(const core::CappedConfig& config,
                         core::Engine engine, std::vector<int> worker_fds,
                         const CoordinatorOptions& options, bool defer_init)
    : config_(config), engine_(engine), options_(options) {
  config_.validate();
  validate_dist_config();
  IBA_EXPECT(!worker_fds.empty() && worker_fds.size() <= 0xFFFFu,
             "Coordinator: worker count must lie in [1, 65535]");
  IBA_EXPECT(worker_fds.size() <= config_.n,
             "Coordinator: more workers than bins");
  links_.resize(worker_fds.size());
  // Contiguous ranges, the sharded kernel's convention: the first
  // n % W workers own one extra bin.
  const std::uint64_t workers = worker_fds.size();
  const std::uint64_t base = config_.n / workers;
  const std::uint64_t rem = config_.n % workers;
  for (std::uint64_t w = 0; w < workers; ++w) {
    links_[w].fd = worker_fds[w];  // provisional; hello reorders below
    links_[w].bin_lo = w * base + (w < rem ? w : rem);
    links_[w].bin_count = base + (w < rem ? 1 : 0);
  }
  // The hello handshake must see the fds in accept order, not slot
  // order — keep the raw list around until init maps them.
  if (config_.control.enabled()) {
    controller_ = std::make_unique<control::Controller>(
        config_.control, config_.n, config_.pool_limit);
  }
  if (!defer_init) {
    init_workers("");
  }
}

Coordinator::Coordinator(const core::CappedConfig& config,
                         core::Engine engine, std::vector<int> worker_fds,
                         const CoordinatorOptions& options)
    : Coordinator(config, engine, std::move(worker_fds), options, false) {}

Coordinator::Coordinator(const core::CappedSnapshot& snapshot,
                         std::vector<int> worker_fds,
                         const std::string& resume_base,
                         const CoordinatorOptions& options)
    : Coordinator(snapshot.config, core::Engine(snapshot.engine_state),
                  std::move(worker_fds), options, true) {
  round_ = snapshot.round;
  generated_total_ = snapshot.generated_total;
  deleted_total_ = snapshot.deleted_total;
  for (const auto& bucket : snapshot.pool) {
    pool_.add(bucket.label, bucket.count);
  }
  gate_.restore(snapshot.shed_total, snapshot.deferred);
  waits_.restore(
      stats::UintMoments::from_parts(snapshot.waits.count, snapshot.waits.sum,
                                     snapshot.waits.sumsq_hi,
                                     snapshot.waits.sumsq_lo),
      stats::Log2Histogram::from_counts(snapshot.waits.histogram,
                                        snapshot.waits.max));
  if (controller_ != nullptr) controller_->restore(snapshot.controller);
  last_saved_round_ = round_;  // the generation being resumed from
  init_workers(resume_base);
}

void Coordinator::validate_dist_config() const {
  IBA_EXPECT(config_.failure_probability == 0.0,
             "Coordinator: stochastic bin failures are not distributed "
             "(the failure coins would have to ship per round)");
  IBA_EXPECT(config_.deletion == core::DeletionDiscipline::kFifo,
             "Coordinator: distributed runs require FIFO deletion");
  IBA_EXPECT(config_.acceptance == core::AcceptanceOrder::kOldestFirst,
             "Coordinator: distributed runs require oldest-first "
             "acceptance");
}

void Coordinator::init_workers(const std::string& resume_base) {
  // Hello pass: each connection announces its bin-range slot; map fds
  // to slots, rejecting duplicates and out-of-range indices.
  const std::uint32_t workers = this->workers();
  std::vector<int> fd_of(workers, -1);
  std::vector<std::uint8_t> payload;
  for (std::uint32_t i = 0; i < workers; ++i) {
    const int fd = links_[i].fd;
    read_worker_frame(i, kMsgHello, payload);
    net::WireReader in(payload);
    const HelloMsg hello = decode_hello(in);
    if (hello.version != kProtocolVersion) {
      throw WorkerLost(i, "protocol version " +
                              std::to_string(hello.version) + " (want " +
                              std::to_string(kProtocolVersion) + ")");
    }
    if (hello.worker >= workers || fd_of[hello.worker] != -1) {
      throw WorkerLost(i, "bad or duplicate worker index " +
                              std::to_string(hello.worker));
    }
    fd_of[hello.worker] = fd;
  }
  for (std::uint32_t w = 0; w < workers; ++w) links_[w].fd = fd_of[w];

  for (std::uint32_t w = 0; w < workers; ++w) {
    InitMsg init;
    init.n = config_.n;
    init.bin_lo = links_[w].bin_lo;
    init.bin_count = links_[w].bin_count;
    init.capacity = config_.capacity;
    init.round = round_;
    if (!resume_base.empty()) {
      init.resume_shard = shard_path(resume_base, round_, w);
    }
    try {
      send_init(links_[w].fd, init);
    } catch (const net::PeerClosed&) {
      throw WorkerLost(w, "hung up during init");
    }
  }
  std::uint64_t restored_load = 0;
  for (std::uint32_t w = 0; w < workers; ++w) {
    read_worker_frame(w, kMsgInitAck, payload);
    net::WireReader in(payload);
    const InitAckMsg ack = decode_init_ack(in);
    if (ack.round != round_) {
      throw WorkerLost(w, "init ack for round " + std::to_string(ack.round) +
                              " (want " + std::to_string(round_) + ")");
    }
    restored_load += ack.total_load;
  }
  // Ball conservation across the restored shards: everything ever
  // generated is in the pool, in a bin, deleted, shed, or deferred.
  const std::uint64_t expected = generated_total_ - pool_.total() -
                                 deleted_total_ - gate_.shed_total() -
                                 gate_.deferred_total();
  IBA_EXPECT(restored_load == expected,
             "Coordinator: restored shard load breaks ball conservation");
}

void Coordinator::read_worker_frame(std::uint32_t worker, std::uint32_t want,
                                    std::vector<std::uint8_t>& payload) {
  const int fd = links_[worker].fd;
  if (!net::wait_readable(fd, options_.timeout_ms)) {
    throw WorkerLost(worker, "no response within " +
                                 std::to_string(options_.timeout_ms) +
                                 " ms (crashed or stalled)");
  }
  std::uint32_t type = 0;
  bool open = false;
  try {
    open = net::read_frame(fd, type, payload);
  } catch (const net::PeerClosed&) {
    throw WorkerLost(worker, "connection lost mid-frame");
  } catch (const net::FrameError& error) {
    throw WorkerLost(worker, std::string("frame error: ") + error.what());
  }
  if (!open) throw WorkerLost(worker, "hung up");
  if (type != want) {
    throw WorkerLost(worker, "sent message type " + std::to_string(type) +
                                 " (want " + std::to_string(want) + ")");
  }
}

void Coordinator::apply_control() {
  if (controller_ == nullptr) return;
  const auto decision =
      controller_->decide(round_ + 1, config_.capacity, config_.pool_limit);
  if (!decision) return;
  if (decision->capacity != config_.capacity) {
    IBA_EXPECT(decision->capacity >= 1 && decision->capacity <= 0xFFFFu,
               "Coordinator: capacity must lie in [1, 65535]");
    // Workers widen their storage on demand when the round frame
    // carries a larger bound; shrink is drain-based, as in Capped.
    config_.capacity = decision->capacity;
  }
  if (decision->pool_limit != 0 &&
      decision->pool_limit != config_.pool_limit) {
    config_.pool_limit = decision->pool_limit;
  }
}

core::RoundMetrics Coordinator::step() {
  // Decide → admit → ship the draw, in exactly core::Capped::step()'s
  // order, so the engine consumes the identical stream.
  apply_control();
  const std::uint64_t generated = core::sample_arrivals(config_, engine_);
  const core::Admission adm =
      gate_.admit(config_, round_ + 1, generated, pool_);

  ++round_;
  pool_.add(round_, adm.admitted);
  generated_total_ += generated;

  core::RoundMetrics m;
  m.round = round_;
  m.generated = generated;
  m.shed = adm.shed;
  m.thrown = pool_.total();
  IBA_EXPECT(m.thrown <= kMaxRoundThrows,
             "Coordinator: a round may throw at most 2^40 balls");

  // One frame for every worker: the pre-draw engine state, the sampler
  // and the pool's buckets. Written to all workers before any result is
  // collected, so their draw + accept + delete passes overlap.
  RoundMsg msg;
  msg.round = round_;
  msg.capacity = config_.capacity;
  msg.engine = engine_.state();
  msg.sampler = sampler_;
  msg.zipf_s = zipf_s_;
  msg.buckets.assign(pool_.buckets().begin(), pool_.buckets().end());
  net::WireWriter frame;
  encode_round(msg, frame);
  const std::uint32_t workers = this->workers();
  for (std::uint32_t w = 0; w < workers; ++w) {
    try {
      net::write_frame(links_[w].fd, kMsgRound, frame.span());
    } catch (const net::PeerClosed&) {
      throw WorkerLost(w, "hung up before round " + std::to_string(round_));
    }
  }

  // Collect and merge. Every merged quantity is order-independent
  // (sums, max, exact integer moments, histogram counts), so merging in
  // worker order equals the single process's bin-order accumulation.
  survivors_.clear();
  std::vector<std::uint64_t> rejected(msg.buckets.size(), 0);
  std::uint64_t wait_sum = 0;
  std::vector<std::uint8_t> payload;
  for (std::uint32_t w = 0; w < workers; ++w) {
    read_worker_frame(w, kMsgRoundResult, payload);
    net::WireReader in(payload);
    const RoundResultMsg result = decode_round_result(in);
    if (result.round != round_ ||
        result.rejected.size() != msg.buckets.size()) {
      throw WorkerLost(w, "round result does not match round " +
                              std::to_string(round_));
    }
    // Every worker drew the same round from the same state; a worker
    // that ends elsewhere drew something else.
    if (w == 0) {
      engine_ = core::Engine(result.engine);
    } else if (result.engine != engine_.state()) {
      throw WorkerLost(w, "post-draw engine state differs from worker 0's "
                          "in round " + std::to_string(round_));
    }
    m.accepted += result.accepted;
    m.deleted += result.deleted;
    m.total_load += result.total_load;
    m.max_load = std::max(m.max_load, result.max_load);
    m.empty_bins += static_cast<std::uint32_t>(result.empty_bins);
    m.wait_count += result.wait_count;
    wait_sum += result.wait_sum;
    m.wait_max = std::max(m.wait_max, result.wait_max);
    core::WaitRecorder worker_waits;
    worker_waits.restore(
        stats::UintMoments::from_parts(result.wait_count, result.wait_sum,
                                       result.wait_sumsq_hi,
                                       result.wait_sumsq_lo),
        stats::Log2Histogram::from_counts(result.wait_histogram,
                                          result.wait_max));
    waits_.merge(worker_waits);
    for (std::size_t i = 0; i < rejected.size(); ++i) {
      rejected[i] += result.rejected[i];
    }
  }
  // Per-round wait sums sit far below 2^53, so this double equals the
  // scalar path's per-ball accumulation exactly.
  m.wait_sum = static_cast<double>(wait_sum);

  // Survivors re-added oldest-first (AgedPool's label-order invariant).
  for (std::size_t i = 0; i < msg.buckets.size(); ++i) {
    survivors_.add(msg.buckets[i].label, rejected[i]);
  }
  pool_.swap(survivors_);

  deleted_total_ += m.deleted;
  m.pool_size = pool_.total();
  m.deferred = gate_.deferred_total();
  m.oldest_pool_age = pool_.oldest_age(round_);

  if (controller_ != nullptr) controller_->observe(m);
  return m;
}

core::CappedSnapshot Coordinator::snapshot() const {
  core::CappedSnapshot snap;
  snap.config = config_;
  snap.round = round_;
  snap.generated_total = generated_total_;
  snap.deleted_total = deleted_total_;
  snap.shed_total = gate_.shed_total();
  snap.engine_state = engine_.state();
  snap.pool.assign(pool_.buckets().begin(), pool_.buckets().end());
  snap.deferred.assign(gate_.deferred().begin(), gate_.deferred().end());
  snap.waits = core::wait_state(waits_);
  if (controller_ != nullptr) snap.controller = controller_->state();
  // Bins live in the shard files; n empty queues keep the snapshot
  // well-formed for checkpoint v3 (they serialize compactly).
  snap.bin_queues.resize(config_.n);
  return snap;
}

void Coordinator::set_lambda_n(std::uint64_t lambda_n) {
  IBA_EXPECT(lambda_n <= config_.n,
             "Coordinator: lambda_n must not exceed n (lambda <= 1)");
  config_.lambda_n = lambda_n;
}

void Coordinator::set_bin_sampler(core::BinChoiceSampler* sampler) {
  if (sampler == nullptr) {
    sampler_ = kSamplerUniform;
    zipf_s_ = 0.0;
    return;
  }
  // Workers draw the choices, so they must be able to rebuild the
  // sampler from the round frame: only Zipf ships (as its exponent).
  const auto* zipf = dynamic_cast<const scenario::ZipfBinSampler*>(sampler);
  IBA_EXPECT(zipf != nullptr,
             "Coordinator: distributed runs support uniform and Zipf bin "
             "choice only (a greedy or weighted sampler cannot be rebuilt "
             "by the workers)");
  IBA_EXPECT(zipf->table().size() == config_.n,
             "Coordinator: the Zipf sampler must cover the run's n bins");
  sampler_ = kSamplerZipf;
  zipf_s_ = zipf->exponent();
}

void Coordinator::save_checkpoint(const std::string& base,
                                  const std::string& digest,
                                  std::uint64_t seed) {
  const std::uint32_t workers = this->workers();
  // Shard files first (remote, overlapped), each order carrying the
  // generation-before-last's file as the gc victim — the manifest on
  // disk never references it at any crash point.
  for (std::uint32_t w = 0; w < workers; ++w) {
    CheckpointMsg order;
    order.round = round_;
    order.path = shard_path(base, round_, w);
    if (prev_saved_round_ != kNoGeneration) {
      order.gc_path = shard_path(base, prev_saved_round_, w);
    }
    try {
      send_checkpoint(links_[w].fd, order);
    } catch (const net::PeerClosed&) {
      throw WorkerLost(w, "hung up before checkpoint");
    }
  }
  Manifest manifest;
  manifest.round = round_;
  manifest.n = config_.n;
  manifest.workers = workers;
  manifest.digest = digest;
  manifest.seed = seed;
  manifest.shard_crcs.resize(workers);
  std::uint64_t persisted = 0;
  std::vector<std::uint8_t> payload;
  for (std::uint32_t w = 0; w < workers; ++w) {
    read_worker_frame(w, kMsgCheckpointAck, payload);
    net::WireReader in(payload);
    const CheckpointAckMsg ack = decode_checkpoint_ack(in);
    if (ack.round != round_) {
      throw WorkerLost(w, "checkpoint ack for round " +
                              std::to_string(ack.round) + " (want " +
                              std::to_string(round_) + ")");
    }
    manifest.shard_crcs[w] = ack.crc;
    persisted += ack.balls;
  }
  const std::uint64_t expected = generated_total_ - pool_.total() -
                                 deleted_total_ - gate_.shed_total() -
                                 gate_.deferred_total();
  IBA_EXPECT(persisted == expected,
             "Coordinator: persisted shard load breaks ball conservation");

  sim::save_checkpoint(snapshot(), coord_path(base, round_));
  if (prev_saved_round_ != kNoGeneration) {
    const std::string stale = coord_path(base, prev_saved_round_);
    std::remove(stale.c_str());
    // The runner parks its progress sidecar beside the generation's
    // coordinator file; collect it with the same deferral.
    std::remove((stale + ".progress").c_str());
  }

  // Commit point: only now does any reader see this generation.
  save_manifest(manifest, manifest_path(base));
  prev_saved_round_ = last_saved_round_;
  last_saved_round_ = round_;
}

void Coordinator::shutdown() noexcept {
  for (const Link& link : links_) {
    if (link.fd < 0) continue;
    try {
      send_shutdown(link.fd);
    } catch (...) {
      // Best-effort: a worker that already died is someone else's exit.
    }
  }
}

}  // namespace iba::dist
