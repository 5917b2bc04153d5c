#include "dist/coordinator.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "net/socket.hpp"
#include "scenario/arrival.hpp"
#include "sim/checkpoint.hpp"

namespace iba::dist {

Coordinator::Coordinator(core::PoolSide side, std::vector<int> worker_fds,
                         const CoordinatorOptions& options)
    : side_(std::move(side)), options_(options) {
  IBA_EXPECT(side_.config().failure_probability == 0.0,
             "Coordinator: stochastic bin failures are not distributed "
             "(the failure coins would have to ship per round)");
  IBA_EXPECT(side_.config().deletion == core::DeletionDiscipline::kFifo,
             "Coordinator: distributed runs require FIFO deletion");
  IBA_EXPECT(side_.config().acceptance == core::AcceptanceOrder::kOldestFirst,
             "Coordinator: distributed runs require oldest-first "
             "acceptance");
  IBA_EXPECT(!worker_fds.empty() && worker_fds.size() <= 0xFFFFu,
             "Coordinator: worker count must lie in [1, 65535]");
  IBA_EXPECT(worker_fds.size() <= n(),
             "Coordinator: more workers than bins");
  links_.resize(worker_fds.size());
  // Contiguous ranges, the sharded kernel's convention: the first
  // n % W workers own one extra bin. The hello handshake then maps the
  // fds, which arrive in accept order, to their slots.
  const std::uint64_t workers = worker_fds.size();
  const std::uint64_t base = n() / workers;
  const std::uint64_t rem = n() % workers;
  for (std::uint64_t w = 0; w < workers; ++w) {
    links_[w].fd = worker_fds[w];  // provisional; hello reorders below
    links_[w].bin_lo = w * base + (w < rem ? w : rem);
    links_[w].bin_count = base + (w < rem ? 1 : 0);
  }
}

Coordinator::Coordinator(const core::CappedConfig& config,
                         core::Engine engine, std::vector<int> worker_fds,
                         const CoordinatorOptions& options)
    : Coordinator(core::PoolSide(config, engine), std::move(worker_fds),
                  options) {
  init_workers("", {});
}

Coordinator::Coordinator(const core::CappedSnapshot& snapshot,
                         std::vector<int> worker_fds,
                         const std::string& resume_base,
                         const std::vector<std::uint32_t>& shard_crcs,
                         const CoordinatorOptions& options)
    : Coordinator(core::PoolSide(snapshot), std::move(worker_fds), options) {
  IBA_EXPECT(shard_crcs.size() == workers(),
             "Coordinator: need one committed shard CRC per worker");
  init_workers(resume_base, shard_crcs);
}

void Coordinator::init_workers(const std::string& resume_base,
                               const std::vector<std::uint32_t>& shard_crcs) {
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
    init.n = n();
    init.bin_lo = links_[w].bin_lo;
    init.bin_count = links_[w].bin_count;
    init.capacity = side_.config().capacity;
    init.round = round();
    if (!resume_base.empty()) {
      init.resume_shard = sim::shard_path(resume_base, round(), w);
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
    if (ack.round != round()) {
      throw WorkerLost(w, "init ack for round " + std::to_string(ack.round) +
                              " (want " + std::to_string(round()) + ")");
    }
    // A shard that loads and balances can still be another generation's
    // or a rewritten one: only the committed body is this generation.
    if (!resume_base.empty() && ack.shard_crc != shard_crcs[w]) {
      throw WorkerLost(w, "shard " + sim::shard_path(resume_base, round(), w) +
                              " has body CRC " +
                              std::to_string(ack.shard_crc) +
                              ", the manifest committed " +
                              std::to_string(shard_crcs[w]));
    }
    restored_load += ack.total_load;
  }
  IBA_EXPECT(restored_load == side_.bin_load(),
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

core::RoundMetrics Coordinator::step() {
  // The pool side opens the round exactly as core::Capped::step() does,
  // so the engine consumes the identical stream.
  core::RoundMetrics m = side_.open_round();
  IBA_EXPECT(m.thrown <= kMaxRoundThrows,
             "Coordinator: a round may throw at most 2^40 balls");

  // One frame for every worker: the pre-draw engine state, the sampler
  // and the pool's buckets. Written to all workers before any result is
  // collected, so their draw + accept + delete passes overlap.
  RoundMsg msg;
  msg.round = m.round;
  msg.capacity = side_.config().capacity;
  msg.engine = side_.engine().state();
  msg.sampler = sampler_;
  msg.zipf_s = zipf_s_;
  msg.buckets.assign(side_.pool().buckets().begin(),
                     side_.pool().buckets().end());
  net::WireWriter frame;
  encode_round(msg, frame);
  const std::uint32_t workers = this->workers();
  for (std::uint32_t w = 0; w < workers; ++w) {
    try {
      net::write_frame(links_[w].fd, kMsgRound, frame.span());
    } catch (const net::PeerClosed&) {
      throw WorkerLost(w, "hung up before round " + std::to_string(m.round));
    }
  }

  // Collect and merge. Every merged quantity is order-independent
  // (sums, max, exact integer moments, histogram counts), so merging in
  // worker order equals the single process's bin-order accumulation.
  std::vector<std::uint64_t> rejected(msg.buckets.size(), 0);
  std::uint64_t wait_sum = 0;
  std::vector<std::uint8_t> payload;
  for (std::uint32_t w = 0; w < workers; ++w) {
    read_worker_frame(w, kMsgRoundResult, payload);
    net::WireReader in(payload);
    const RoundResultMsg result = decode_round_result(in);
    if (result.round != m.round ||
        result.rejected.size() != msg.buckets.size()) {
      throw WorkerLost(w, "round result does not match round " +
                              std::to_string(m.round));
    }
    // Every worker drew the same round from the same state; a worker
    // that ends elsewhere drew something else.
    if (w == 0) {
      side_.engine() = core::Engine(result.engine);
    } else if (result.engine != side_.engine().state()) {
      throw WorkerLost(w, "post-draw engine state differs from worker 0's "
                          "in round " + std::to_string(m.round));
    }
    m.accepted += result.accepted;
    m.deleted += result.deleted;
    m.total_load += result.total_load;
    m.max_load = std::max(m.max_load, result.max_load);
    m.empty_bins += static_cast<std::uint32_t>(result.empty_bins);
    m.wait_count += result.waits.count;
    wait_sum += result.waits.sum;
    m.wait_max = std::max(m.wait_max, result.waits.max);
    side_.waits().merge(core::wait_recorder(result.waits));
    for (std::size_t i = 0; i < rejected.size(); ++i) {
      rejected[i] += result.rejected[i];
    }
  }
  // Per-round wait sums sit far below 2^53, so this double equals the
  // scalar path's per-ball accumulation exactly.
  m.wait_sum = static_cast<double>(wait_sum);
  side_.close_round(m, rejected, {});
  return m;
}

core::CappedSnapshot Coordinator::snapshot() const {
  core::CappedSnapshot snap = side_.snapshot();
  // Bins live in the shard files; n zero loads keep the snapshot
  // well-formed for checkpoint v3 (they serialize compactly).
  snap.bins.loads.assign(n(), 0);
  return snap;
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
  IBA_EXPECT(zipf->table().size() == n(),
             "Coordinator: the Zipf sampler must cover the run's n bins");
  sampler_ = kSamplerZipf;
  zipf_s_ = zipf->exponent();
}

sim::Manifest Coordinator::save_checkpoint(const std::string& base,
                                           const std::string& digest,
                                           std::uint64_t seed,
                                           std::uint64_t collect_round) {
  const std::uint32_t workers = this->workers();
  // Shard files first (remote, overlapped), each order carrying the
  // collected generation's file as the gc victim — the manifest on disk
  // never references it at any crash point.
  for (std::uint32_t w = 0; w < workers; ++w) {
    CheckpointMsg order;
    order.round = round();
    order.path = sim::shard_path(base, round(), w);
    if (collect_round != 0) {
      order.gc_path = sim::shard_path(base, collect_round, w);
    }
    try {
      send_checkpoint(links_[w].fd, order);
    } catch (const net::PeerClosed&) {
      throw WorkerLost(w, "hung up before checkpoint");
    }
  }
  sim::Manifest manifest{round(), n(), workers, digest, seed};
  manifest.shard_crcs.resize(workers);
  std::uint64_t persisted = 0;
  std::vector<std::uint8_t> payload;
  for (std::uint32_t w = 0; w < workers; ++w) {
    read_worker_frame(w, kMsgCheckpointAck, payload);
    net::WireReader in(payload);
    const CheckpointAckMsg ack = decode_checkpoint_ack(in);
    if (ack.round != round()) {
      throw WorkerLost(w, "checkpoint ack for round " +
                              std::to_string(ack.round) + " (want " +
                              std::to_string(round()) + ")");
    }
    manifest.shard_crcs[w] = ack.crc;
    persisted += ack.balls;
  }
  IBA_EXPECT(persisted == side_.bin_load(),
             "Coordinator: persisted shard load breaks ball conservation");
  manifest.coord_crc =
      sim::save_checkpoint(snapshot(), sim::coord_path(base, round()));
  return manifest;
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
