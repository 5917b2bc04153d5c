#include "dist/worker.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <span>
#include <stdexcept>
#include <string>

#include "common/assert.hpp"
#include "dist/checkpoint.hpp"
#include "rng/bounded.hpp"

namespace iba::dist {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error("dist worker: " + message);
}

}  // namespace

bool Worker::run() {
  // A coordinator that dies mid-conversation surfaces as PeerClosed on
  // either direction (reading the next command, or writing a response
  // it will never collect). Both are the routine "hung up" outcome of a
  // kill-and-resume drill, not transport corruption.
  try {
    send_hello(fd_, HelloMsg{kProtocolVersion, index_});
    std::uint32_t type = 0;
    std::vector<std::uint8_t> payload;
    while (net::read_frame(fd_, type, payload)) {
      net::WireReader in(payload);
      switch (type) {
        case kMsgInit:
          handle_init(decode_init(in));
          break;
        case kMsgRound:
          handle_round(decode_round(in));
          break;
        case kMsgCheckpoint:
          handle_checkpoint(decode_checkpoint(in));
          break;
        case kMsgShutdown:
          return true;
        default:
          fail("unexpected message type " + std::to_string(type));
      }
    }
  } catch (const net::PeerClosed&) {
    return false;
  }
  return false;  // coordinator hung up
}

void Worker::handle_init(const InitMsg& msg) {
  if (msg.bin_count == 0 || msg.bin_lo + msg.bin_count > msg.n) {
    fail("init: bin range [" + std::to_string(msg.bin_lo) + ", +" +
         std::to_string(msg.bin_count) + ") does not fit n = " +
         std::to_string(msg.n));
  }
  if (msg.n > 0xFFFFFFFFu) fail("init: n must fit 32 bits");
  if (msg.capacity < 1 || msg.capacity > 0xFFFFu) {
    fail("init: capacity out of range");
  }
  n_ = msg.n;
  bin_lo_ = msg.bin_lo;
  bin_count_ = msg.bin_count;
  round_ = msg.round;

  std::uint32_t storage = msg.capacity;
  std::optional<ShardState> shard;
  if (!msg.resume_shard.empty()) {
    shard = load_shard(msg.resume_shard);
    if (shard->round != msg.round || shard->bin_lo != msg.bin_lo ||
        shard->bin_count != msg.bin_count) {
      fail("init: shard checkpoint " + msg.resume_shard +
           " does not match the assigned range/round");
    }
    // A checkpoint taken mid-shrink can hold queues longer than the
    // (already lowered) acceptance capacity; size the storage to fit —
    // the acceptance bound arrives per round and drains them naturally.
    if (shard->capacity > storage) storage = shard->capacity;
  }
  table_.emplace(static_cast<std::uint32_t>(bin_count_), storage);
  if (shard.has_value()) {
    for (std::uint32_t bin = 0; bin < bin_count_; ++bin) {
      for (const std::uint64_t label : shard->queues[bin]) {
        table_->push(bin, label);
      }
    }
  }
  send_init_ack(fd_, InitAckMsg{round_, table_->total_load()});
}

void Worker::handle_round(const RoundMsg& msg) {
  if (!table_.has_value()) fail("round before init");
  if (msg.round != round_ + 1) {
    fail("round " + std::to_string(msg.round) + " out of order (at " +
         std::to_string(round_) + ")");
  }
  if (msg.capacity > table_->capacity()) {
    table_->grow_capacity(msg.capacity);
  }

  RoundResultMsg result;
  result.round = msg.round;
  result.rejected.resize(msg.buckets.size());

  core::BinChoiceSampler* zipf = nullptr;
  if (msg.sampler == kSamplerZipf) {
    if (!zipf_.has_value() || zipf_->exponent() != msg.zipf_s) {
      zipf_.emplace(static_cast<std::uint32_t>(n_), msg.zipf_s);
    }
    zipf = &*zipf_;
  }

  // Draw the whole round, bucket by bucket in the global visit order
  // (oldest first), in fixed batches: fill_bounded and the Zipf sampler
  // consume the engine stream identically at any batch split, so these
  // are the single-process choices exactly. Acceptance runs on the
  // throws into this range as they are drawn. Each bin accepts while it
  // has room under this round's bound (possibly below a draining bin's
  // current load after a shrink — it then accepts nothing). Acceptance
  // is independent across bins, so visiting only this range's throws
  // reproduces the single-process outcome for these bins exactly.
  core::Engine engine(msg.engine);
  constexpr std::size_t kDrawBatch = 4096;
  std::array<std::uint32_t, kDrawBatch> choices{};
  for (std::size_t b = 0; b < msg.buckets.size(); ++b) {
    const std::uint64_t label = msg.buckets[b].label;
    for (std::uint64_t left = msg.buckets[b].count; left > 0;) {
      const std::span<std::uint32_t> batch(
          choices.data(), std::min<std::uint64_t>(left, kDrawBatch));
      if (zipf != nullptr) {
        zipf->fill(engine, batch);
      } else {
        rng::fill_bounded(engine, batch, static_cast<std::uint32_t>(n_));
      }
      left -= batch.size();
      for (const std::uint32_t choice : batch) {
        const std::uint64_t bin = choice - bin_lo_;
        if (bin >= bin_count_) continue;  // another worker's range
        const auto local = static_cast<std::uint32_t>(bin);
        if (table_->load(local) < msg.capacity) {
          table_->push(local, label);
          ++result.accepted;
        } else {
          ++result.rejected[b];
        }
      }
    }
  }
  result.engine = engine.state();

  // Deletion: every non-empty bin serves its FIFO front; the served
  // ball's wait is its age. Draws nothing — this is what lets deletion
  // run worker-side at all.
  wait_moments_ = stats::UintMoments{};
  wait_histogram_ = stats::Log2Histogram{};
  for (std::uint32_t bin = 0; bin < bin_count_; ++bin) {
    if (table_->load(bin) == 0) continue;
    const std::uint64_t label = table_->pop_front(bin);
    const std::uint64_t wait = msg.round - label;
    wait_moments_.add(wait);
    wait_histogram_.add(wait);
    ++result.deleted;
  }

  result.total_load = table_->total_load();
  result.max_load = table_->max_load();
  result.empty_bins = table_->empty_bins();
  result.wait_count = wait_moments_.count();
  result.wait_sum = wait_moments_.sum();
  result.wait_sumsq_hi = wait_moments_.sumsq_hi();
  result.wait_sumsq_lo = wait_moments_.sumsq_lo();
  result.wait_max = wait_histogram_.max();
  result.wait_histogram = wait_histogram_.counts();

  round_ = msg.round;
  ++rounds_served_;
  send_round_result(fd_, result);
}

void Worker::handle_checkpoint(const CheckpointMsg& msg) {
  if (!table_.has_value()) fail("checkpoint before init");
  if (msg.round != round_) {
    fail("checkpoint round " + std::to_string(msg.round) +
         " does not match completed round " + std::to_string(round_));
  }
  ShardState shard;
  shard.round = round_;
  shard.bin_lo = bin_lo_;
  shard.bin_count = bin_count_;
  shard.capacity = table_->capacity();
  shard.queues.resize(bin_count_);
  for (std::uint32_t bin = 0; bin < bin_count_; ++bin) {
    const std::uint32_t load = table_->load(bin);
    auto& queue = shard.queues[bin];
    queue.reserve(load);
    for (std::uint32_t i = 0; i < load; ++i) {
      queue.push_back(table_->peek(bin, i));
    }
  }
  CheckpointAckMsg ack;
  ack.round = round_;
  ack.crc = save_shard(shard, msg.path);
  ack.balls = table_->total_load();
  send_checkpoint_ack(fd_, ack);
  // The collected generation predates the one the on-disk manifest
  // references, so deleting it is safe at every crash point.
  if (!msg.gc_path.empty()) std::remove(msg.gc_path.c_str());
}

}  // namespace iba::dist
