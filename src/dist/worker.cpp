#include "dist/worker.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <span>
#include <stdexcept>
#include <string>

#include "common/assert.hpp"
#include "dist/checkpoint.hpp"

namespace iba::dist {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error("dist worker: " + message);
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point from,
                         std::chrono::steady_clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
          .count());
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
  // n first, so the range test below cannot wrap.
  if (msg.n > 0xFFFFFFFFu) fail("init: n must fit 32 bits");
  if (msg.bin_count == 0 || msg.bin_count > msg.n ||
      msg.bin_lo > msg.n - msg.bin_count) {
    fail("init: bin range [" + std::to_string(msg.bin_lo) + ", +" +
         std::to_string(msg.bin_count) + ") does not fit n = " +
         std::to_string(msg.n));
  }
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
  const auto bins = static_cast<std::uint32_t>(bin_count_);
  table_.emplace(bins, storage, &arena_);
  if (shard.has_value()) table_->restore(shard->queues);
  regions_.shape(1, bins);
  send_init_ack(fd_, InitAckMsg{round_, table_->total_load(),
                                shard.has_value() ? shard->crc : 0});
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

  core::BinChoiceSampler* zipf = nullptr;
  if (msg.sampler == kSamplerZipf) {
    if (!zipf_.has_value() || zipf_->exponent() != msg.zipf_s) {
      zipf_.emplace(static_cast<std::uint32_t>(n_), msg.zipf_s);
    }
    zipf = &*zipf_;
  }

  // Redraw the whole round, bucket by bucket in the global visit order
  // (oldest first), keeping this range's throws: the single-process
  // choices exactly. Each throw must still be drawn, since the range's
  // throws are spread over the whole stream, but a range narrower than
  // n keeps them without a branch per throw (draw_slice compacts each
  // batch first). Regions fit a uniform draw with 1/8 to spare. The
  // draw is a pure function of the shipped state, so a round that
  // overflows one (a skewed draw) is drawn again into regions widened to
  // its counts.
  bucket_ends_.clear();
  std::uint64_t throws = 0;
  for (const auto& bucket : msg.buckets) {
    throws += bucket.count;
    bucket_ends_.push_back(throws);
  }
  const auto t_draw = std::chrono::steady_clock::now();
  const core::ThrowSlice all{.hi = throws, .bucket_hi = msg.buckets.size()};
  regions_.widen_uniform({&all, 1}, static_cast<std::uint32_t>(n_));
  core::Engine engine(msg.engine);
  do {
    regions_.rewind();
    engine = core::Engine(msg.engine);
    kept_throws_ = core::draw_slice(regions_, 0, all, bucket_ends_, engine,
                                    zipf, static_cast<std::uint32_t>(n_),
                                    static_cast<std::uint32_t>(bin_lo_));
  } while (!regions_.fit());
  const auto t_sweep = std::chrono::steady_clock::now();

  // The range kernel, once over the whole range: each bin accepts while
  // it has room under this round's bound (none, for a bin still
  // draining after a shrink), then every non-empty bin serves its FIFO
  // front. Acceptance is independent across bins, so this range's
  // throws alone reproduce the single-process outcome for its bins, and
  // FIFO service draws nothing, which is what lets it run worker-side.
  const core::RangeRound range{
      .bins = &*table_, .round = msg.round, .part = regions_.data(),
      .stream_begin = regions_.begins(), .stream_end = regions_.cursors(),
      .row = regions_.row(), .slices = {&all, 1}, .buckets = msg.buckets,
      .capacity = msg.capacity};
  sweep_.reset(msg.buckets.size());
  core::sweep_chunks(range, sweep_, 0, regions_.chunks(), true);
  table_->adjust_total_load(static_cast<std::int64_t>(sweep_.accepted) -
                            static_cast<std::int64_t>(sweep_.waits.count()));
  const auto t_done = std::chrono::steady_clock::now();
  draw_ns_ += elapsed_ns(t_draw, t_sweep);
  sweep_ns_ += elapsed_ns(t_sweep, t_done);

  round_ = msg.round;
  ++rounds_served_;
  send_round_result(
      fd_, {.round = msg.round, .engine = engine.state(),
            .accepted = sweep_.accepted, .deleted = sweep_.waits.count(),
            .total_load = table_->total_load(), .max_load = sweep_.max_load,
            .empty_bins = sweep_.empty_bins,
            .waits = core::wait_state(sweep_.waits),
            .rejected = sweep_.rejected});
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
  shard.queues = table_->queues();
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
