#include "dist/protocol.hpp"

#include <bit>
#include <string>

namespace iba::dist {

namespace {

void write_state(net::WireWriter& out,
                 const std::array<std::uint64_t, 4>& state) {
  for (const std::uint64_t word : state) out.u64(word);
}

/// xoshiro's one forbidden state (all zero) never leaves it, so a frame
/// carrying it is corrupt.
std::array<std::uint64_t, 4> read_state(net::WireReader& in,
                                        const char* what) {
  std::array<std::uint64_t, 4> state{};
  for (std::uint64_t& word : state) word = in.u64(what);
  if (state == std::array<std::uint64_t, 4>{}) {
    throw net::FrameError(std::string("frame: all-zero engine state at ") +
                          what);
  }
  return state;
}

[[noreturn]] void reject_round(const std::string& what) {
  throw net::FrameError("frame: round: " + what);
}

}  // namespace

void send_hello(int fd, const HelloMsg& msg) {
  net::WireWriter out;
  out.u32(msg.version);
  out.u32(msg.worker);
  net::write_frame(fd, kMsgHello, out.span());
}

HelloMsg decode_hello(net::WireReader& in) {
  HelloMsg msg;
  msg.version = in.u32("hello.version");
  msg.worker = in.u32("hello.worker");
  in.expect_end("hello");
  return msg;
}

void send_init(int fd, const InitMsg& msg) {
  net::WireWriter out;
  out.u64(msg.n);
  out.u64(msg.bin_lo);
  out.u64(msg.bin_count);
  out.u32(msg.capacity);
  out.u64(msg.round);
  out.str(msg.resume_shard);
  net::write_frame(fd, kMsgInit, out.span());
}

InitMsg decode_init(net::WireReader& in) {
  InitMsg msg;
  msg.n = in.u64("init.n");
  msg.bin_lo = in.u64("init.bin_lo");
  msg.bin_count = in.u64("init.bin_count");
  msg.capacity = in.u32("init.capacity");
  msg.round = in.u64("init.round");
  msg.resume_shard = in.str("init.resume_shard");
  in.expect_end("init");
  return msg;
}

void send_init_ack(int fd, const InitAckMsg& msg) {
  net::WireWriter out;
  out.u64(msg.round);
  out.u64(msg.total_load);
  net::write_frame(fd, kMsgInitAck, out.span());
}

InitAckMsg decode_init_ack(net::WireReader& in) {
  InitAckMsg msg;
  msg.round = in.u64("init_ack.round");
  msg.total_load = in.u64("init_ack.total_load");
  in.expect_end("init_ack");
  return msg;
}

void encode_round(const RoundMsg& msg, net::WireWriter& out) {
  out.reserve(72 + msg.buckets.size() * 16);
  out.u64(msg.round);
  out.u32(msg.capacity);
  write_state(out, msg.engine);
  out.u32(msg.sampler);
  if (msg.sampler == kSamplerZipf) {
    out.u64(std::bit_cast<std::uint64_t>(msg.zipf_s));
  }
  out.u32(static_cast<std::uint32_t>(msg.buckets.size()));
  for (const auto& bucket : msg.buckets) {
    out.u64(bucket.label);
    out.u64(bucket.count);
  }
}

RoundMsg decode_round(net::WireReader& in) {
  RoundMsg msg;
  msg.round = in.u64("round.round");
  msg.capacity = in.u32("round.capacity");
  if (msg.capacity < 1 || msg.capacity > 0xFFFFu) {
    reject_round("capacity outside [1, 65535]");
  }
  msg.engine = read_state(in, "round.engine");
  msg.sampler = in.u32("round.sampler");
  if (msg.sampler == kSamplerZipf) {
    msg.zipf_s = std::bit_cast<double>(in.u64("round.zipf_s"));
    if (!(msg.zipf_s >= 0.0 && msg.zipf_s <= 8.0)) {
      reject_round("Zipf exponent outside [0, 8]");
    }
  } else if (msg.sampler != kSamplerUniform) {
    reject_round("unknown sampler tag " + std::to_string(msg.sampler));
  }
  const std::uint32_t buckets = in.u32("round.buckets");
  if (buckets > in.remaining() / 16) {
    throw net::FrameError("frame: truncated payload at round.bucket");
  }
  msg.buckets.resize(buckets);
  std::uint64_t throws = 0;
  for (std::uint32_t b = 0; b < buckets; ++b) {
    auto& bucket = msg.buckets[b];
    bucket.label = in.u64("round.label");
    bucket.count = in.u64("round.count");
    if (bucket.label > msg.round ||
        (b > 0 && bucket.label <= msg.buckets[b - 1].label)) {
      reject_round("labels must ascend strictly up to the round");
    }
    if (bucket.count == 0) reject_round("zero bucket count");
    if (bucket.count > kMaxRoundThrows - throws) {
      reject_round("more than 2^40 throws");
    }
    throws += bucket.count;
  }
  in.expect_end("round");
  return msg;
}

void send_round_result(int fd, const RoundResultMsg& msg) {
  net::WireWriter out;
  out.u64(msg.round);
  write_state(out, msg.engine);
  out.u64(msg.accepted);
  out.u64(msg.deleted);
  out.u64(msg.total_load);
  out.u64(msg.max_load);
  out.u64(msg.empty_bins);
  out.u64(msg.wait_count);
  out.u64(msg.wait_sum);
  out.u64(msg.wait_sumsq_hi);
  out.u64(msg.wait_sumsq_lo);
  out.u64(msg.wait_max);
  out.u64_vec(msg.wait_histogram);
  out.u64_vec(msg.rejected);
  net::write_frame(fd, kMsgRoundResult, out.span());
}

RoundResultMsg decode_round_result(net::WireReader& in) {
  RoundResultMsg msg;
  msg.round = in.u64("result.round");
  msg.engine = read_state(in, "result.engine");
  msg.accepted = in.u64("result.accepted");
  msg.deleted = in.u64("result.deleted");
  msg.total_load = in.u64("result.total_load");
  msg.max_load = in.u64("result.max_load");
  msg.empty_bins = in.u64("result.empty_bins");
  msg.wait_count = in.u64("result.wait_count");
  msg.wait_sum = in.u64("result.wait_sum");
  msg.wait_sumsq_hi = in.u64("result.wait_sumsq_hi");
  msg.wait_sumsq_lo = in.u64("result.wait_sumsq_lo");
  msg.wait_max = in.u64("result.wait_max");
  msg.wait_histogram = in.u64_vec("result.wait_histogram");
  msg.rejected = in.u64_vec("result.rejected");
  in.expect_end("result");
  return msg;
}

void send_checkpoint(int fd, const CheckpointMsg& msg) {
  net::WireWriter out;
  out.u64(msg.round);
  out.str(msg.path);
  out.str(msg.gc_path);
  net::write_frame(fd, kMsgCheckpoint, out.span());
}

CheckpointMsg decode_checkpoint(net::WireReader& in) {
  CheckpointMsg msg;
  msg.round = in.u64("checkpoint.round");
  msg.path = in.str("checkpoint.path");
  msg.gc_path = in.str("checkpoint.gc_path");
  in.expect_end("checkpoint");
  return msg;
}

void send_checkpoint_ack(int fd, const CheckpointAckMsg& msg) {
  net::WireWriter out;
  out.u64(msg.round);
  out.u32(msg.crc);
  out.u64(msg.balls);
  net::write_frame(fd, kMsgCheckpointAck, out.span());
}

CheckpointAckMsg decode_checkpoint_ack(net::WireReader& in) {
  CheckpointAckMsg msg;
  msg.round = in.u64("checkpoint_ack.round");
  msg.crc = in.u32("checkpoint_ack.crc");
  msg.balls = in.u64("checkpoint_ack.balls");
  in.expect_end("checkpoint_ack");
  return msg;
}

void send_shutdown(int fd) {
  net::write_frame(fd, kMsgShutdown, {});
}

}  // namespace iba::dist
