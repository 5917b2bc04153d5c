// Wire protocol of the distributed engine: the message vocabulary the
// coordinator and its workers exchange as net:: frames (docs/
// DISTRIBUTED.md).
//
// Topology and determinism: the coordinator owns the master engine, the
// pool, backpressure and the control plane, and runs control, arrivals
// and admission exactly like a single-process run. Workers own their
// contiguous bin range. A round's bin-choice draw is a pure function of
// the engine state at the start of the draw and the pool's (label,
// count) buckets — every pool ball picks its bin independently — so the
// coordinator ships exactly that (kRound: 32 bytes of xoshiro state,
// the sampler, 16 bytes per bucket) and every worker redraws the whole
// round, keeping only the throws that land in its range. Workers then
// run acceptance + FIFO deletion on their bins and return exact-integer
// deltas plus the engine state after the draw (kRoundResult). The
// coordinator requires all post-draw states to agree, adopts that state
// and merges the deltas order-independently, so the merged trajectory
// is byte-identical to the single-process kernel by construction.
//
// The round protocol is synchronous (one kRound → one kRoundResult per
// worker per round), so the coordinator's poll deadline on each
// expected response doubles as the heartbeat: a crashed or stalled
// worker surfaces as a timeout or EOF on the very next message.
//
// Encoding: every message is one frame (net/frame.hpp); payloads are
// fixed-width little-endian scalars via WireWriter/WireReader, so the
// bytes are platform-independent. Decoders bounds-check every field and
// reject trailing bytes.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "queueing/aged_pool.hpp"

namespace iba::dist {

inline constexpr std::uint32_t kProtocolVersion = 2;

/// Frame types. Values are wire format — append, never renumber.
enum MsgType : std::uint32_t {
  kMsgHello = 1,          ///< worker → coordinator, on connect
  kMsgInit = 2,           ///< coordinator → worker: bin range + resume
  kMsgInitAck = 3,        ///< worker → coordinator: range loaded
  kMsgRound = 4,          ///< coordinator → worker: one round's draw
  kMsgRoundResult = 5,    ///< worker → coordinator: round deltas
  kMsgCheckpoint = 6,     ///< coordinator → worker: persist your range
  kMsgCheckpointAck = 7,  ///< worker → coordinator: shard written
  kMsgShutdown = 8,       ///< coordinator → worker: clean exit
};

/// Worker introduction: protocol version + which bin-range index this
/// connection serves (workers connect in arbitrary order over TCP).
struct HelloMsg {
  std::uint32_t version = kProtocolVersion;
  std::uint32_t worker = 0;
};

/// Assigns a worker its contiguous bin range [bin_lo, bin_lo+bin_count)
/// of the global n, sized for `capacity` slots per bin. `round` is the
/// last completed round; a non-empty `resume_shard` names the shard
/// checkpoint whose state (taken at exactly that round) the worker must
/// load before serving.
struct InitMsg {
  std::uint64_t n = 0;
  std::uint64_t bin_lo = 0;
  std::uint64_t bin_count = 0;
  std::uint32_t capacity = 1;
  std::uint64_t round = 0;
  std::string resume_shard;
};

struct InitAckMsg {
  std::uint64_t round = 0;       ///< echoed init round
  std::uint64_t total_load = 0;  ///< balls restored into the range
};

/// How a round's pool balls pick their bin (RoundMsg::sampler). Values
/// are wire format. Uniform is its own tag, not Zipf with s = 0: the
/// s = 0 alias table draws a different stream than fill_bounded.
enum SamplerTag : std::uint32_t {
  kSamplerUniform = 0,  ///< rng::fill_bounded over [0, n)
  kSamplerZipf = 1,     ///< scenario::ZipfBinSampler(n, zipf_s)
};

/// Ceiling on a round frame's Σ counts. Each count orders that many
/// draws on every worker, so a corrupt count must not order unbounded
/// work; 2^40 balls is 256 times the largest n (2^32 − 1), far beyond
/// any pool a run of this engine holds.
inline constexpr std::uint64_t kMaxRoundThrows = std::uint64_t{1} << 40;

/// One round's draw, identical for every worker. `engine` is the
/// master engine's xoshiro256++ state after control, arrivals and
/// admission — the start of the draw. `buckets` is the pool after
/// admission, oldest first (strictly ascending labels, newest = round):
/// the draw assigns the choices to the buckets' balls in that order.
struct RoundMsg {
  std::uint64_t round = 0;     ///< the round being executed
  std::uint32_t capacity = 0;  ///< acceptance bound c this round
  std::array<std::uint64_t, 4> engine{};
  std::uint32_t sampler = kSamplerUniform;  ///< a SamplerTag
  double zipf_s = 0.0;                      ///< kSamplerZipf only
  std::vector<queueing::AgedPool::Bucket> buckets;
};

/// A worker's exact per-round deltas. Sums and the wait moments are
/// order-independent integers, so the coordinator's merge is identical
/// to a single process having visited the bins in any order.
struct RoundResultMsg {
  std::uint64_t round = 0;
  std::array<std::uint64_t, 4> engine{};  ///< the state after the draw
  std::uint64_t accepted = 0;
  std::uint64_t deleted = 0;
  std::uint64_t total_load = 0;  ///< end-of-round, this range
  std::uint64_t max_load = 0;
  std::uint64_t empty_bins = 0;
  // This round's wait-moment delta (stats::UintMoments parts + dyadic
  // histogram counts + max), merged exactly on the coordinator.
  std::uint64_t wait_count = 0;
  std::uint64_t wait_sum = 0;
  std::uint64_t wait_sumsq_hi = 0;
  std::uint64_t wait_sumsq_lo = 0;
  std::uint64_t wait_max = 0;
  std::vector<std::uint64_t> wait_histogram;
  std::vector<std::uint64_t> rejected;  ///< per bucket, survivors
};

/// Orders a shard checkpoint: write the range's state (at the just-
/// completed `round`) atomically to `path`. `gc_path` names an obsolete
/// shard file from two checkpoint generations back, safe to delete once
/// the new file is durable ("" = nothing to collect) — the manifest on
/// disk never references it at any crash point.
struct CheckpointMsg {
  std::uint64_t round = 0;
  std::string path;
  std::string gc_path;
};

struct CheckpointAckMsg {
  std::uint64_t round = 0;
  std::uint32_t crc = 0;    ///< CRC-32 of the shard body written
  std::uint64_t balls = 0;  ///< balls persisted (conservation echo)
};

// -- frame I/O --------------------------------------------------------
// Each send_* writes exactly one frame; the caller reads a frame with
// net::read_frame and decodes its payload with decode_*. A round frame
// is encoded once (encode_round) and written to every worker.

void send_hello(int fd, const HelloMsg& msg);
void send_init(int fd, const InitMsg& msg);
void send_init_ack(int fd, const InitAckMsg& msg);
void encode_round(const RoundMsg& msg, net::WireWriter& out);
void send_round_result(int fd, const RoundResultMsg& msg);
void send_checkpoint(int fd, const CheckpointMsg& msg);
void send_checkpoint_ack(int fd, const CheckpointAckMsg& msg);
void send_shutdown(int fd);

[[nodiscard]] HelloMsg decode_hello(net::WireReader& in);
[[nodiscard]] InitMsg decode_init(net::WireReader& in);
[[nodiscard]] InitAckMsg decode_init_ack(net::WireReader& in);
/// Rejects as net::FrameError what would order unbounded or undefined
/// work: a capacity outside [1, 65535], labels not strictly ascending
/// or above the round, a zero count, Σ counts above kMaxRoundThrows,
/// the all-zero engine state, an unknown sampler tag and a Zipf
/// exponent outside [0, 8].
[[nodiscard]] RoundMsg decode_round(net::WireReader& in);
[[nodiscard]] RoundResultMsg decode_round_result(net::WireReader& in);
[[nodiscard]] CheckpointMsg decode_checkpoint(net::WireReader& in);
[[nodiscard]] CheckpointAckMsg decode_checkpoint_ack(net::WireReader& in);

}  // namespace iba::dist
