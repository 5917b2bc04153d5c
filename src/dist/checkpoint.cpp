#include "dist/checkpoint.hpp"

#include <sstream>
#include <stdexcept>
#include <string_view>

#include "common/assert.hpp"
#include "common/crc32.hpp"
#include "io/sealed.hpp"
#include "sim/checkpoint.hpp"

namespace iba::dist {

namespace {

constexpr std::string_view kShardMagic = "iba-dist-shard";
constexpr std::string_view kQueue = "queue = ";  // queue-line prefix
constexpr std::uint32_t kShardVersion = 1;

[[noreturn]] void fail(const std::string& context,
                       const std::string& message) {
  throw std::runtime_error(context + ": " + message);
}

}  // namespace

std::uint32_t save_shard(const ShardState& shard, const std::string& path) {
  IBA_EXPECT(shard.queues.loads.size() == shard.bin_count,
             "save_shard: queues must hold one load per bin of the range");
  std::ostringstream head;
  head << "round = " << shard.round << '\n';
  head << "bin-lo = " << shard.bin_lo << '\n';
  head << "bin-count = " << shard.bin_count << '\n';
  head << "capacity = " << shard.capacity << '\n';
  const std::string head_text = head.str();
  const sim::QueueLines lines =
      sim::render_queue_lines(shard.queues, kQueue, shard.round);
  const std::string_view body[] = {head_text, lines.view(), "end\n"};
  return io::sealed::commit_header(path, kShardMagic, kShardVersion, body,
                                   "dist shard");
}

ShardState load_shard(const std::string& path) {
  const std::string context = "dist shard";
  const std::string body =
      io::sealed::load_header(path, kShardMagic, kShardVersion, context);
  std::istringstream in(body);
  ShardState shard;
  shard.round = io::sealed::read_field(in, "round", context);
  shard.bin_lo = io::sealed::read_field(in, "bin-lo", context);
  // Every bin is a `queue = ...` line, so the count cannot exceed the
  // body's size; checked before it sizes the queue table.
  shard.bin_count =
      io::sealed::read_field(in, "bin-count", context, body.size());
  const std::uint64_t capacity =
      io::sealed::read_field(in, "capacity", context, 0xFFFFu);
  if (capacity < 1) fail(context, "capacity out of range");
  shard.capacity = static_cast<std::uint32_t>(capacity);
  const auto pos = in.tellg();
  if (pos < 0 || static_cast<std::size_t>(pos) >= body.size() ||
      body[static_cast<std::size_t>(pos)] != '\n') {
    fail(context, "truncated/invalid field: capacity");
  }
  auto at = static_cast<std::size_t>(pos) + 1;
  shard.queues = sim::parse_queue_lines(body, at, shard.bin_count, capacity,
                                        kQueue, context);
  if (std::string_view(body).substr(at) != "end\n") {
    fail(context, "missing end marker");
  }
  shard.crc = common::crc32(body);  // the CRC load_header verified
  return shard;
}

}  // namespace iba::dist
