// Checkpoint persistence: save/restore a CAPPED process to/from disk so
// very long experiments (the paper's guarantees hold "at any, even
// exponentially large, time") can be split across invocations with a
// bit-identical continuation.
//
// Format v3 (docs/ROBUSTNESS.md, docs/CONTROL.md):
//  * line-oriented text body — trivially inspectable and diff-able —
//    carrying the full CappedSnapshot (config incl. kernel/shards/
//    backpressure and the adaptive-control configuration, engine, pool,
//    deferred arrivals, bin queues, cumulative wait statistics, and —
//    when control is enabled — the controller state: estimator rings,
//    policy memory, cooldown and admission limit, so a run killed
//    mid-adaptation, including mid-shrink drain, resumes bit-for-bit)
//    plus, optionally, the attached FaultPlan's dynamic state;
//  * the bins as `bins <n>` and one line per bin, `<load> <label>...`,
//    labels front-first: the queue-line codec below, which dist shard
//    files share. A save renders the snapshot's flat BinQueues into
//    one buffer sized by a digit-count bound and commits the body as
//    three pieces (head, queue lines, tail) without concatenating them;
//  * the header envelope `iba-checkpoint 3 <crc32> <bytes>` of
//    io/sealed.hpp binding the body with a CRC32 and its exact length,
//    so truncated or bit-flipped files are rejected before any field is
//    parsed; other versions are rejected by name;
//  * crash-safe writes through io::sealed::commit — a crash mid-save
//    leaves the previous checkpoint intact.
//
// Loaders throw std::runtime_error whose message names the offending
// field ("truncated/invalid field: <name>", "CRC mismatch", ...); CLI
// front-ends map this to a non-zero exit without crashing.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>

#include "core/capped.hpp"
#include "fault/fault_plan.hpp"
#include "queueing/bin_table.hpp"

namespace iba::sim {

/// Rendered queue lines: an uninitialised buffer of which the first
/// `size` bytes were written.
struct QueueLines {
  std::unique_ptr<char[]> bytes;
  std::size_t size = 0;

  [[nodiscard]] std::string_view view() const noexcept {
    return {bytes.get(), size};
  }
};

/// The queue-line codec of checkpoint bodies (no prefix) and dist shard
/// files (`queue = `): one line per bin, `<prefix><load>[ <label>]...\n`,
/// labels front-first. `max_label` bounds every label — labels are
/// arrival rounds, so the saved round does — and sizes the buffer at
/// digits(max_label) + 1 bytes per label. Throws ContractViolation
/// unless the labels number Σ loads and none exceeds `max_label`.
[[nodiscard]] QueueLines render_queue_lines(const queueing::BinQueues& queues,
                                            std::string_view prefix,
                                            std::uint64_t max_label);

/// Parses `bins` lines of render_queue_lines(…, prefix) from `text` at
/// `at` and advances `at` past them. Throws std::runtime_error prefixed
/// with `context` on a missing prefix, a malformed or out-of-range
/// "queue length", a load above `max_load` ("queue longer than
/// capacity"), a missing "queue label" or a line with labels past its
/// length — so the loads and labels it returns always agree.
[[nodiscard]] queueing::BinQueues parse_queue_lines(
    std::string_view text, std::size_t& at, std::size_t bins,
    std::size_t max_load, std::string_view prefix, const std::string& context);

/// Everything a resumed run needs: the process snapshot plus, when a
/// fault plan was attached, the plan's dynamic state (the schedule text
/// itself travels in `fault_schedule` so resume can rebuild the plan).
struct Checkpoint {
  core::CappedSnapshot snapshot;
  bool has_fault_state = false;
  std::string fault_schedule;  ///< canonical schedule text (may be "")
  std::uint64_t fault_seed = 0;
  fault::FaultPlan::State fault_state;
};

/// Atomically writes `checkpoint` to `path` (io::sealed::commit) and
/// returns the body's CRC-32. Throws std::runtime_error on IO failure;
/// `path` keeps its previous content in that case.
std::uint32_t save_checkpoint(const Checkpoint& checkpoint,
                              const std::string& path);

/// Convenience: snapshot-only checkpoint (no fault plan attached).
std::uint32_t save_checkpoint(const core::CappedSnapshot& snapshot,
                              const std::string& path);

/// Reads and validates a checkpoint. Throws std::runtime_error on IO
/// errors, bad magic, unsupported version, CRC/length mismatch, or any
/// malformed field (the message names it).
[[nodiscard]] Checkpoint load_checkpoint_full(const std::string& path);

/// Convenience: loads just the process snapshot. Throws additionally
/// when the file carries fault-plan state (the caller would silently
/// drop it — use load_checkpoint_full).
[[nodiscard]] core::CappedSnapshot load_checkpoint(const std::string& path);

}  // namespace iba::sim
