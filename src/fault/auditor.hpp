// InvariantAuditor — online safety checker for CAPPED trajectories
// (docs/ROBUSTNESS.md). Attached to a run, it re-derives the process
// invariants from public state after each round and flags the first
// round in which any of them breaks:
//
//   * ball conservation:  generated == pool + deferred + load + deleted
//                         + shed (cumulative, exact integers)
//   * bounded buffers:    load(i) <= capacity for every bin; under
//                         adaptive control a post-shrink bin may sit
//                         above the (new) capacity while it drains, but
//                         never above control.c_max, and the overfull
//                         load must be monotone non-increasing
//   * FIFO age order:     buffered labels are non-decreasing front to
//                         back — checked only where it is a true
//                         invariant: capacity <= 2, FIFO deletion,
//                         oldest-first acceptance, no requeues and no
//                         fault plan. Outside that regime a retrying
//                         old ball can legitimately sit behind a
//                         younger resident (see the guard below).
//   * causality:          no buffered or pooled label exceeds the round
//   * monotone counters:  rounds advance by one; cumulative totals never
//                         decrease; per-round wait count equals deletes
//
// Cheap checks (O(1) on RoundMetrics) run every round. Deep checks
// (O(n + load)) run every `cadence` rounds — cadence 1 is the debug
// setting, large cadences make the auditor affordable in benchmarks
// (bench_fault_recovery measures the overhead; budget is <= 5%).
//
// Violations are recorded (bounded), counted in the telemetry registry
// (`audit_violations_total`, `audit_rounds_total`, `audit_deep_total`),
// and the FIRST violation is emitted through the structured log as an
// `invariant_violation` error event. The auditor never throws and never
// mutates the process: a broken run keeps running so the operator sees
// the full blast radius.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/capped.hpp"
#include "core/metrics.hpp"
#include "telemetry/log.hpp"
#include "telemetry/registry.hpp"

namespace iba::fault {

class InvariantAuditor {
 public:
  struct Violation {
    std::uint64_t round = 0;
    std::string invariant;  ///< short machine-friendly name
    std::string detail;     ///< human-readable expectation vs. observation
  };

  /// `cadence`: deep checks run when round % cadence == 0 (>= 1).
  /// `registry`: optional; violation/audit counters land there.
  explicit InvariantAuditor(std::uint64_t cadence = 1,
                            telemetry::Registry* registry = nullptr)
      : cadence_(cadence == 0 ? 1 : cadence), registry_(registry) {}

  /// Audits one completed round. Call right after the process produced
  /// `m` for that round.
  void observe(const core::Capped& process, const core::RoundMetrics& m) {
    ++rounds_audited_;
    if (registry_ != nullptr) {
      registry_->counter("audit_rounds_total").inc();
    }

    // -- cheap checks: counters only ---------------------------------
    if (last_round_ != 0 && m.round != last_round_ + 1) {
      report(m.round, "round_monotone",
             "rounds must advance by one: saw round " +
                 std::to_string(m.round) + " after " +
                 std::to_string(last_round_));
    }
    last_round_ = m.round;
    if (m.round != process.round()) {
      report(m.round, "round_coherent",
             "metrics round " + std::to_string(m.round) +
                 " != process round " + std::to_string(process.round()));
    }
    if (m.wait_count != m.deleted) {
      report(m.round, "wait_per_delete",
             "every deleted ball records one wait: deleted=" +
                 std::to_string(m.deleted) +
                 " wait_count=" + std::to_string(m.wait_count));
    }
    if (m.accepted > m.thrown) {
      report(m.round, "accept_bound",
             "accepted=" + std::to_string(m.accepted) + " exceeds thrown=" +
                 std::to_string(m.thrown));
    }
    check_monotone(m.round, "generated_total", process.generated_total(),
                   last_generated_);
    check_monotone(m.round, "deleted_total", process.deleted_total(),
                   last_deleted_);
    check_monotone(m.round, "shed_total", process.shed_total(), last_shed_);
    if (m.requeued > 0) requeues_seen_ = true;

    if (m.round % cadence_ != 0) return;

    // -- deep checks: O(n + load) over public state ------------------
    ++deep_audits_;
    if (registry_ != nullptr) {
      registry_->counter("audit_deep_total").inc();
    }

    const std::uint64_t stored =
        process.pool_size() + process.deferred_total() + process.total_load() +
        process.deleted_total() + process.shed_total();
    if (process.generated_total() != stored) {
      report(m.round, "conservation",
             "generated_total=" + std::to_string(process.generated_total()) +
                 " != pool+deferred+load+deleted+shed=" +
                 std::to_string(stored));
    }

    // Age monotonicity inside a bin is only an invariant when a queue
    // can never carry balls accepted in different rounds: a retrying
    // old ball is legitimately accepted *behind* a younger resident
    // (oldest-first ranks only the balls thrown to the bin that round).
    // With capacity <= 2 and FIFO service every nonempty bin deletes
    // one ball per round, so end-of-round load >= 2 forces a
    // single-round batch (which ascends); capacity >= 3, requeues, or a
    // fault plan that suppresses service all break that premise.
    const bool check_fifo =
        !requeues_seen_ && !process.has_fault_plan() &&
        !process.config().control.enabled() && process.capacity() <= 2 &&
        process.config().deletion == core::DeletionDiscipline::kFifo &&
        process.config().acceptance == core::AcceptanceOrder::kOldestFirst;
    // Dynamic-capacity invariant (adaptive control): after a shrink a
    // bin may legitimately hold more than the current capacity while it
    // drains, but (a) never more than control.c_max or than it held at
    // the previous deep audit, and (b) the excess must shrink
    // monotonically — an overfull bin accepts nothing, so its load can
    // only go down. A broken shrink (bin keeps accepting while
    // overfull) trips `capacity_drain` here.
    const bool dynamic_capacity = process.config().control.enabled();
    if (dynamic_capacity && prev_overfull_.size() != process.n()) {
      prev_overfull_.assign(process.n(), 0);
    }
    std::uint64_t load_sum = 0;
    for (std::uint32_t bin = 0; bin < process.n(); ++bin) {
      const std::uint64_t load = process.load(bin);
      load_sum += load;
      if (load > process.capacity()) {
        if (!dynamic_capacity) {
          report(m.round, "capacity_bound",
                 "bin " + std::to_string(bin) + " holds " +
                     std::to_string(load) + " > capacity " +
                     std::to_string(process.capacity()));
          continue;
        }
        const std::uint64_t ceiling = process.config().control.c_max;
        const std::uint64_t prev = prev_overfull_[bin];
        if (load > ceiling) {
          report(m.round, "capacity_bound",
                 "bin " + std::to_string(bin) + " holds " +
                     std::to_string(load) + " > control.c_max " +
                     std::to_string(ceiling));
        } else if (prev != 0 && load > prev) {
          report(m.round, "capacity_drain",
                 "overfull bin " + std::to_string(bin) + " grew " +
                     std::to_string(prev) + " -> " + std::to_string(load) +
                     " above capacity " +
                     std::to_string(process.capacity()) +
                     " (drain must be monotone)");
        }
        prev_overfull_[bin] = load;
        continue;
      }
      if (dynamic_capacity && prev_overfull_[bin] != 0) {
        prev_overfull_[bin] = 0;  // drained back under the bound
      }
      std::uint64_t prev = 0;
      for (std::uint64_t i = 0; i < load; ++i) {
        const std::uint64_t label = process.bin_label(bin, i);
        if (label > m.round) {
          report(m.round, "causality",
                 "bin " + std::to_string(bin) + " slot " + std::to_string(i) +
                     " carries label " + std::to_string(label) +
                     " from the future");
          break;
        }
        if (check_fifo && i > 0 && label < prev) {
          report(m.round, "fifo_order",
                 "bin " + std::to_string(bin) + " slot " + std::to_string(i) +
                     " label " + std::to_string(label) +
                     " younger than predecessor " + std::to_string(prev));
          break;
        }
        prev = label;
      }
    }
    if (load_sum != process.total_load()) {
      report(m.round, "load_coherent",
             "sum of bin loads " + std::to_string(load_sum) +
                 " != total_load " + std::to_string(process.total_load()));
    }

    std::uint64_t prev_label = 0;
    bool first = true;
    for (const auto& bucket : process.pool().buckets()) {
      if (!first && bucket.label <= prev_label) {
        report(m.round, "pool_order",
               "pool buckets not strictly label-ordered at label " +
                   std::to_string(bucket.label));
        break;
      }
      if (bucket.label > m.round) {
        report(m.round, "causality",
               "pool bucket labelled " + std::to_string(bucket.label) +
                   " from the future");
        break;
      }
      prev_label = bucket.label;
      first = false;
    }
  }

  [[nodiscard]] bool ok() const noexcept { return violation_count_ == 0; }
  [[nodiscard]] std::uint64_t violation_count() const noexcept {
    return violation_count_;
  }
  /// First kMaxRecorded violations, in order of detection.
  [[nodiscard]] const std::vector<Violation>& violations() const noexcept {
    return violations_;
  }
  [[nodiscard]] std::uint64_t rounds_audited() const noexcept {
    return rounds_audited_;
  }
  [[nodiscard]] std::uint64_t deep_audits() const noexcept {
    return deep_audits_;
  }
  [[nodiscard]] std::uint64_t cadence() const noexcept { return cadence_; }

  static constexpr std::size_t kMaxRecorded = 64;

 private:
  void check_monotone(std::uint64_t round, const char* what,
                      std::uint64_t now, std::uint64_t& last) {
    if (now < last) {
      report(round, "counter_monotone",
             std::string(what) + " decreased: " + std::to_string(last) +
                 " -> " + std::to_string(now));
    }
    last = now;
  }

  void report(std::uint64_t round, std::string invariant, std::string detail) {
    ++violation_count_;
    if (registry_ != nullptr) {
      registry_->counter("audit_violations_total").inc();
    }
    if (violation_count_ == 1) {
      telemetry::log_error("invariant_violation",
                           {{"round", round},
                            {"invariant", std::string_view(invariant)},
                            {"detail", std::string_view(detail)}});
    }
    if (violations_.size() < kMaxRecorded) {
      violations_.push_back({round, std::move(invariant), std::move(detail)});
    }
  }

  std::uint64_t cadence_;
  telemetry::Registry* registry_;
  std::uint64_t last_round_ = 0;
  std::uint64_t last_generated_ = 0;
  std::uint64_t last_deleted_ = 0;
  std::uint64_t last_shed_ = 0;
  bool requeues_seen_ = false;
  /// Per-bin load at the previous deep audit while above the current
  /// capacity (0 = was not overfull). Sized lazily, only under control.
  std::vector<std::uint64_t> prev_overfull_;
  std::uint64_t rounds_audited_ = 0;
  std::uint64_t deep_audits_ = 0;
  std::uint64_t violation_count_ = 0;
  std::vector<Violation> violations_;
};

}  // namespace iba::fault
