// Versioned result artifacts — the golden-comparable record of one
// scenario run (docs/SCENARIOS.md).
//
// An artifact is a canonically-serialized text file: fixed field order,
// integers only (exact wait moments, dyadic histogram counts — never a
// rounded double), a format-version header and a CRC-32 trailer binding
// the body. Two runs of the same scenario + seed produce byte-identical
// artifacts regardless of round kernel, shard/thread count, attached
// instruments, or a kill-and-resume in the middle — which is what lets
// CI diff a fresh run against a committed golden with `cmp`.
//
// Everything in the artifact is derived from the simulation's own
// integer state (process counters, snapshot wait state, fault/control
// counters); nothing is read from the telemetry registry, so a run with
// a registry, phase timers or a tracer attached emits the same bytes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace iba::artifact {

/// Artifact format version; bump when canonical_text() changes shape.
inline constexpr std::uint32_t kFormatVersion = 1;

/// One evaluated [expect] bound. `bound` and `observed` are canonical
/// strings (integers or exact rationals like "1234/4096") so the
/// pass/fail evidence itself is platform-deterministic.
struct ExpectationCheck {
  std::string name;
  std::string bound;
  std::string observed;
  bool pass = true;
};

/// The complete result of one scenario run. All accumulators are exact
/// unsigned integers; "measured" fields cover the post-burn-in window.
struct ResultArtifact {
  // -- identity ---------------------------------------------------------
  std::string scenario_name;
  std::string scenario_digest;  ///< Scenario::digest() (8 hex chars)
  std::uint64_t seed = 0;
  std::uint32_t n = 0;
  std::uint32_t capacity_initial = 0;
  std::uint64_t burn_in = 0;
  std::uint64_t rounds = 0;  ///< measured rounds

  // -- lifetime counters (burn-in + measured window) --------------------
  std::uint64_t generated_total = 0;
  std::uint64_t deleted_total = 0;
  std::uint64_t shed_total = 0;
  std::uint64_t deferred_end = 0;  ///< balls still deferred at end

  // -- measured-window per-round accumulators ---------------------------
  std::uint64_t pool_sum = 0;   ///< Σ end-of-round pool sizes
  std::uint64_t pool_min = 0;
  std::uint64_t pool_max = 0;
  std::uint64_t pool_last = 0;
  std::uint64_t load_sum = 0;   ///< Σ end-of-round total loads
  std::uint64_t max_load_peak = 0;
  std::uint64_t empty_bins_last = 0;
  std::uint64_t requeued_sum = 0;
  std::uint64_t faulted_bin_rounds = 0;  ///< Σ per-round faulted bins
  std::uint64_t shed_measured = 0;
  std::uint64_t oldest_age_max = 0;  ///< starvation depth peak

  // -- waiting times over the measured window (exact) -------------------
  std::uint64_t wait_count = 0;
  std::uint64_t wait_sum = 0;
  std::uint64_t wait_sumsq_hi = 0;
  std::uint64_t wait_sumsq_lo = 0;
  std::uint64_t wait_max = 0;
  std::uint64_t wait_p50 = 0;  ///< dyadic upper bound on the median
  std::uint64_t wait_p99 = 0;  ///< dyadic upper bound on the 99th pct
  std::vector<std::uint64_t> wait_histogram;  ///< Log2Histogram counts

  // -- fault injection (present iff the scenario had a schedule) --------
  bool has_faults = false;
  std::uint64_t crashes = 0;
  std::uint64_t repairs = 0;
  std::uint64_t straggler_skips = 0;

  // -- adaptive control (present iff a policy was enabled) --------------
  bool has_control = false;
  std::uint32_t capacity_final = 0;
  std::uint64_t control_changes = 0;
  std::uint64_t control_grows = 0;
  std::uint64_t control_shrinks = 0;

  // -- invariant audit (present iff [expect] audit = on) ----------------
  bool audited = false;
  std::uint64_t audit_rounds = 0;
  std::uint64_t audit_violations = 0;

  // -- evaluated [expect] bounds ----------------------------------------
  std::vector<ExpectationCheck> checks;

  [[nodiscard]] bool all_checks_pass() const noexcept {
    for (const ExpectationCheck& check : checks) {
      if (!check.pass) return false;
    }
    return true;
  }
};

/// The paper's Section V observables of a finished run, derived from the
/// artifact's exact integers — what the CAPPED benches tabulate and what
/// the quickstart and sweet_spot_finder examples report.
struct Observables {
  double pool_mean = 0.0;           ///< Σ pool / measured rounds
  double pool_over_n = 0.0;         ///< the y-axis of Figure 4
  double system_load_over_n = 0.0;  ///< mean (pool + in-bin balls) / n
  double wait_mean = 0.0;           ///< over the measured deletions
  std::uint64_t wait_max = 0;
  std::uint64_t wait_p99 = 0;  ///< dyadic upper bound
  std::uint64_t pool_max = 0;
  std::uint64_t deletions = 0;
};

[[nodiscard]] Observables observables(const ResultArtifact& artifact);

/// The full canonical file content: `iba-artifact <version>` header,
/// fixed-order body, and a trailing `crc32 = <8 hex>` line over
/// everything before it. This is the exact byte sequence written to
/// disk and compared against goldens.
[[nodiscard]] std::string render_artifact(const ResultArtifact& artifact);

/// Commits render_artifact() to `path` (io::sealed::commit). Throws
/// std::runtime_error on IO failure, leaving any previous file intact.
void write_artifact(const ResultArtifact& artifact, const std::string& path);

/// Validates artifact text: header line, version, and the CRC trailer
/// against the body. Throws std::runtime_error naming what is wrong
/// (corruption, truncation, version skew).
void verify_artifact_text(const std::string& text);

/// Reads `path` and verifies it, returning the raw text (for golden
/// comparison). Throws std::runtime_error on IO or validation failure.
[[nodiscard]] std::string read_artifact_text(const std::string& path);

}  // namespace iba::artifact
