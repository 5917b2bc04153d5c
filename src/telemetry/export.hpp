// Registry exporters: Prometheus text exposition and JSON-lines
// snapshots, both built on the io layer and both deterministic — metrics
// are emitted in name order with fixed number formatting, so identical
// registries produce identical bytes.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "telemetry/phase_timers.hpp"
#include "telemetry/registry.hpp"

namespace iba::telemetry {

/// Prometheus text exposition (one `# TYPE` header per metric; dyadic
/// histograms become cumulative `_bucket{le=...}` series plus `_sum` and
/// `_count`). Metric names are prefixed with "iba_" and sanitized to the
/// Prometheus charset.
void write_prometheus(const Registry& registry, std::ostream& out);

/// One JSON object on a single line: {"counters":{...},"gauges":{...},
/// "histograms":{...}} followed by '\n'. Appending one line per call
/// yields a JSON-lines stream of snapshots.
void write_json_line(const Registry& registry, std::ostream& out);

/// Writes one snapshot to `path`, choosing the format by extension:
/// .json/.jsonl → JSON lines, anything else (.prom, .txt) → Prometheus
/// text. The file is replaced whole through io::sealed::commit, so a
/// reader never sees a partial snapshot. Returns false when the commit
/// fails (e.g. an unwritable directory); `path` is then left as it was.
bool write_snapshot_file(const Registry& registry, const std::string& path);

/// Folds phase-timer totals into `registry` as counters
/// (phase_<name>_ns_total / _balls_total / _calls_total), so exporters
/// carry the per-phase timing alongside the simulation metrics. Note the
/// ns counters are wall-clock: merging them stays deterministic, but
/// re-running a workload will not reproduce them byte-for-byte.
void record_phase_timers(Registry& registry, const PhaseTimers& timers);

/// Replaces every character outside [a-zA-Z0-9_:] with '_' (and prefixes
/// '_' when the name starts with a digit).
[[nodiscard]] std::string sanitize_metric_name(std::string_view name);

/// Per-phase profile text for the scrape server's GET /profile: one line
/// per phase with accumulated ns, balls, calls and ns-per-ball (%.10g).
/// Wall-clock derived — diffable across scrapes, not across machines.
[[nodiscard]] std::string render_profile_text(const PhaseTimers& timers);

}  // namespace iba::telemetry
