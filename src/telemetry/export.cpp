#include "telemetry/export.hpp"

#include <cctype>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "io/json.hpp"
#include "io/sealed.hpp"

namespace iba::telemetry {

namespace {

constexpr std::string_view kPrefix = "iba_";

/// Fixed double formatting shared with io::JsonWriter ("%.10g"), so both
/// exporters agree and output is reproducible.
std::string format_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

void prometheus_histogram(std::ostream& out, const std::string& name,
                          const DyadicHistogram& histogram) {
  out << "# TYPE " << name << " histogram\n";
  const stats::Log2Histogram& buckets = histogram.buckets();
  std::uint64_t cumulative = 0;
  for (std::size_t bin = 0; bin < buckets.bin_count(); ++bin) {
    cumulative += buckets.count(bin);
    // Integer values in bin k are <= bin_hi(k)*2^shift - 1.
    out << name << "_bucket{le=\""
        << ((stats::Log2Histogram::bin_hi(bin) << histogram.shift()) - 1)
        << "\"} " << cumulative << '\n';
  }
  out << name << "_bucket{le=\"+Inf\"} " << histogram.count() << '\n';
  out << name << "_sum " << format_double(histogram.sum()) << '\n';
  out << name << "_count " << histogram.count() << '\n';
}

}  // namespace

std::string sanitize_metric_name(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  if (!name.empty() && std::isdigit(static_cast<unsigned char>(name[0]))) {
    out += '_';
  }
  for (const char ch : name) {
    const auto uch = static_cast<unsigned char>(ch);
    out += (std::isalnum(uch) || ch == '_' || ch == ':') ? ch : '_';
  }
  return out;
}

void write_prometheus(const Registry& registry, std::ostream& out) {
  for (const auto& [name, counter] : registry.counters()) {
    const std::string full = std::string(kPrefix) + sanitize_metric_name(name);
    out << "# TYPE " << full << " counter\n"
        << full << ' ' << counter.value() << '\n';
  }
  for (const auto& [name, gauge] : registry.gauges()) {
    const std::string full = std::string(kPrefix) + sanitize_metric_name(name);
    out << "# TYPE " << full << " gauge\n"
        << full << ' ' << format_double(gauge.value()) << '\n';
  }
  for (const auto& [name, histogram] : registry.histograms()) {
    prometheus_histogram(
        out, std::string(kPrefix) + sanitize_metric_name(name), histogram);
  }
}

void write_json_line(const Registry& registry, std::ostream& out) {
  io::JsonWriter json(out);
  json.begin_object();
  json.key("counters").begin_object();
  for (const auto& [name, counter] : registry.counters()) {
    json.key(name).value(counter.value());
  }
  json.end_object();
  json.key("gauges").begin_object();
  for (const auto& [name, gauge] : registry.gauges()) {
    json.key(name)
        .begin_object()
        .key("value")
        .value(gauge.value())
        .key("max")
        .value(gauge.max())
        .end_object();
  }
  json.end_object();
  json.key("histograms").begin_object();
  for (const auto& [name, histogram] : registry.histograms()) {
    json.key(name).begin_object();
    json.key("count").value(histogram.count());
    json.key("sum").value(histogram.sum());
    json.key("max").value(histogram.max());
    json.key("buckets").begin_array();
    const stats::Log2Histogram& buckets = histogram.buckets();
    for (std::size_t bin = 0; bin < buckets.bin_count(); ++bin) {
      if (buckets.count(bin) == 0) continue;
      json.begin_object()
          .key("le")
          .value((stats::Log2Histogram::bin_hi(bin) << histogram.shift()) - 1)
          .key("count")
          .value(buckets.count(bin))
          .end_object();
    }
    json.end_array().end_object();
  }
  json.end_object();
  json.end_object();
  out << '\n';
}

bool write_snapshot_file(const Registry& registry, const std::string& path) {
  std::ostringstream out;
  const auto dot = path.rfind('.');
  const std::string ext = dot == std::string::npos ? "" : path.substr(dot);
  if (ext == ".json" || ext == ".jsonl") {
    write_json_line(registry, out);
  } else {
    write_prometheus(registry, out);
  }
  try {
    io::sealed::commit(path, out.str(), "telemetry snapshot");
  } catch (const std::runtime_error&) {
    return false;
  }
  return true;
}

void record_phase_timers(Registry& registry, const PhaseTimers& timers) {
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const auto phase = static_cast<Phase>(i);
    if (timers.calls(phase) == 0) continue;
    const std::string base = std::string("phase_") + phase_name(phase);
    registry.counter(base + "_ns_total").inc(timers.ns(phase));
    registry.counter(base + "_balls_total").inc(timers.balls(phase));
    registry.counter(base + "_calls_total").inc(timers.calls(phase));
  }
}

std::string render_profile_text(const PhaseTimers& timers) {
  std::ostringstream out;
  out << "iba-profile 1\n";
  char buf[64];
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const auto phase = static_cast<Phase>(i);
    std::snprintf(buf, sizeof(buf), "%.10g", timers.ns_per_ball(phase));
    out << "phase " << phase_name(phase) << " ns = " << timers.ns(phase)
        << " balls = " << timers.balls(phase)
        << " calls = " << timers.calls(phase) << " ns-per-ball = " << buf
        << '\n';
  }
  return out.str();
}

}  // namespace iba::telemetry
