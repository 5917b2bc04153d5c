#include "scenario/scenario.hpp"

#include <charconv>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "common/assert.hpp"
#include "common/crc32.hpp"
#include "fault/schedule.hpp"

namespace iba::scenario {

namespace detail {

std::string format_double(double value) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  IBA_ASSERT(ec == std::errc{});
  return std::string(buf, ptr);
}

}  // namespace detail

namespace {

// ---------------------------------------------------------------------------
// Lexing: sections of key = value lines

struct Entry {
  std::string value;
  int line = 0;
  mutable bool used = false;
};

struct Section {
  int line = 0;  ///< line of the [header]
  mutable bool used = false;
  std::map<std::string, Entry> entries;
};

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                        s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

constexpr std::string_view kKnownSections[] = {
    "scenario", "system",  "arrival", "faults",
    "backpressure", "control", "run",     "expect",  "record",
};

bool known_section(std::string_view name) {
  for (const std::string_view known : kKnownSections) {
    if (name == known) return true;
  }
  return false;
}

/// The lexed document plus the diagnostic context (origin path).
class Doc {
 public:
  Doc(std::string_view text, std::string origin) : origin_(std::move(origin)) {
    std::string current;
    int line_no = 0;
    std::size_t pos = 0;
    while (pos <= text.size()) {
      const std::size_t eol = text.find('\n', pos);
      std::string_view line = text.substr(
          pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
      pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
      ++line_no;
      if (const std::size_t hash = line.find('#');
          hash != std::string_view::npos) {
        line = line.substr(0, hash);
      }
      line = trim(line);
      if (line.empty()) continue;
      if (line.front() == '[') {
        if (line.back() != ']' || line.size() < 3) {
          fail_line(line_no, "malformed section header '" +
                                 std::string(line) + "'");
        }
        const auto name = std::string(trim(line.substr(1, line.size() - 2)));
        if (!known_section(name)) {
          fail_line(line_no, "unknown section [" + name + "]");
        }
        if (sections_.contains(name)) {
          fail_line(line_no, "duplicate section [" + name + "]");
        }
        current = name;
        sections_[name].line = line_no;
        continue;
      }
      const std::size_t eq = line.find('=');
      if (eq == std::string_view::npos) {
        fail_line(line_no,
                  "expected 'key = value', got '" + std::string(line) + "'");
      }
      const auto key = std::string(trim(line.substr(0, eq)));
      const auto value = std::string(trim(line.substr(eq + 1)));
      if (current.empty()) {
        fail_line(line_no, "key '" + key + "' before any [section]");
      }
      if (key.empty()) fail_line(line_no, "empty key");
      Section& section = sections_[current];
      if (section.entries.contains(key)) {
        fail(line_no, current, key, "duplicate key");
      }
      section.entries[key] = Entry{value, line_no};
    }
  }

  [[nodiscard]] const Section* find(const std::string& name) const {
    const auto it = sections_.find(name);
    if (it == sections_.end()) return nullptr;
    it->second.used = true;
    return &it->second;
  }

  /// After all sections are consumed: any entry nobody asked about is an
  /// unknown key (reported lowest-line-first for stable diagnostics).
  void finish() const {
    const Entry* worst = nullptr;
    const std::string* worst_section = nullptr;
    const std::string* worst_key = nullptr;
    for (const auto& [section_name, section] : sections_) {
      for (const auto& [key, entry] : section.entries) {
        if (entry.used) continue;
        if (worst == nullptr || entry.line < worst->line) {
          worst = &entry;
          worst_section = &section_name;
          worst_key = &key;
        }
      }
    }
    if (worst != nullptr) {
      fail(worst->line, *worst_section, *worst_key, "unknown key");
    }
  }

  [[noreturn]] void fail_line(int line, const std::string& why) const {
    throw ScenarioError(origin_ + ":" + std::to_string(line) + ": " + why);
  }

  [[noreturn]] void fail(int line, const std::string& section,
                         const std::string& key,
                         const std::string& why) const {
    throw ScenarioError(origin_ + ":" + std::to_string(line) + ": [" +
                        section + "] " + key + ": " + why);
  }

 private:
  std::string origin_;
  std::map<std::string, Section> sections_;
};

// ---------------------------------------------------------------------------
// Typed field access with named-field diagnostics

class Fields {
 public:
  Fields(const Doc& doc, std::string name)
      : doc_(doc), name_(std::move(name)), section_(doc.find(name_)) {}

  [[nodiscard]] bool present() const { return section_ != nullptr; }

  [[nodiscard]] const Entry* find(const std::string& key) const {
    if (section_ == nullptr) return nullptr;
    const auto it = section_->entries.find(key);
    if (it == section_->entries.end()) return nullptr;
    it->second.used = true;
    return &it->second;
  }

  [[nodiscard]] std::optional<std::string> str(const std::string& key) const {
    const Entry* entry = find(key);
    if (entry == nullptr) return std::nullopt;
    if (entry->value.empty()) fail(key, "empty value");
    return entry->value;
  }

  [[nodiscard]] std::string require_str(const std::string& key) const {
    const Entry* entry = find(key);
    if (entry == nullptr) {
      doc_.fail(section_ != nullptr ? section_->line : 0, name_, key,
                "missing required key");
    }
    if (entry->value.empty()) fail(key, "empty value");
    return entry->value;
  }

  [[nodiscard]] std::uint64_t require_u64(const std::string& key,
                                          std::uint64_t lo,
                                          std::uint64_t hi) const {
    return parse_u64(key, require_str(key), lo, hi);
  }

  [[nodiscard]] std::uint64_t u64_or(const std::string& key,
                                     std::uint64_t fallback, std::uint64_t lo,
                                     std::uint64_t hi) const {
    const Entry* entry = find(key);
    if (entry == nullptr) return fallback;
    return parse_u64(key, entry->value, lo, hi);
  }

  [[nodiscard]] std::uint32_t require_u32(const std::string& key,
                                          std::uint32_t lo,
                                          std::uint32_t hi) const {
    return static_cast<std::uint32_t>(require_u64(key, lo, hi));
  }

  [[nodiscard]] std::uint32_t u32_or(const std::string& key,
                                     std::uint32_t fallback, std::uint32_t lo,
                                     std::uint32_t hi) const {
    return static_cast<std::uint32_t>(u64_or(key, fallback, lo, hi));
  }

  [[nodiscard]] double require_dbl(const std::string& key, double lo,
                                   double hi) const {
    return parse_dbl(key, require_str(key), lo, hi);
  }

  [[nodiscard]] double dbl_or(const std::string& key, double fallback,
                              double lo, double hi) const {
    const Entry* entry = find(key);
    if (entry == nullptr) return fallback;
    return parse_dbl(key, entry->value, lo, hi);
  }

  [[nodiscard]] bool flag_or(const std::string& key, bool fallback) const {
    const Entry* entry = find(key);
    if (entry == nullptr) return fallback;
    const std::string& v = entry->value;
    if (v == "on" || v == "true" || v == "yes") return true;
    if (v == "off" || v == "false" || v == "no") return false;
    fail(key, "expected on/off, got '" + v + "'");
  }

  [[noreturn]] void fail(const std::string& key,
                         const std::string& why) const {
    const Entry* entry = find(key);
    doc_.fail(entry != nullptr ? entry->line
                               : (section_ != nullptr ? section_->line : 0),
              name_, key, why);
  }

  [[nodiscard]] std::uint64_t parse_u64(const std::string& key,
                                        const std::string& text,
                                        std::uint64_t lo,
                                        std::uint64_t hi) const {
    std::uint64_t value = 0;
    const auto* begin = text.data();
    const auto* end = begin + text.size();
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc{} || ptr != end) {
      fail(key, "expected an unsigned integer, got '" + text + "'");
    }
    if (value < lo || value > hi) {
      fail(key, "value " + text + " out of range [" + std::to_string(lo) +
                    ", " + std::to_string(hi) + "]");
    }
    return value;
  }

  [[nodiscard]] double parse_dbl(const std::string& key,
                                 const std::string& text, double lo,
                                 double hi) const {
    double value = 0.0;
    const auto* begin = text.data();
    const auto* end = begin + text.size();
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc{} || ptr != end) {
      fail(key, "expected a number, got '" + text + "'");
    }
    if (!(value >= lo && value <= hi)) {
      fail(key, "value " + text + " out of range [" +
                    detail::format_double(lo) + ", " +
                    detail::format_double(hi) + "]");
    }
    return value;
  }

 private:
  const Doc& doc_;
  std::string name_;
  const Section* section_;
};

// ---------------------------------------------------------------------------
// Section processors

void parse_arrival(const Fields& fields, ArrivalModel& model,
                   const std::string& base_dir) {
  const std::string kind = fields.require_str("model");
  if (kind == "constant") {
    model.pattern = ArrivalPattern::kConstant;
  } else if (kind == "sinusoid") {
    model.pattern = ArrivalPattern::kSinusoid;
  } else if (kind == "bursts") {
    model.pattern = ArrivalPattern::kBursts;
  } else if (kind == "regimes") {
    model.pattern = ArrivalPattern::kRegimes;
  } else if (kind == "trace") {
    model.pattern = ArrivalPattern::kTrace;
  } else {
    fields.fail("model",
                "unknown arrival model '" + kind +
                    "' (constant|sinusoid|bursts|regimes|trace)");
  }

  if (const auto dist = fields.str("distribution")) {
    if (*dist == "deterministic") {
      model.distribution = core::ArrivalModel::kDeterministic;
    } else if (*dist == "binomial") {
      model.distribution = core::ArrivalModel::kBinomial;
    } else if (*dist == "poisson") {
      model.distribution = core::ArrivalModel::kPoisson;
    } else {
      fields.fail("distribution",
                  "unknown distribution '" + *dist +
                      "' (deterministic|binomial|poisson)");
    }
  }

  switch (model.pattern) {
    case ArrivalPattern::kConstant:
      model.lambda = fields.require_dbl("lambda", 0.0, 1.0);
      break;
    case ArrivalPattern::kSinusoid:
      model.lambda = fields.require_dbl("lambda", 0.0, 1.0);
      model.amplitude = fields.require_dbl("amplitude", 0.0, 1.0);
      model.period = fields.require_u64("period", 2, UINT64_MAX);
      model.phase = fields.u64_or("phase", 0, 0, UINT64_MAX);
      if (model.lambda + model.amplitude > 1.0) {
        fields.fail("amplitude", "lambda + amplitude exceeds 1");
      }
      if (model.lambda - model.amplitude < 0.0) {
        fields.fail("amplitude", "lambda - amplitude drops below 0");
      }
      break;
    case ArrivalPattern::kBursts:
      model.lambda = fields.require_dbl("lambda", 0.0, 1.0);
      model.burst_lambda = fields.require_dbl("burst-lambda", 0.0, 1.0);
      model.period = fields.require_u64("period", 1, UINT64_MAX);
      model.burst_width =
          fields.require_u64("burst-width", 1, model.period);
      model.burst_start = fields.u64_or("burst-start", 1, 1, UINT64_MAX);
      break;
    case ArrivalPattern::kRegimes: {
      const std::string schedule = fields.require_str("schedule");
      std::uint64_t last = 0;
      std::size_t pos = 0;
      while (pos <= schedule.size()) {
        std::size_t semi = schedule.find(';', pos);
        if (semi == std::string::npos) semi = schedule.size();
        const auto item = std::string(
            trim(std::string_view(schedule).substr(pos, semi - pos)));
        pos = semi + 1;
        if (item.empty()) continue;
        const std::size_t colon = item.find(':');
        if (colon == std::string::npos) {
          fields.fail("schedule", "expected 'round:lambda' items, got '" +
                                      item + "'");
        }
        Regime regime;
        regime.from =
            fields.parse_u64("schedule", item.substr(0, colon), 1, UINT64_MAX);
        regime.lambda =
            fields.parse_dbl("schedule", item.substr(colon + 1), 0.0, 1.0);
        if (model.regimes.empty() && regime.from != 1) {
          fields.fail("schedule", "first regime must start at round 1");
        }
        if (!model.regimes.empty() && regime.from <= last) {
          fields.fail("schedule", "regime rounds must be strictly ascending");
        }
        last = regime.from;
        model.regimes.push_back(regime);
      }
      if (model.regimes.empty()) {
        fields.fail("schedule", "no regimes given");
      }
      break;
    }
    case ArrivalPattern::kTrace: {
      const auto path = fields.str("trace");
      const auto counts = fields.str("counts");
      if (path.has_value() == counts.has_value()) {
        fields.fail(path ? "trace" : "counts",
                    "trace model needs exactly one of trace= (file) or "
                    "counts= (inline list)");
      }
      if (counts) {
        std::size_t pos = 0;
        while (pos <= counts->size()) {
          std::size_t comma = counts->find(',', pos);
          if (comma == std::string::npos) comma = counts->size();
          const auto item = std::string(
              trim(std::string_view(*counts).substr(pos, comma - pos)));
          pos = comma + 1;
          if (item.empty()) continue;
          model.trace.push_back(
              fields.parse_u64("counts", item, 0, UINT64_MAX));
        }
        if (model.trace.empty()) fields.fail("counts", "no counts given");
      } else {
        std::filesystem::path resolved(*path);
        if (resolved.is_relative() && !base_dir.empty()) {
          resolved = std::filesystem::path(base_dir) / resolved;
        }
        std::ifstream in(resolved);
        if (!in) {
          fields.fail("trace",
                      "cannot open trace file '" + resolved.string() + "'");
        }
        std::string token;
        std::uint64_t line_total = 0;
        while (in >> token) {
          if (token.front() == '#') {
            std::string rest;
            std::getline(in, rest);
            continue;
          }
          model.trace.push_back(
              fields.parse_u64("trace", token, 0, UINT64_MAX));
          ++line_total;
        }
        if (model.trace.empty()) {
          fields.fail("trace", "trace file '" + resolved.string() +
                                   "' holds no counts");
        }
        (void)line_total;
      }
      model.trace_loop = fields.flag_or("loop", true);
      break;
    }
  }

  if (const auto skew = fields.str("skew")) {
    if (*skew == "none" || *skew == "uniform") {
      model.skew = BinSkew::kUniform;
    } else if (*skew == "zipf") {
      model.skew = BinSkew::kZipf;
    } else {
      fields.fail("skew", "unknown skew '" + *skew + "' (none|zipf)");
    }
  }
  if (model.skew == BinSkew::kZipf) {
    model.zipf_s = fields.dbl_or("zipf-s", 1.0, 0.0, 8.0);
  } else if (fields.find("zipf-s") != nullptr) {
    fields.fail("zipf-s", "only meaningful with skew = zipf");
  }
}

void parse_faults(const Fields& fields, Scenario& scn) {
  const std::string schedule = fields.require_str("schedule");
  try {
    scn.fault_schedule = fault::to_string(fault::parse_schedule(schedule));
  } catch (const fault::ScheduleError& error) {
    fields.fail("schedule", error.what());
  }
  scn.fault_seed = fields.u64_or("seed", 1, 0, UINT64_MAX);
}

void parse_control(const Fields& fields, control::ControlConfig& config) {
  const std::string policy = fields.require_str("policy");
  if (!control::policy_from_string(policy, config.policy)) {
    fields.fail("policy", "unknown policy '" + policy +
                              "' (none|static|sweet-spot|aimd)");
  }
  config.c_max = fields.u32_or("c-max", 16, 1, 0xFFFFu);
  config.window = fields.u32_or("window", 64, 1, 1u << 16);
  config.cooldown = fields.u32_or("cooldown", 128, 1, UINT32_MAX);
  config.hysteresis = fields.dbl_or("hysteresis", 0.1, 0.0, 1.0);
  config.admission_target =
      fields.u64_or("admission-target", 0, 0, UINT64_MAX);
}

void parse_record(const Fields& fields, RecordSpec& record) {
  record.timeseries = fields.flag_or("timeseries", false);
  record.cadence = fields.u64_or("cadence", 1, 1, UINT64_MAX);
  record.window = fields.u64_or("window", 64, 1, 1u << 20);
  record.shed_spike = fields.u64_or("shed-spike", 0, 0, UINT64_MAX);
}

void parse_expect(const Fields& fields, Expectations& expect) {
  expect.audit = fields.flag_or("audit", false);
  expect.audit_every = fields.u64_or("audit-every", 64, 1, UINT64_MAX);
  if (!expect.audit && fields.find("audit-every") != nullptr) {
    fields.fail("audit-every", "only meaningful with audit = on");
  }
  expect.max_pool_over_n =
      fields.dbl_or("max-pool-over-n", 0.0, 0.0, 1e18);
  expect.max_wait_mean = fields.dbl_or("max-wait-mean", 0.0, 0.0, 1e18);
  expect.max_wait_p99 = fields.u64_or("max-wait-p99", 0, 0, UINT64_MAX);
  expect.max_wait_max = fields.u64_or("max-wait-max", 0, 0, UINT64_MAX);
  expect.max_shed = fields.u64_or("max-shed", UINT64_MAX, 0, UINT64_MAX);
}

}  // namespace

Scenario parse_scenario(std::string_view text, const std::string& origin,
                        const std::string& base_dir) {
  const Doc doc(text, origin.empty() ? "<string>" : origin);
  Scenario scn;

  const Fields meta(doc, "scenario");
  if (meta.present()) {
    if (const auto name = meta.str("name")) scn.name = *name;
    const std::uint64_t version = meta.u64_or("version", 1, 1, 1);
    (void)version;  // range check is the whole point
  }

  const Fields system(doc, "system");
  if (!system.present()) {
    doc.fail_line(1, "missing required section [system]");
  }
  scn.n = system.require_u32("n", 1, 1u << 28);
  scn.capacity = system.require_u32("c", 1, 0xFFFFu);
  if (const auto kernel = system.str("kernel")) {
    if (!core::kernel_from_string(*kernel, scn.kernel)) {
      system.fail("kernel",
                  "unknown kernel '" + *kernel + "' (scalar|bin-major)");
    }
  }
  scn.shards = system.u32_or("shards", 1, 1, 256);
  if (scn.shards > 1 && scn.kernel != core::RoundKernel::kBinMajor) {
    system.fail("shards", "sharding requires kernel = bin-major");
  }

  const Fields arrival(doc, "arrival");
  if (!arrival.present()) {
    doc.fail_line(1, "missing required section [arrival]");
  }
  parse_arrival(arrival, scn.arrival, base_dir);

  const Fields faults(doc, "faults");
  if (faults.present()) parse_faults(faults, scn);

  const Fields backpressure(doc, "backpressure");
  if (backpressure.present()) {
    const std::string mode = backpressure.require_str("mode");
    if (!core::backpressure_from_string(mode, scn.backpressure) ||
        scn.backpressure == core::BackpressureMode::kNone) {
      backpressure.fail("mode",
                        "unknown backpressure mode '" + mode +
                            "' (shed|defer)");
    }
    scn.pool_limit =
        backpressure.require_u64("pool-limit", 1, UINT64_MAX);
    scn.backoff = backpressure.u32_or("backoff", 4, 1, UINT32_MAX);
  }

  const Fields control(doc, "control");
  if (control.present()) parse_control(control, scn.control);
  if (scn.control.enabled()) {
    if (scn.capacity > scn.control.c_max) {
      control.fail("c-max", "system c " + std::to_string(scn.capacity) +
                                " exceeds c-max " +
                                std::to_string(scn.control.c_max));
    }
    if (scn.control.admission_target > 0 &&
        scn.backpressure == core::BackpressureMode::kNone) {
      control.fail("admission-target",
                   "requires a [backpressure] section (shed or defer)");
    }
  }

  const Fields run(doc, "run");
  if (!run.present()) {
    doc.fail_line(1, "missing required section [run]");
  }
  scn.rounds = run.require_u64("rounds", 1, UINT64_MAX);
  scn.burn_in = run.u64_or("burn-in", 0, 0, UINT64_MAX);
  scn.seed = run.u64_or("seed", 1, 0, UINT64_MAX);
  scn.checkpoint_every = run.u64_or("checkpoint-every", 0, 0, UINT64_MAX);

  const Fields expect(doc, "expect");
  if (expect.present()) parse_expect(expect, scn.expect);

  const Fields record(doc, "record");
  if (record.present()) parse_record(record, scn.record);

  doc.finish();

  for (const std::uint64_t count : scn.arrival.trace) {
    if (count > scn.n) {
      arrival.fail(arrival.find("counts") != nullptr ? "counts" : "trace",
                   "trace count " + std::to_string(count) + " exceeds n=" +
                       std::to_string(scn.n) + " (lambda <= 1)");
    }
  }

  // Backstop: the model's own validation (field checks above should have
  // caught everything nameable; anything left still maps to exit 2).
  try {
    scn.arrival.validate(scn.n);
    if (scn.control.enabled()) scn.control.validate();
  } catch (const std::exception& error) {
    throw ScenarioError(origin + ": " + error.what());
  }
  return scn;
}

Scenario load_scenario_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw ScenarioError("cannot open scenario file '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string base_dir =
      std::filesystem::path(path).parent_path().string();
  return parse_scenario(buffer.str(), path, base_dir);
}

// ---------------------------------------------------------------------------
// Canonical rendering

std::string Scenario::canonical_text() const {
  std::ostringstream out;
  const auto dbl = [](double value) { return detail::format_double(value); };

  out << "# canonical scenario v1\n";
  if (!name.empty()) {
    out << "[scenario]\nname = " << name << "\n\n";
  }
  out << "[system]\nn = " << n << "\nc = " << capacity << "\n";

  out << "\n[arrival]\nmodel = " << to_string(arrival.pattern) << "\n";
  out << "distribution = " << core::to_string(arrival.distribution) << "\n";
  switch (arrival.pattern) {
    case ArrivalPattern::kConstant:
      out << "lambda = " << dbl(arrival.lambda) << "\n";
      break;
    case ArrivalPattern::kSinusoid:
      out << "lambda = " << dbl(arrival.lambda) << "\n";
      out << "amplitude = " << dbl(arrival.amplitude) << "\n";
      out << "period = " << arrival.period << "\n";
      out << "phase = " << arrival.phase << "\n";
      break;
    case ArrivalPattern::kBursts:
      out << "lambda = " << dbl(arrival.lambda) << "\n";
      out << "burst-lambda = " << dbl(arrival.burst_lambda) << "\n";
      out << "period = " << arrival.period << "\n";
      out << "burst-width = " << arrival.burst_width << "\n";
      out << "burst-start = " << arrival.burst_start << "\n";
      break;
    case ArrivalPattern::kRegimes: {
      out << "schedule = ";
      for (std::size_t i = 0; i < arrival.regimes.size(); ++i) {
        if (i > 0) out << ";";
        out << arrival.regimes[i].from << ":" << dbl(arrival.regimes[i].lambda);
      }
      out << "\n";
      break;
    }
    case ArrivalPattern::kTrace: {
      // Content, not the file path — two scenarios replaying identical
      // traces from different paths share a digest.
      out << "counts = ";
      for (std::size_t i = 0; i < arrival.trace.size(); ++i) {
        if (i > 0) out << ",";
        out << arrival.trace[i];
      }
      out << "\n";
      out << "loop = " << (arrival.trace_loop ? "on" : "off") << "\n";
      break;
    }
  }
  out << "skew = " << to_string(arrival.skew) << "\n";
  if (arrival.skew == BinSkew::kZipf) {
    out << "zipf-s = " << dbl(arrival.zipf_s) << "\n";
  }

  if (!fault_schedule.empty()) {
    out << "\n[faults]\nschedule = " << fault_schedule << "\n";
    out << "seed = " << fault_seed << "\n";
  }

  if (backpressure != core::BackpressureMode::kNone) {
    out << "\n[backpressure]\nmode = " << core::to_string(backpressure)
        << "\n";
    out << "pool-limit = " << pool_limit << "\n";
    out << "backoff = " << backoff << "\n";
  }

  if (control.enabled()) {
    out << "\n[control]\npolicy = " << control::to_string(control.policy)
        << "\n";
    out << "c-max = " << control.c_max << "\n";
    out << "window = " << control.window << "\n";
    out << "cooldown = " << control.cooldown << "\n";
    out << "hysteresis = " << dbl(control.hysteresis) << "\n";
    out << "admission-target = " << control.admission_target << "\n";
  }

  out << "\n[run]\nrounds = " << rounds << "\nburn-in = " << burn_in
      << "\nseed = " << seed << "\n";

  if (expect.audit || expect.any_bounds()) {
    out << "\n[expect]\n";
    out << "audit = " << (expect.audit ? "on" : "off") << "\n";
    if (expect.audit) out << "audit-every = " << expect.audit_every << "\n";
    if (expect.max_pool_over_n > 0.0) {
      out << "max-pool-over-n = " << dbl(expect.max_pool_over_n) << "\n";
    }
    if (expect.max_wait_mean > 0.0) {
      out << "max-wait-mean = " << dbl(expect.max_wait_mean) << "\n";
    }
    if (expect.max_wait_p99 > 0) {
      out << "max-wait-p99 = " << expect.max_wait_p99 << "\n";
    }
    if (expect.max_wait_max > 0) {
      out << "max-wait-max = " << expect.max_wait_max << "\n";
    }
    if (expect.max_shed != UINT64_MAX) {
      out << "max-shed = " << expect.max_shed << "\n";
    }
  }
  return out.str();
}

std::string Scenario::digest() const {
  return common::crc32_hex(common::crc32(canonical_text()));
}

}  // namespace iba::scenario
