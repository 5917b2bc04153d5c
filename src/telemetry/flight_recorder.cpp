#include "telemetry/flight_recorder.hpp"

#include <sstream>
#include <stdexcept>

#include "io/sealed.hpp"

namespace iba::telemetry {

namespace {

constexpr std::string_view kMagic = "iba-postmortem";
constexpr std::uint32_t kBundleVersion = 1;
constexpr const char* kContext = "postmortem";

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error(std::string(kContext) + ": " + message);
}

std::string decision_line(const RecordedDecision& d) {
  std::ostringstream out;
  out << "round " << d.round << " capacity " << d.old_capacity << " -> "
      << d.new_capacity << " pool-limit " << d.old_pool_limit << " -> "
      << d.new_pool_limit << " lambda-micro " << d.lambda_hat_micro;
  return out.str();
}

std::string event_line(const RecordedEvent& e) {
  std::ostringstream out;
  out << "round " << e.round << ' ' << e.kind << ' ' << e.detail;
  return out.str();
}

/// Strips newlines so a hostile detail cannot forge bundle structure.
std::string one_line(std::string text) {
  for (char& c : text) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return text;
}

}  // namespace

const char* trigger_name(TriggerKind kind) noexcept {
  constexpr const char* kNames[kTriggerKindCount] = {
      "auditor-violation", "expectation-failure", "shed-spike",
      "resume-mismatch", "manual"};
  return kNames[static_cast<std::size_t>(kind)];
}

bool trigger_from_name(const std::string& name, TriggerKind& kind) noexcept {
  for (std::size_t i = 0; i < kTriggerKindCount; ++i) {
    if (name == trigger_name(static_cast<TriggerKind>(i))) {
      kind = static_cast<TriggerKind>(i);
      return true;
    }
  }
  return false;
}

FlightRecorder::FlightRecorder(FlightRecorderConfig config)
    : config_(config) {
  if (config_.window == 0) fail("window must be at least 1");
}

void FlightRecorder::set_context(std::string scenario_name,
                                 std::string digest, std::uint64_t seed,
                                 std::uint64_t n) {
  scenario_name_ = one_line(std::move(scenario_name));
  digest_ = one_line(std::move(digest));
  seed_ = seed;
  n_ = n;
}

void FlightRecorder::note_decision(const RecordedDecision& decision) {
  decisions_.push_back(decision);
  while (decisions_.size() > config_.max_decisions) decisions_.pop_front();
}

void FlightRecorder::note_event(std::uint64_t round, std::string kind,
                                std::string detail) {
  events_.push_back(
      {round, one_line(std::move(kind)), one_line(std::move(detail))});
  while (events_.size() > config_.max_events) events_.pop_front();
}

bool FlightRecorder::trigger(TriggerKind kind, std::uint64_t round,
                             const std::string& detail) {
  note_event(round, std::string("trigger:") + trigger_name(kind), detail);
  if (triggered_) return false;
  triggered_ = true;
  kind_ = kind;
  trigger_round_ = round;
  trigger_detail_ = one_line(detail);
  return true;
}

std::string FlightRecorder::render_bundle() const {
  if (!triggered_) fail("render_bundle requires a latched trigger");
  std::ostringstream out;
  out << "trigger = " << trigger_name(kind_) << '\n';
  out << "round = " << trigger_round_ << '\n';
  out << "detail = " << trigger_detail_ << '\n';
  out << "scenario = " << scenario_name_ << '\n';
  out << "digest = " << digest_ << '\n';
  out << "seed = " << seed_ << '\n';
  out << "n = " << n_ << '\n';
  out << "engine = " << engine_fingerprint_ << '\n';

  out << "[decisions]\n";
  out << "count = " << decisions_.size() << '\n';
  for (const RecordedDecision& d : decisions_) {
    out << "decision = " << decision_line(d) << '\n';
  }

  out << "[events]\n";
  out << "count = " << events_.size() << '\n';
  for (const RecordedEvent& e : events_) {
    out << "event = " << event_line(e) << '\n';
  }

  out << "[timeseries]\n";
  if (series_ != nullptr) {
    out << series_->render_window(config_.window);
  } else {
    out << "cadence = 0\nsamples = 0\n";
  }

  out << "end\n";
  return io::sealed::seal_trailer(kMagic, kBundleVersion, out.str());
}

void FlightRecorder::write_bundle(const std::string& path) const {
  io::sealed::commit(path, render_bundle(), kContext);
}

std::string FlightRecorder::state_text() const {
  std::ostringstream out;
  out << "scenario = " << scenario_name_ << '\n';
  out << "digest = " << digest_ << '\n';
  out << "seed = " << seed_ << '\n';
  out << "n = " << n_ << '\n';
  out << "triggered = " << (triggered_ ? 1 : 0) << '\n';
  out << "trigger-kind = " << trigger_name(kind_) << '\n';
  out << "trigger-round = " << trigger_round_ << '\n';
  out << "trigger-detail = " << trigger_detail_ << '\n';
  for (const RecordedDecision& d : decisions_) {
    out << "decision = " << d.round << ' ' << d.old_capacity << ' '
        << d.new_capacity << ' ' << d.old_pool_limit << ' '
        << d.new_pool_limit << ' ' << d.lambda_hat_micro << '\n';
  }
  for (const RecordedEvent& e : events_) {
    // kind is token-shaped (no spaces); detail takes the rest of line.
    out << "event = " << e.round << ' ' << e.kind << ' ' << e.detail << '\n';
  }
  return out.str();
}

void FlightRecorder::restore_state(const std::string& text) {
  decisions_.clear();
  events_.clear();
  triggered_ = false;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto eq = line.find(" = ");
    if (eq == std::string::npos) fail("malformed state line: " + line);
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 3);
    if (key == "scenario") {
      scenario_name_ = value;
    } else if (key == "digest") {
      digest_ = value;
    } else if (key == "seed") {
      seed_ = std::stoull(value);
    } else if (key == "n") {
      n_ = std::stoull(value);
    } else if (key == "triggered") {
      triggered_ = value == "1";
    } else if (key == "trigger-kind") {
      if (!trigger_from_name(value, kind_)) {
        fail("unknown trigger kind '" + value + "'");
      }
    } else if (key == "trigger-round") {
      trigger_round_ = std::stoull(value);
    } else if (key == "trigger-detail") {
      trigger_detail_ = value;
    } else if (key == "decision") {
      RecordedDecision d;
      std::istringstream parse(value);
      if (!(parse >> d.round >> d.old_capacity >> d.new_capacity >>
            d.old_pool_limit >> d.new_pool_limit >> d.lambda_hat_micro)) {
        fail("malformed decision state: " + value);
      }
      decisions_.push_back(d);
    } else if (key == "event") {
      RecordedEvent e;
      std::istringstream parse(value);
      if (!(parse >> e.round >> e.kind)) {
        fail("malformed event state: " + value);
      }
      std::getline(parse, e.detail);
      if (!e.detail.empty() && e.detail.front() == ' ') e.detail.erase(0, 1);
      events_.push_back(e);
    } else {
      fail("unknown state key '" + key + "'");
    }
  }
  while (decisions_.size() > config_.max_decisions) decisions_.pop_front();
  while (events_.size() > config_.max_events) events_.pop_front();
}

void verify_bundle_text(const std::string& text) {
  io::sealed::verify_trailer(text, kMagic, kBundleVersion, kContext);
}

PostmortemBundle read_bundle_file(const std::string& path) {
  PostmortemBundle bundle;
  bundle.text = io::sealed::read_file(path, kContext);
  verify_bundle_text(bundle.text);
  bundle.version = kBundleVersion;

  std::istringstream lines(bundle.text);
  std::string line;
  std::getline(lines, line);  // the verified envelope header
  enum class Section { kHeader, kDecisions, kEvents, kTimeseries, kDone };
  Section section = Section::kHeader;
  while (std::getline(lines, line)) {
    if (line == "end") {
      section = Section::kDone;
      continue;
    }
    if (line == "[decisions]") {
      section = Section::kDecisions;
      continue;
    }
    if (line == "[events]") {
      section = Section::kEvents;
      continue;
    }
    if (line == "[timeseries]") {
      section = Section::kTimeseries;
      continue;
    }
    if (section == Section::kDone) continue;  // crc trailer
    const auto eq = line.find(" = ");
    if (eq == std::string::npos) fail("malformed bundle line: " + line);
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 3);
    switch (section) {
      case Section::kHeader:
        if (key == "trigger") bundle.trigger = value;
        else if (key == "round") bundle.round = std::stoull(value);
        else if (key == "detail") bundle.detail = value;
        else if (key == "scenario") bundle.scenario = value;
        else if (key == "digest") bundle.digest = value;
        else if (key == "seed") bundle.seed = std::stoull(value);
        else if (key == "n") bundle.n = std::stoull(value);
        else if (key == "engine") bundle.engine = value;
        else fail("unknown bundle key '" + key + "'");
        break;
      case Section::kDecisions:
        if (key == "decision") bundle.decisions.push_back(value);
        break;
      case Section::kEvents:
        if (key == "event") bundle.events.push_back(value);
        break;
      case Section::kTimeseries:
        if (key == "cadence") {
          bundle.cadence = std::stoull(value);
        } else if (key == "samples") {
          bundle.samples = std::stoull(value);
        } else if (key.rfind("col ", 0) == 0) {
          // Resolve the delta coding back into values.
          std::vector<std::uint64_t> values;
          std::istringstream parse(value);
          std::string token;
          while (parse >> token) {
            if (values.empty()) {
              values.push_back(std::stoull(token));
            } else {
              const auto delta =
                  static_cast<std::uint64_t>(std::stoll(token));
              values.push_back(values.back() + delta);
            }
          }
          bundle.series.emplace_back(key.substr(4), std::move(values));
        } else {
          fail("unknown timeseries key '" + key + "'");
        }
        break;
      case Section::kDone:
        break;
    }
  }
  return bundle;
}

}  // namespace iba::telemetry
