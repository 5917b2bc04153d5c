#include "sim/checkpoint.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "common/assert.hpp"
#include "io/sealed.hpp"

namespace iba::sim {

namespace {

constexpr const char* kMagic = "iba-checkpoint";
constexpr std::uint32_t kVersion = 3;
constexpr const char* kContext = "checkpoint";

[[noreturn]] void fail(const std::string& why) {
  throw std::runtime_error(std::string(kContext) + ": " + why);
}

template <typename T>
T read_value(std::istream& in, const char* what) {
  T value;
  if (!(in >> value)) fail(std::string("truncated/invalid field: ") + what);
  return value;
}

/// Reads an integer and checks it names a valid enumerator of E.
template <typename E>
E read_enum(std::istream& in, const char* what, int count) {
  const int raw = read_value<int>(in, what);
  if (raw < 0 || raw >= count) {
    fail(std::string("out-of-range field: ") + what + " = " +
         std::to_string(raw));
  }
  return static_cast<E>(raw);
}

/// Reads an element count bounded by the body bytes left to read (each
/// element takes at least one), so it never sizes an allocation.
std::size_t read_count(std::istream& in, const char* what, std::size_t size) {
  const auto count = read_value<std::size_t>(in, what);
  const auto at = in.tellg();
  if (at < 0 || count > size - static_cast<std::size_t>(at)) {
    fail(std::string("out-of-range field: ") + what);
  }
  return count;
}

void expect_keyword(std::istream& in, const char* keyword) {
  const auto word = read_value<std::string>(in, keyword);
  if (word != keyword) {
    fail(std::string("expected section '") + keyword + "', found '" + word +
         "'");
  }
}

/// Appends the decimal rendering of `value` to `out` without the
/// allocation churn of std::to_string.
void append_number(std::string& out, std::uint64_t value) {
  char digits[20];
  out.append(digits,
             std::to_chars(digits, digits + sizeof(digits), value).ptr);
}

std::size_t decimal_digits(std::uint64_t value) {
  std::size_t digits = 1;
  for (; value >= 10; value /= 10) ++digits;
  return digits;
}

void append_field(std::string& out, std::uint64_t value) {
  out.push_back(' ');
  append_number(out, value);
}

/// The body up to and including the `bins <n>` line; the queue lines
/// follow (render_queue_lines), then render_tail.
std::string render_head(const core::CappedSnapshot& snapshot) {
  const auto& config = snapshot.config;
  std::string out;
  out.reserve(512 +
              (snapshot.pool.size() * 2 + snapshot.deferred.size() * 3) * 21);

  char prob[40];
  std::snprintf(prob, sizeof(prob), "%.17g", config.failure_probability);
  out += "config";
  append_field(out, config.n);
  append_field(out, config.capacity);
  append_field(out, config.lambda_n);
  append_field(out, static_cast<std::uint64_t>(config.arrival));
  append_field(out, static_cast<std::uint64_t>(config.deletion));
  append_field(out, static_cast<std::uint64_t>(config.acceptance));
  out.push_back(' ');
  out += prob;
  append_field(out, static_cast<std::uint64_t>(config.failure_mode));
  append_field(out, static_cast<std::uint64_t>(config.kernel));
  append_field(out, config.shards);
  append_field(out, config.pool_limit);
  append_field(out, static_cast<std::uint64_t>(config.backpressure));
  append_field(out, config.backoff_rounds);
  // v3: adaptive-control configuration rides on the config line.
  char hysteresis[40];
  std::snprintf(hysteresis, sizeof(hysteresis), "%.17g",
                config.control.hysteresis);
  append_field(out, static_cast<std::uint64_t>(config.control.policy));
  append_field(out, config.control.c_max);
  append_field(out, config.control.window);
  append_field(out, config.control.cooldown);
  out.push_back(' ');
  out += hysteresis;
  append_field(out, config.control.admission_target);
  out.push_back('\n');
  out += "state";
  append_field(out, snapshot.round);
  append_field(out, snapshot.generated_total);
  append_field(out, snapshot.deleted_total);
  append_field(out, snapshot.shed_total);
  out.push_back('\n');
  out += "engine";
  for (const std::uint64_t word : snapshot.engine_state) {
    append_field(out, word);
  }
  out.push_back('\n');
  out += "pool";
  append_field(out, snapshot.pool.size());
  out.push_back('\n');
  for (const auto& bucket : snapshot.pool) {
    append_number(out, bucket.label);
    append_field(out, bucket.count);
    out.push_back('\n');
  }
  out += "deferred";
  append_field(out, snapshot.deferred.size());
  out.push_back('\n');
  for (const auto& bucket : snapshot.deferred) {
    append_number(out, bucket.label);
    append_field(out, bucket.count);
    append_field(out, bucket.ready);
    out.push_back('\n');
  }
  out += "bins";
  append_field(out, snapshot.bins.loads.size());
  out.push_back('\n');
  return out;
}

/// The body after the queue lines: waits, fault and control state, end.
std::string render_tail(const Checkpoint& checkpoint) {
  const core::CappedSnapshot& snapshot = checkpoint.snapshot;
  const auto& config = snapshot.config;
  std::string out;
  const core::CappedWaitState& waits = snapshot.waits;
  out += "waits";
  append_field(out, waits.count);
  append_field(out, waits.sum);
  append_field(out, waits.sumsq_hi);
  append_field(out, waits.sumsq_lo);
  append_field(out, waits.max);
  append_field(out, waits.histogram.size());
  for (const std::uint64_t bucket : waits.histogram) {
    append_field(out, bucket);
  }
  out.push_back('\n');
  out += "fault";
  append_field(out, checkpoint.has_fault_state ? 1 : 0);
  out.push_back('\n');
  if (checkpoint.has_fault_state) {
    const fault::FaultPlan::State& fs = checkpoint.fault_state;
    // The schedule text is quoted by length so embedded spaces survive.
    out += "fault-schedule";
    append_field(out, checkpoint.fault_schedule.size());
    out.push_back(' ');
    out += checkpoint.fault_schedule;
    out.push_back('\n');
    out += "fault-seed";
    append_field(out, checkpoint.fault_seed);
    out.push_back('\n');
    out += "fault-engine";
    for (const std::uint64_t word : fs.engine_state) {
      append_field(out, word);
    }
    out.push_back('\n');
    out += "fault-counters";
    append_field(out, fs.last_round);
    append_field(out, fs.crashes);
    append_field(out, fs.repairs);
    append_field(out, fs.straggler_skips);
    out.push_back('\n');
    out += "fault-down";
    append_field(out, fs.down.size());
    out.push_back('\n');
    for (const auto& d : fs.down) {
      append_number(out, d.bin);
      append_field(out, d.until);
      out.push_back('\n');
    }
    out += "fault-degraded";
    append_field(out, fs.degraded.size());
    out.push_back('\n');
    for (const auto& d : fs.degraded) {
      append_number(out, d.bin);
      append_field(out, d.until);
      append_field(out, d.cap);
      out.push_back('\n');
    }
  }
  // v3: controller state (estimator rings + policy memory + cooldown).
  const bool has_control = config.control.enabled();
  out += "control";
  append_field(out, has_control ? 1 : 0);
  out.push_back('\n');
  if (has_control) {
    const control::ControllerState& cs = snapshot.controller;
    out += "control-policy";
    // direction is ±1; encoded as 1 (up) / 0 (down).
    append_field(out, cs.policy.direction > 0 ? 1 : 0);
    append_field(out, cs.policy.has_prev);
    append_field(out, cs.policy.prev_wait_bits);
    append_field(out, cs.policy.has_best);
    append_field(out, cs.policy.best_wait_bits);
    out.push_back('\n');
    out += "control-controller";
    append_field(out, cs.cooldown_until);
    append_field(out, cs.changes);
    append_field(out, cs.grows);
    append_field(out, cs.shrinks);
    append_field(out, cs.admission_limit);
    append_field(out, cs.admission_base);
    out.push_back('\n');
    const control::EstimatorState& es = cs.estimator;
    out += "control-estimator";
    append_field(out, es.head);
    append_field(out, es.filled);
    append_field(out, es.rounds);
    append_field(out, es.ewma_bits);
    append_field(out, es.generated.size());
    out.push_back('\n');
    for (std::size_t i = 0; i < es.generated.size(); ++i) {
      append_number(out, es.generated[i]);
      append_field(out, es.pool[i]);
      append_field(out, es.wait_sum[i]);
      append_field(out, es.wait_count[i]);
      out.push_back('\n');
    }
  }
  out += "end\n";
  return out;
}

}  // namespace

QueueLines render_queue_lines(const queueing::BinQueues& queues,
                              std::string_view prefix,
                              std::uint64_t max_label) {
  std::uint32_t max_load = 0;
  std::size_t total = 0;
  for (const std::uint32_t load : queues.loads) {
    max_load = std::max(max_load, load);
    total += load;
  }
  IBA_EXPECT(total == queues.labels.size(),
             "render_queue_lines: labels must number the sum of the loads");
  // A digit-count bound, not 21 bytes per number: a label takes at most
  // digits(max_label) + 1 bytes. The buffer is left uninitialised, so
  // only the pages written are ever touched.
  const std::size_t bound =
      queues.loads.size() * (prefix.size() + decimal_digits(max_load) + 1) +
      total * (decimal_digits(max_label) + 1);
  QueueLines out;
  out.bytes = std::make_unique_for_overwrite<char[]>(bound);
  char* p = out.bytes.get();
  char* const end = p + bound;
  const std::uint64_t* label = queues.labels.data();
  for (const std::uint32_t load : queues.loads) {
    p = std::copy(prefix.begin(), prefix.end(), p);
    p = std::to_chars(p, end, load).ptr;
    for (const std::uint64_t* last = label + load; label != last; ++label) {
      IBA_EXPECT(*label <= max_label,
                 "render_queue_lines: a label exceeds max_label");
      *p++ = ' ';
      p = std::to_chars(p, end, *label).ptr;
    }
    *p++ = '\n';
  }
  out.size = static_cast<std::size_t>(p - out.bytes.get());
  return out;
}

queueing::BinQueues parse_queue_lines(std::string_view text, std::size_t& at,
                                      std::size_t bins, std::size_t max_load,
                                      std::string_view prefix,
                                      const std::string& context) {
  const auto reject = [&](const std::string& why) {
    throw std::runtime_error(context + ": " + why);
  };
  const char* p = text.data() + at;
  const char* const end = text.data() + text.size();
  const auto number = [&](std::uint64_t& value) {
    const auto [next, ec] = std::from_chars(p, end, value);
    p = next;
    return ec == std::errc();
  };
  queueing::BinQueues queues;
  queues.loads.reserve(bins);
  for (std::size_t bin = 0; bin < bins; ++bin) {
    if (!std::string_view(p, static_cast<std::size_t>(end - p))
             .starts_with(prefix)) {
      reject("expected '" + std::string(prefix) + "'");
    }
    p += prefix.size();
    std::uint64_t load = 0;
    if (!number(load)) reject("truncated/invalid field: queue length");
    // Each label takes at least two bytes, so a length beyond the bytes
    // left is corrupt; checked before it is compared or reserved.
    if (load > static_cast<std::uint64_t>(end - p)) {
      reject("out-of-range field: queue length");
    }
    if (load > max_load) reject("queue longer than capacity");
    queues.loads.push_back(static_cast<std::uint32_t>(load));
    for (std::uint64_t i = 0; i < load; ++i) {
      std::uint64_t label = 0;
      if (p == end || *p++ != ' ' || !number(label)) {
        reject("truncated/invalid field: queue label");
      }
      queues.labels.push_back(label);
    }
    if (p == end || *p++ != '\n') {
      reject("queue line runs past its length");
    }
  }
  at = static_cast<std::size_t>(p - text.data());
  return queues;
}

std::uint32_t save_checkpoint(const Checkpoint& checkpoint,
                              const std::string& path) {
  const std::string head = render_head(checkpoint.snapshot);
  // Labels are arrival rounds, so none exceeds the snapshot's round.
  const QueueLines bins = render_queue_lines(checkpoint.snapshot.bins, "",
                                             checkpoint.snapshot.round);
  const std::string tail = render_tail(checkpoint);
  const std::string_view body[] = {head, bins.view(), tail};
  return io::sealed::commit_header(path, kMagic, kVersion, body, kContext);
}

std::uint32_t save_checkpoint(const core::CappedSnapshot& snapshot,
                              const std::string& path) {
  Checkpoint checkpoint;
  checkpoint.snapshot = snapshot;
  return save_checkpoint(checkpoint, path);
}

Checkpoint load_checkpoint_full(const std::string& path) {
  std::string body = io::sealed::load_header(path, kMagic, kVersion, kContext);
  const std::size_t body_size = body.size();
  std::istringstream in(std::move(body));
  Checkpoint checkpoint;
  core::CappedSnapshot& snap = checkpoint.snapshot;

  expect_keyword(in, "config");
  snap.config.n = read_value<std::uint32_t>(in, "n");
  if (snap.config.n == 0) fail("out-of-range field: n = 0");
  snap.config.capacity = read_value<std::uint32_t>(in, "capacity");
  if (snap.config.capacity < 1 ||
      snap.config.capacity > core::CappedConfig::kMaxCapacity) {
    fail("out-of-range field: capacity");
  }
  snap.config.lambda_n = read_value<std::uint64_t>(in, "lambda_n");
  snap.config.arrival = read_enum<core::ArrivalModel>(in, "arrival", 3);
  snap.config.deletion = read_enum<core::DeletionDiscipline>(in, "deletion", 3);
  snap.config.acceptance =
      read_enum<core::AcceptanceOrder>(in, "acceptance", 2);
  snap.config.failure_probability =
      read_value<double>(in, "failure_probability");
  if (snap.config.failure_probability < 0.0 ||
      snap.config.failure_probability >= 1.0) {
    fail("out-of-range field: failure_probability");
  }
  snap.config.failure_mode = read_enum<core::FailureMode>(in, "failure_mode", 2);
  snap.config.kernel = read_enum<core::RoundKernel>(in, "kernel", 2);
  snap.config.shards = read_value<std::uint32_t>(in, "shards");
  snap.config.pool_limit = read_value<std::uint64_t>(in, "pool_limit");
  snap.config.backpressure =
      read_enum<core::BackpressureMode>(in, "backpressure", 3);
  snap.config.backoff_rounds = read_value<std::uint32_t>(in, "backoff_rounds");
  auto& ctrl = snap.config.control;
  ctrl.policy = read_enum<control::Policy>(in, "control policy", 4);
  ctrl.c_max = read_value<std::uint32_t>(in, "control c_max");
  if (ctrl.c_max < 1 || ctrl.c_max > 0xFFFFu) {
    fail("out-of-range field: control c_max");
  }
  ctrl.window = read_value<std::uint32_t>(in, "control window");
  if (ctrl.window < 1 || ctrl.window > (1u << 16)) {
    fail("out-of-range field: control window");
  }
  ctrl.cooldown = read_value<std::uint32_t>(in, "control cooldown");
  if (ctrl.cooldown < 1) fail("out-of-range field: control cooldown");
  ctrl.hysteresis = read_value<double>(in, "control hysteresis");
  if (ctrl.hysteresis < 0.0 || ctrl.hysteresis > 1.0) {
    fail("out-of-range field: control hysteresis");
  }
  ctrl.admission_target =
      read_value<std::uint64_t>(in, "control admission_target");

  expect_keyword(in, "state");
  snap.round = read_value<std::uint64_t>(in, "round");
  snap.generated_total = read_value<std::uint64_t>(in, "generated_total");
  snap.deleted_total = read_value<std::uint64_t>(in, "deleted_total");
  snap.shed_total = read_value<std::uint64_t>(in, "shed_total");

  expect_keyword(in, "engine");
  for (auto& word : snap.engine_state) {
    word = read_value<std::uint64_t>(in, "engine word");
  }

  expect_keyword(in, "pool");
  const auto buckets = read_count(in, "pool size", body_size);
  snap.pool.reserve(buckets);
  std::uint64_t prev_label = 0;
  for (std::size_t i = 0; i < buckets; ++i) {
    const auto label = read_value<std::uint64_t>(in, "pool bucket label");
    const auto count = read_value<std::uint64_t>(in, "pool bucket count");
    if (i > 0 && label <= prev_label) {
      fail("pool buckets not strictly label-ordered");
    }
    prev_label = label;
    snap.pool.push_back({label, count});
  }

  expect_keyword(in, "deferred");
  const auto deferred = read_count(in, "deferred size", body_size);
  snap.deferred.reserve(deferred);
  std::uint64_t prev_ready = 0;
  for (std::size_t i = 0; i < deferred; ++i) {
    core::DeferredBucket bucket;
    bucket.label = read_value<std::uint64_t>(in, "deferred label");
    bucket.count = read_value<std::uint64_t>(in, "deferred count");
    bucket.ready = read_value<std::uint64_t>(in, "deferred ready");
    if (i > 0 && bucket.ready < prev_ready) {
      fail("deferred buckets not ready-ordered");
    }
    prev_ready = bucket.ready;
    snap.deferred.push_back(bucket);
  }

  expect_keyword(in, "bins");
  const auto bins = read_count(in, "bin count", body_size);
  if (bins != snap.config.n) {
    fail("bin count mismatch: config says " + std::to_string(snap.config.n) +
         ", file has " + std::to_string(bins));
  }
  // Under adaptive control a mid-shrink bin legitimately holds more
  // than the (already lowered) capacity — but never more than c_max.
  const std::size_t queue_bound =
      snap.config.control.enabled()
          ? std::max<std::size_t>(snap.config.capacity,
                                  snap.config.control.c_max)
          : snap.config.capacity;
  const std::string_view text = in.view();
  auto at = static_cast<std::size_t>(in.tellg());
  if (at >= text.size() || text[at] != '\n') {
    fail("truncated/invalid field: bin count");
  }
  ++at;
  snap.bins = parse_queue_lines(text, at, bins, queue_bound, "", kContext);
  in.seekg(static_cast<std::streamoff>(at));

  expect_keyword(in, "waits");
  core::CappedWaitState& waits = snap.waits;
  waits.count = read_value<std::uint64_t>(in, "wait count");
  waits.sum = read_value<std::uint64_t>(in, "wait sum");
  waits.sumsq_hi = read_value<std::uint64_t>(in, "wait sumsq_hi");
  waits.sumsq_lo = read_value<std::uint64_t>(in, "wait sumsq_lo");
  waits.max = read_value<std::uint64_t>(in, "wait max");
  const auto wait_buckets = read_value<std::size_t>(in, "wait histogram size");
  if (wait_buckets > 64) fail("out-of-range field: wait histogram size");
  waits.histogram.reserve(wait_buckets);
  std::uint64_t hist_total = 0;
  for (std::size_t i = 0; i < wait_buckets; ++i) {
    const auto bucket = read_value<std::uint64_t>(in, "wait histogram bucket");
    hist_total += bucket;
    waits.histogram.push_back(bucket);
  }
  if (hist_total != waits.count) {
    fail("wait histogram total " + std::to_string(hist_total) +
         " != wait count " + std::to_string(waits.count));
  }

  expect_keyword(in, "fault");
  const auto has_fault = read_value<int>(in, "fault flag");
  if (has_fault != 0 && has_fault != 1) fail("out-of-range field: fault flag");
  checkpoint.has_fault_state = has_fault == 1;
  if (checkpoint.has_fault_state) {
    fault::FaultPlan::State& fs = checkpoint.fault_state;
    expect_keyword(in, "fault-schedule");
    const auto schedule_len =
        read_value<std::size_t>(in, "fault schedule length");
    if (schedule_len > body_size) {
      fail("out-of-range field: fault schedule length");
    }
    in.get();  // the single separating space
    checkpoint.fault_schedule.resize(schedule_len);
    in.read(checkpoint.fault_schedule.data(),
            static_cast<std::streamsize>(schedule_len));
    if (static_cast<std::size_t>(in.gcount()) != schedule_len) {
      fail("truncated/invalid field: fault schedule text");
    }
    expect_keyword(in, "fault-seed");
    checkpoint.fault_seed = read_value<std::uint64_t>(in, "fault seed");
    expect_keyword(in, "fault-engine");
    for (auto& word : fs.engine_state) {
      word = read_value<std::uint64_t>(in, "fault engine word");
    }
    expect_keyword(in, "fault-counters");
    fs.last_round = read_value<std::uint64_t>(in, "fault last_round");
    fs.crashes = read_value<std::uint64_t>(in, "fault crashes");
    fs.repairs = read_value<std::uint64_t>(in, "fault repairs");
    fs.straggler_skips = read_value<std::uint64_t>(in, "fault straggler_skips");
    expect_keyword(in, "fault-down");
    const auto down = read_count(in, "fault down count", body_size);
    fs.down.reserve(down);
    std::uint32_t prev_bin = 0;
    for (std::size_t i = 0; i < down; ++i) {
      fault::FaultPlan::State::Down d;
      d.bin = read_value<std::uint32_t>(in, "fault down bin");
      d.until = read_value<std::uint64_t>(in, "fault down until");
      if (d.bin >= snap.config.n) fail("out-of-range field: fault down bin");
      if (i > 0 && d.bin <= prev_bin) fail("fault down bins not ascending");
      prev_bin = d.bin;
      fs.down.push_back(d);
    }
    expect_keyword(in, "fault-degraded");
    const auto degraded = read_count(in, "fault degraded count", body_size);
    fs.degraded.reserve(degraded);
    prev_bin = 0;
    for (std::size_t i = 0; i < degraded; ++i) {
      fault::FaultPlan::State::Degraded d;
      d.bin = read_value<std::uint32_t>(in, "fault degraded bin");
      d.until = read_value<std::uint64_t>(in, "fault degraded until");
      d.cap = read_value<std::uint32_t>(in, "fault degraded cap");
      if (d.bin >= snap.config.n) {
        fail("out-of-range field: fault degraded bin");
      }
      if (i > 0 && d.bin <= prev_bin) {
        fail("fault degraded bins not ascending");
      }
      prev_bin = d.bin;
      fs.degraded.push_back(d);
    }
  }

  expect_keyword(in, "control");
  const auto has_control = read_value<int>(in, "control flag");
  if (has_control != 0 && has_control != 1) {
    fail("out-of-range field: control flag");
  }
  if ((has_control == 1) != snap.config.control.enabled()) {
    fail("control flag disagrees with config control policy");
  }
  if (has_control == 1) {
    control::ControllerState& cs = snap.controller;
    expect_keyword(in, "control-policy");
    const auto direction = read_value<int>(in, "control direction");
    if (direction != 0 && direction != 1) {
      fail("out-of-range field: control direction");
    }
    cs.policy.direction = direction == 1 ? 1 : -1;
    cs.policy.has_prev = read_value<std::uint32_t>(in, "control has_prev");
    cs.policy.prev_wait_bits =
        read_value<std::uint64_t>(in, "control prev_wait");
    cs.policy.has_best = read_value<std::uint32_t>(in, "control has_best");
    cs.policy.best_wait_bits =
        read_value<std::uint64_t>(in, "control best_wait");
    if (cs.policy.has_prev > 1 || cs.policy.has_best > 1) {
      fail("out-of-range field: control policy flags");
    }
    expect_keyword(in, "control-controller");
    cs.cooldown_until = read_value<std::uint64_t>(in, "control cooldown_until");
    // The cooldown is always armed as round + cooldown, so anything
    // beyond that is a corrupt (e.g. bit-flipped) field.
    if (cs.cooldown_until > snap.round + snap.config.control.cooldown) {
      fail("out-of-range field: control cooldown_until");
    }
    cs.changes = read_value<std::uint64_t>(in, "control changes");
    cs.grows = read_value<std::uint64_t>(in, "control grows");
    cs.shrinks = read_value<std::uint64_t>(in, "control shrinks");
    cs.admission_limit =
        read_value<std::uint64_t>(in, "control admission_limit");
    cs.admission_base =
        read_value<std::uint64_t>(in, "control admission_base");
    expect_keyword(in, "control-estimator");
    control::EstimatorState& es = cs.estimator;
    es.head = read_value<std::uint64_t>(in, "estimator head");
    es.filled = read_value<std::uint64_t>(in, "estimator filled");
    es.rounds = read_value<std::uint64_t>(in, "estimator rounds");
    es.ewma_bits = read_value<std::uint64_t>(in, "estimator ewma");
    const auto window = read_value<std::size_t>(in, "estimator window");
    if (window != snap.config.control.window) {
      fail("out-of-range field: estimator window");
    }
    if (es.head >= window || es.filled > window || es.filled > es.rounds) {
      fail("out-of-range field: estimator cursors");
    }
    es.generated.reserve(window);
    es.pool.reserve(window);
    es.wait_sum.reserve(window);
    es.wait_count.reserve(window);
    for (std::size_t i = 0; i < window; ++i) {
      es.generated.push_back(
          read_value<std::uint64_t>(in, "estimator ring generated"));
      es.pool.push_back(read_value<std::uint64_t>(in, "estimator ring pool"));
      es.wait_sum.push_back(
          read_value<std::uint64_t>(in, "estimator ring wait_sum"));
      es.wait_count.push_back(
          read_value<std::uint64_t>(in, "estimator ring wait_count"));
    }
  }

  expect_keyword(in, "end");
  return checkpoint;
}

core::CappedSnapshot load_checkpoint(const std::string& path) {
  Checkpoint checkpoint = load_checkpoint_full(path);
  if (checkpoint.has_fault_state) {
    fail("file carries fault-plan state; load with load_checkpoint_full");
  }
  return std::move(checkpoint.snapshot);
}

}  // namespace iba::sim
