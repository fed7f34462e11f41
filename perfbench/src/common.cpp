#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string_view>

#include <time.h>

#include "bench.h"

namespace perfbench {

using subsum::model::AttrType;
using subsum::model::Op;
using subsum::model::SubId;

uint64_t now_ns() {
  static const Clock::time_point origin = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin).count());
}

uint64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL + static_cast<uint64_t>(ts.tv_nsec);
}

const char* to_string(OpKind k) {
  switch (k) {
    case OpKind::kPublish:
      return "publish";
    case OpKind::kSubscribe:
      return "subscribe";
    case OpKind::kUnsubscribe:
      return "unsubscribe";
    case OpKind::kPeriod:
      return "propagation_period";
    case OpKind::kNotification:
      return "notification";
  }
  return "?";
}

// --- Report --------------------------------------------------------------

void Report::attempt(OpKind k, uint64_t n) {
  std::lock_guard lk(mu_);
  attempted_[static_cast<size_t>(k)] += n;
}

void Report::fail_op(OpKind k, uint64_t n) {
  std::lock_guard lk(mu_);
  failed_[static_cast<size_t>(k)] += n;
}

void Report::error(const std::string& what) {
  std::lock_guard lk(mu_);
  // Bounded: a systematic fault would otherwise print one line per event.
  if (errors_.size() < 64) errors_.push_back(what);
  else if (errors_.size() == 64) errors_.push_back("... further errors suppressed");
}

void Report::e2e(Metric m) { e2e_.push_back(std::move(m)); }

void Report::layer(std::string name, double value, std::string unit) {
  layer_.push_back({std::move(name), value, std::move(unit)});
}

bool Report::correct() const {
  std::lock_guard lk(mu_);
  return errors_.empty();
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

void Report::print(bool traced) const {
  std::lock_guard lk(mu_);
  std::ostringstream os;
  os << "operations (attempted / failed):\n";
  uint64_t att = 0, fail = 0;
  for (size_t k = 0; k < kOpKinds; ++k) {
    os << "  " << to_string(static_cast<OpKind>(k)) << ": " << attempted_[k] << " / "
       << failed_[k] << "\n";
    att += attempted_[k];
    fail += failed_[k];
  }
  const auto& all = traced ? layer_ : e2e_;
  os << (traced ? "per-layer metrics (traced run):\n" : "end-to-end metrics:\n");
  std::vector<const Metric*> metrics;
  for (const Metric& m : all) {
    os << "  " << m.name << " = " << json_number(m.value) << " " << m.unit
       << (m.in_json ? "" : "   (printed, not in the result)") << "\n";
    if (!m.rounds.empty()) {
      os << "    rounds:";
      for (const double v : m.rounds) os << " " << v;
      os << "\n";
    }
    if (m.in_json) metrics.push_back(&m);
  }
  for (const std::string& e : errors_) os << "CORRECTNESS FAILURE: " << e << "\n";
  os << "correct: " << (errors_.empty() ? "true" : "false") << "\n";
  os << "{\"correct\": " << (errors_.empty() ? "true" : "false") << ", \"attempted\": " << att
     << ", \"failed\": " << fail << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) os << ", ";
    os << "\"" << json_escape(metrics[i]->name) << "\": {\"value\": "
       << json_number(metrics[i]->value) << ", \"unit\": \"" << json_escape(metrics[i]->unit)
       << "\"}";
  }
  os << "}}\n";
  std::cout << os.str() << std::flush;
}

// --- statistics ----------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double bucket_quantile(const std::vector<std::pair<double, double>>& cumulative, double q) {
  if (cumulative.empty() || cumulative.back().second <= 0) return 0;
  const double target = q * cumulative.back().second;
  double prev_bound = 0, prev_count = 0;
  for (const auto& [bound, count] : cumulative) {
    if (count >= target && count > prev_count) {
      // Linear interpolation inside the bucket (prev_bound, bound].
      const double frac = (target - prev_count) / (count - prev_count);
      return prev_bound + (bound - prev_bound) * frac;
    }
    prev_bound = bound;
    prev_count = count;
  }
  return prev_bound;
}

// --- correctness ---------------------------------------------------------

namespace {

bool constraint_holds(const subsum::model::Constraint& c, const subsum::model::Value& v) {
  if (v.type() == AttrType::kString) {
    const std::string_view s = v.as_string();
    const std::string_view o = c.operand.as_string();
    switch (c.op) {
      case Op::kEq:
        return s == o;
      case Op::kNe:
        return s != o;
      case Op::kPrefix:
        return s.size() >= o.size() && s.substr(0, o.size()) == o;
      case Op::kSuffix:
        return s.size() >= o.size() && s.substr(s.size() - o.size()) == o;
      case Op::kContains:
        return s.find(o) != std::string_view::npos;
      default:
        return false;
    }
  }
  const double a = v.type() == AttrType::kInt ? static_cast<double>(v.as_int()) : v.as_float();
  const double b = c.operand.type() == AttrType::kInt ? static_cast<double>(c.operand.as_int())
                                                       : c.operand.as_float();
  switch (c.op) {
    case Op::kEq:
      return a == b;
    case Op::kNe:
      return a != b;
    case Op::kLt:
      return a < b;
    case Op::kLe:
      return a <= b;
    case Op::kGt:
      return a > b;
    case Op::kGe:
      return a >= b;
    default:
      return false;
  }
}

}  // namespace

bool oracle_matches(const subsum::model::Subscription& sub, const subsum::model::Event& event) {
  for (const auto& c : sub.constraints()) {
    const subsum::model::Value* v = event.find(c.attr);
    if (!v || !constraint_holds(c, *v)) return false;
  }
  return true;
}

std::string event_key(const subsum::model::Event& e) {
  std::string k;
  for (const auto& a : e.attrs()) {
    k.push_back(static_cast<char>(a.attr));
    switch (a.value.type()) {
      case AttrType::kInt: {
        const int64_t x = a.value.as_int();
        k.append(reinterpret_cast<const char*>(&x), sizeof x);
        break;
      }
      case AttrType::kFloat: {
        const double x = a.value.as_float();
        k.append(reinterpret_cast<const char*>(&x), sizeof x);
        break;
      }
      case AttrType::kString:
        k.append(a.value.as_string());
        k.push_back('\0');
        break;
    }
  }
  return k;
}

void InputDigest::mix(const void* p, size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 0x100000001b3ULL;
  }
}

void InputDigest::add(const subsum::model::Subscription& sub) {
  ++subs_;
  for (const auto& c : sub.constraints()) {
    const auto op = static_cast<uint8_t>(c.op);
    mix(&c.attr, sizeof c.attr);
    mix(&op, 1);
    const std::string v = c.operand.to_string();
    mix(v.data(), v.size());
  }
}

void InputDigest::add(const subsum::model::Event& e) {
  ++events_;
  const std::string k = event_key(e);
  mix(k.data(), k.size());
}

void InputDigest::add(uint64_t v) { mix(&v, sizeof v); }

void InputDigest::print() const {
  std::printf("inputs: %" PRIu64 " subscriptions, %" PRIu64 " events, digest %016" PRIx64 "\n",
              subs_, events_, h_);
  std::fflush(stdout);
}

PairDiff diff_pairs(const PairSet& expected, const PairSet& received) {
  PairDiff d;
  for (const auto& [key, n] : received) {
    auto it = expected.find(key);
    if (it == expected.end()) {
      d.false_pos += static_cast<uint64_t>(n);
    } else if (n > it->second) {
      d.duplicated += static_cast<uint64_t>(n - it->second);
    }
  }
  for (const auto& [key, n] : expected) {
    auto it = received.find(key);
    const int got = it == received.end() ? 0 : it->second;
    if (got < n) d.missing += static_cast<uint64_t>(n - got);
  }
  return d;
}

void inject_fault(Inject inject, PairSet& received, SubId false_id) {
  if (inject == Inject::kNone || received.empty()) return;
  auto first = received.begin();
  switch (inject) {
    case Inject::kDrop:
      if (--first->second == 0) received.erase(first);
      break;
    case Inject::kDup:
      ++first->second;
      break;
    case Inject::kFalse:
      ++received[{first->first.first, false_id}];
      break;
    case Inject::kNone:
      break;
  }
}

void check_pairs(Report& rep, const std::string& what, const PairSet& expected,
                 const PairSet& received) {
  uint64_t expected_n = 0;
  for (const auto& kv : expected) expected_n += static_cast<uint64_t>(kv.second);
  rep.attempt(OpKind::kNotification, expected_n);
  const PairDiff d = diff_pairs(expected, received);
  rep.fail_op(OpKind::kNotification, d.missing);
  if (!d.exact()) {
    rep.error(what + ": " + std::to_string(d.missing) + " missing, " +
              std::to_string(d.duplicated) + " duplicated, " + std::to_string(d.false_pos) +
              " false notifications (of " + std::to_string(expected_n) + " expected)");
  }
}

// --- tracing -------------------------------------------------------------

void Tracer::record(const char* name, uint64_t trace, uint32_t broker, uint64_t start_ns,
                    uint64_t end_ns) {
  std::lock_guard lk(mu_);
  spans_.push_back({name, trace, broker, start_ns, end_ns});
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
  std::lock_guard lk(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

double Tracer::mean_us(const std::string& name) const { return mean(durations_us(name)); }

void Tracer::write_jsonl(const std::string& path) const {
  std::lock_guard lk(mu_);
  std::ofstream out(path);
  char buf[256];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof buf,
                  "{\"trace\":\"%016" PRIx64 "\",\"broker\":%u,\"name\":\"%s\",\"t_us\":%.3f,"
                  "\"dur_us\":%.3f}\n",
                  s.trace, s.broker, s.name, static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out << buf;
  }
}

// --- process probes ------------------------------------------------------

uint64_t proc_status_kb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0 && line.size() > n && line[n] == ':') {
      return std::strtoull(line.c_str() + n + 1, nullptr, 10);
    }
  }
  return 0;
}

uint64_t proc_map_count() {
  std::ifstream in("/proc/self/maps");
  uint64_t n = 0;
  std::string line;
  while (std::getline(in, line)) ++n;
  return n;
}

std::string fresh_dir(const Options& opt, const std::string& name) {
  const std::filesystem::path p = std::filesystem::path(opt.work_dir) / name;
  std::filesystem::remove_all(p);
  std::filesystem::create_directories(p);
  return p.string();
}

}  // namespace perfbench
