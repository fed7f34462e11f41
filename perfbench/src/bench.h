// Shared pieces of the end-to-end benchmark: run options, the report
// (operation counts by kind, metrics by name and unit, the final JSON
// line), the benchmark's own subscription oracle and notification checker,
// the in-memory span recorder behind the per-layer numbers, and /proc/self
// probes.
//
// The oracle and the checker deliberately share no code with the library's
// matcher or router: expected notification sets come from evaluating the
// generated subscription predicates directly.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "model/event.h"
#include "model/sub_id.h"
#include "model/subscription.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since an arbitrary process-wide origin.
uint64_t now_ns();

/// CPU time (user + system) of the whole process, all threads, in ns.
/// Time the hypervisor gives other tenants (steal) is not charged to it,
/// unlike wall time.
uint64_t cpu_ns();

/// Deliberately broken outputs, fed to the checker to prove it fails.
enum class Inject { kNone, kDrop, kDup, kFalse };

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Inject inject = Inject::kNone;
  /// Scratch root inside the checkout (data directories, span files).
  std::string work_dir = ".bench_build/perfbench-work";
};

enum class OpKind { kPublish, kSubscribe, kUnsubscribe, kPeriod, kNotification };
inline constexpr size_t kOpKinds = 5;
const char* to_string(OpKind k);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// False for figures printed for people but left out of the JSON result
  /// because their run-to-run spread on a shared host exceeds any useful
  /// bound (see README "Dropped from the JSON result").
  bool in_json = true;
  /// Per-round values the reported value was taken over (printed only).
  std::vector<double> rounds = {};
};

/// Everything one run reports.
class Report {
 public:
  void attempt(OpKind k, uint64_t n = 1);
  void fail_op(OpKind k, uint64_t n = 1);
  /// Records a correctness failure (printed, and makes `correct` false).
  void error(const std::string& what);

  void e2e(Metric m);
  void layer(std::string name, double value, std::string unit);

  [[nodiscard]] bool correct() const;
  /// Human-readable summary followed by the one-line JSON result.
  void print(bool traced) const;

 private:
  mutable std::mutex mu_;
  std::array<uint64_t, kOpKinds> attempted_{};
  std::array<uint64_t, kOpKinds> failed_{};
  std::vector<std::string> errors_;
  std::vector<Metric> e2e_, layer_;
};

// --- statistics --------------------------------------------------------

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// Interpolated quantile of a log2-bucketed histogram given as
/// (upper bound, cumulative count) pairs in bound order.
double bucket_quantile(const std::vector<std::pair<double, double>>& cumulative, double q);

// --- correctness -------------------------------------------------------

/// The benchmark's own predicate evaluation: true when every constraint
/// of `sub` holds for `event` (an absent attribute fails the constraint).
bool oracle_matches(const subsum::model::Subscription& sub, const subsum::model::Event& event);

/// Content key of an event: equal keys exactly for equal events.
std::string event_key(const subsum::model::Event& e);

/// Order-sensitive FNV-1a digest of generated inputs, printed by every run
/// so two runs can be shown to have received identical inputs.
class InputDigest {
 public:
  void add(const subsum::model::Subscription& sub);
  void add(const subsum::model::Event& e);
  void add(uint64_t v);
  /// Prints "inputs: <subs> subscriptions, <events> events, digest <hex>".
  void print() const;

 private:
  void mix(const void* p, size_t n);
  uint64_t h_ = 0xcbf29ce484222325ULL;
  uint64_t subs_ = 0, events_ = 0;
};

/// Multiset of (event content, subscription id) notification pairs.
using PairSet = std::map<std::pair<std::string, subsum::model::SubId>, int>;

struct PairDiff {
  uint64_t missing = 0;     // expected but not received
  uint64_t duplicated = 0;  // received more often than expected
  uint64_t false_pos = 0;   // received but not expected at all
  [[nodiscard]] bool exact() const { return missing == 0 && duplicated == 0 && false_pos == 0; }
};

PairDiff diff_pairs(const PairSet& expected, const PairSet& received);

/// Applies the --inject fault to a received multiset (no-op for kNone).
/// `false_id` names a subscription that must not match any event in it.
void inject_fault(Inject inject, PairSet& received, subsum::model::SubId false_id);

/// Checks `received` against `expected`, counting notification operations
/// and recording any difference as a correctness error under `what`.
void check_pairs(Report& rep, const std::string& what, const PairSet& expected,
                 const PairSet& received);

// --- tracing -----------------------------------------------------------

/// Spans recorded around the benchmark's own calls into each library
/// layer. Kept in memory; written as JSONL when the run ends. A disabled
/// tracer records nothing and costs one branch per scope.
class Tracer {
 public:
  struct Span {
    const char* name;     // layer call, e.g. "core.match_into"
    uint64_t trace;       // operation the call belongs to
    uint32_t broker;      // broker the call ran at / was sent to
    uint64_t start_ns;
    uint64_t end_ns;
  };

  explicit Tracer(bool on) : on_(on) {}
  [[nodiscard]] bool on() const noexcept { return on_; }

  void record(const char* name, uint64_t trace, uint32_t broker, uint64_t start_ns,
              uint64_t end_ns);

  /// RAII span: times the enclosing scope.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, uint64_t trace = 0, uint32_t broker = 0)
        : t_(t), name_(name), trace_(trace), broker_(broker), start_(t.on() ? now_ns() : 0) {}
    ~Scope() {
      if (t_.on()) t_.record(name_, trace_, broker_, start_, now_ns());
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    const char* name_;
    uint64_t trace_;
    uint32_t broker_;
    uint64_t start_;
  };

  /// Durations (µs) of every span with this name.
  [[nodiscard]] std::vector<double> durations_us(const std::string& name) const;
  /// Mean duration (µs): the per-call time that, times the call count,
  /// adds up to the layer's share of the run.
  [[nodiscard]] double mean_us(const std::string& name) const;

  /// One span per line, fixed field order:
  /// {"trace":"<16 hex>","broker":N,"name":"...","t_us":S,"dur_us":D}
  void write_jsonl(const std::string& path) const;

 private:
  bool on_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// --- process probes ----------------------------------------------------

/// A field of /proc/self/status in kB (VmRSS, VmHWM, ...); 0 if absent.
uint64_t proc_status_kb(const char* field);
/// Number of mappings in /proc/self/maps.
uint64_t proc_map_count();

/// Creates (and empties) a directory under the work dir.
std::string fresh_dir(const Options& opt, const std::string& name);

// --- workloads -----------------------------------------------------------

void run_fig7_publish(const Options& opt, Report& rep);
void run_cw24_churn(const Options& opt, Report& rep);
void run_sim_scale(const Options& opt, Report& rep);

}  // namespace perfbench
