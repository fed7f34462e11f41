// Property tests for the matching engine: the heap-merge + dense-counter
// match_into() must agree with the reference implementation and the naive
// oracle, whatever the scratch's history.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/matcher.h"
#include "workload/event_gen.h"
#include "workload/stock_schema.h"
#include "workload/sub_gen.h"

namespace subsum {
namespace {

using core::AacsMode;
using core::BrokerSummary;
using model::Event;
using model::SubId;

struct Workload {
  model::Schema schema = workload::stock_schema();
  BrokerSummary summary;
  core::NaiveMatcher naive;
  std::vector<Event> events;

  /// `brokers` > 1 spreads ids across c1 values, defeating the
  /// single-broker dense fast path so the heap merge gets exercised.
  Workload(size_t subs, size_t brokers, AacsMode mode, double subsumption, uint64_t seed) {
    workload::SubGenParams sp;
    sp.subsumption = subsumption;
    workload::SubscriptionGenerator gen(schema, sp, seed);
    summary = BrokerSummary(schema, core::GeneralizePolicy::kSafe, mode);
    for (uint32_t i = 0; i < subs; ++i) {
      auto sub = gen.next();
      const SubId id{static_cast<model::BrokerId>(i % brokers), i, sub.mask()};
      summary.add(sub, id);
      naive.add({id, std::move(sub)});
    }
    workload::EventGenerator egen(schema, gen.pools(), {}, seed + 1);
    for (int i = 0; i < 48; ++i) events.push_back(egen.next());
  }
};

TEST(MatchEngine, AgreesWithReferenceAndOracleAcrossWorkloads) {
  for (const AacsMode mode : {AacsMode::kExact, AacsMode::kCoarse}) {
    for (const size_t brokers : {size_t{1}, size_t{5}}) {  // dense vs heap path
      for (const double subsumption : {0.1, 0.9}) {
        Workload w(400, brokers, mode, subsumption,
                   1000 + brokers * 10 + static_cast<uint64_t>(subsumption * 10));
        core::MatchScratch scratch;
        for (const Event& e : w.events) {
          core::MatchDiag dn, dr;
          const auto got = core::match_into(w.summary, e, scratch, &dn);
          const auto want = core::match_reference(w.summary, e, &dr);
          ASSERT_EQ(std::vector<SubId>(got.begin(), got.end()), want);
          EXPECT_EQ(dn.ids_collected, dr.ids_collected);
          EXPECT_EQ(dn.unique_ids, dr.unique_ids);
          EXPECT_EQ(dn.attrs_satisfied, dr.attrs_satisfied);
          // Summary matching is a superset of exact matching (safe direction).
          const auto exact = w.naive.match(e);
          ASSERT_TRUE(std::includes(want.begin(), want.end(), exact.begin(), exact.end()));
          if (mode == AacsMode::kExact) {
            // With exact AACS and no SACS generalization pressure at this
            // scale, every exact match must at least be present.
            for (const SubId& id : exact) {
              EXPECT_TRUE(std::binary_search(want.begin(), want.end(), id));
            }
          }
        }
      }
    }
  }
}

TEST(MatchEngine, ScratchReuseMatchesFreshScratch) {
  Workload w(600, 1, AacsMode::kCoarse, 0.5, 42);
  core::MatchScratch reused;
  for (const Event& e : w.events) {
    core::MatchScratch fresh;
    const auto a = core::match_into(w.summary, e, reused);
    const auto b = core::match_into(w.summary, e, fresh);
    ASSERT_EQ(std::vector<SubId>(a.begin(), a.end()),
              std::vector<SubId>(b.begin(), b.end()));
  }
}

TEST(MatchEngine, EmptySummaryAndEmptyEvent) {
  const model::Schema schema = workload::stock_schema();
  BrokerSummary summary(schema);
  core::MatchScratch scratch;
  const Event none;
  EXPECT_TRUE(core::match_into(summary, none, scratch).empty());
  Workload w(10, 1, AacsMode::kExact, 0.1, 7);
  EXPECT_TRUE(core::match_into(w.summary, none, scratch).empty());
}

}  // namespace
}  // namespace subsum
