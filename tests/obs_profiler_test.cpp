// The phase-attribution profiler in isolation: lane lifecycle errors,
// the report() arithmetic (category sums, the Match→MailboxEnqueue aux
// re-attribution, the unattributed remainder, skew, merge and hot-bucket
// accounting) over synthetic spans with hand-checkable numbers, and the
// wall-clock Chrome-trace export.  The engine-integration side (real
// ParallelEngine runs) lives in tests/pmatch_profile_test.cpp.
#include "src/obs/profiler.hpp"

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>

#include "src/common/error.hpp"
#include "src/obs/tracer.hpp"

namespace mpps::obs {
namespace {

TEST(Profiler, CategoryNamesAreStable) {
  EXPECT_STREQ(prof_category_name(ProfCategory::Match), "match");
  EXPECT_STREQ(prof_category_name(ProfCategory::MailboxEnqueue),
               "mailbox_enqueue");
  EXPECT_STREQ(prof_category_name(ProfCategory::BarrierWait), "barrier_wait");
  EXPECT_STREQ(prof_category_name(ProfCategory::RoundMerge), "round_merge");
  EXPECT_STREQ(prof_category_name(ProfCategory::ConflictUpdate),
               "conflict_update");
}

TEST(Profiler, AttachLifecycleErrors) {
  Profiler profiler;
  EXPECT_FALSE(profiler.attached());
  EXPECT_THROW(static_cast<void>(profiler.control_lane()), RuntimeError);
  EXPECT_THROW(static_cast<void>(profiler.lane(0)), RuntimeError);
  EXPECT_THROW(profiler.attach(0, 8), RuntimeError);

  profiler.attach(2, 8);
  EXPECT_TRUE(profiler.attached());
  EXPECT_EQ(profiler.workers(), 2u);
  EXPECT_NE(profiler.lane(0), nullptr);
  EXPECT_NE(profiler.lane(1), nullptr);
  EXPECT_NE(profiler.control_lane(), nullptr);
  EXPECT_NE(profiler.lane(0), profiler.lane(1));
  // The control lane is not addressable as a worker lane.
  EXPECT_THROW(static_cast<void>(profiler.lane(2)), RuntimeError);
  // One profiler profiles one engine.
  EXPECT_THROW(profiler.attach(2, 8), RuntimeError);
}

TEST(Profiler, EmptyReport) {
  const Profiler profiler;
  const ProfileReport report = profiler.report();
  EXPECT_TRUE(report.workers.empty());
  EXPECT_EQ(report.total_wall_ns, 0u);
  EXPECT_DOUBLE_EQ(report.min_attributed_pct(), 100.0);
  EXPECT_DOUBLE_EQ(report.rounds_per_phase(), 0.0);
}

TEST(Profiler, ReportArithmetic) {
  Profiler profiler;
  profiler.attach(2, 8);

  // Worker 0: a 1000 ns phase — 600 ns match (of which 100 ns were nested
  // cross-worker sends), 300 ns barrier, 100 ns unexplained.
  ProfLane* w0 = profiler.lane(0);
  w0->phase_span(0, 1000);
  w0->span(ProfCategory::Match, 0, 0, 600, /*aux=*/100);
  w0->span(ProfCategory::BarrierWait, 0, 600, 900);

  // Worker 1: a 2000 ns phase fully attributed to match.
  ProfLane* w1 = profiler.lane(1);
  w1->phase_span(0, 2000);
  w1->span(ProfCategory::Match, 0, 0, 2000);

  // Control: one merge of 7 records.
  profiler.control_lane()->span(ProfCategory::ConflictUpdate, 0, 1000, 1050,
                                /*aux=*/7);
  profiler.add_phase(3);

  const ProfileReport report = profiler.report();
  ASSERT_EQ(report.workers.size(), 2u);
  const auto cat = [](const ProfileReport::Worker& w, ProfCategory c) {
    return w.category_ns[static_cast<std::size_t>(c)];
  };

  EXPECT_EQ(report.workers[0].wall_ns, 1000u);
  // aux re-attribution: match keeps 500, enqueue gets the nested 100.
  EXPECT_EQ(cat(report.workers[0], ProfCategory::Match), 500u);
  EXPECT_EQ(cat(report.workers[0], ProfCategory::MailboxEnqueue), 100u);
  EXPECT_EQ(cat(report.workers[0], ProfCategory::BarrierWait), 300u);
  EXPECT_EQ(report.workers[0].unattributed_ns, 100u);
  EXPECT_DOUBLE_EQ(report.workers[0].attributed_pct(), 90.0);

  EXPECT_EQ(report.workers[1].wall_ns, 2000u);
  EXPECT_EQ(cat(report.workers[1], ProfCategory::Match), 2000u);
  EXPECT_EQ(report.workers[1].unattributed_ns, 0u);
  EXPECT_DOUBLE_EQ(report.workers[1].attributed_pct(), 100.0);

  EXPECT_DOUBLE_EQ(report.min_attributed_pct(), 90.0);
  EXPECT_EQ(report.total_wall_ns, 3000u);
  EXPECT_EQ(report.total_unattributed_ns, 100u);
  EXPECT_EQ(report.conflict_update_ns, 50u);
  EXPECT_EQ(
      report.total_ns[static_cast<std::size_t>(ProfCategory::ConflictUpdate)],
      50u);

  // Skew: match times 500 and 2000 → max/mean = 2000/1250.
  EXPECT_DOUBLE_EQ(report.match_skew, 1.6);

  EXPECT_EQ(report.phases, 1u);
  EXPECT_EQ(report.rounds, 3u);
  EXPECT_DOUBLE_EQ(report.rounds_per_phase(), 3.0);
}

TEST(SafePct, ClampsToValidRange) {
  EXPECT_DOUBLE_EQ(safe_pct(0, 0), 0.0);     // no denominator → 0, not NaN
  EXPECT_DOUBLE_EQ(safe_pct(50, 0), 0.0);
  EXPECT_DOUBLE_EQ(safe_pct(0, 100), 0.0);
  EXPECT_DOUBLE_EQ(safe_pct(25, 100), 25.0);
  EXPECT_DOUBLE_EQ(safe_pct(100, 100), 100.0);
  // part > whole (the old >100% bug shape) clamps instead of overflowing.
  EXPECT_DOUBLE_EQ(safe_pct(1107, 1000), 100.0);
}

TEST(Profiler, BatchedPhaseAccounting) {
  Profiler profiler;
  profiler.attach(1, 4);
  profiler.add_phase(/*rounds_in_phase=*/3, /*changes_in_phase=*/4);
  profiler.add_phase(/*rounds_in_phase=*/1);  // defaults to one change
  const ProfileReport report = profiler.report();
  EXPECT_EQ(report.phases, 2u);
  EXPECT_EQ(report.rounds, 4u);
  EXPECT_EQ(report.changes, 5u);
  EXPECT_DOUBLE_EQ(report.rounds_per_phase(), 2.0);
  EXPECT_DOUBLE_EQ(report.rounds_per_change(), 0.8);
}

TEST(Profiler, ConflictUpdatePctUsesEngineWall) {
  // The regression shape behind the >100% bug: a tiny worker wall (the
  // workers parked almost instantly) but a control thread that spent
  // longer merging than any worker was ever awake.  Normalized against
  // the control lane's own phase spans (the engine wall), the share is
  // well-defined and <= 100 by construction.
  Profiler profiler;
  profiler.attach(1, 4);
  profiler.lane(0)->phase_span(0, 100);  // worker awake 100 ns
  profiler.lane(0)->span(ProfCategory::Match, 0, 0, 100);
  // Engine phase span 0..1000, merge 400..950 inside it.
  profiler.control_lane()->phase_span(0, 1000);
  profiler.control_lane()->span(ProfCategory::ConflictUpdate, 0, 400, 950);
  profiler.add_phase(1);

  const ProfileReport report = profiler.report();
  EXPECT_EQ(report.engine_wall_ns, 1000u);
  EXPECT_EQ(report.conflict_update_ns, 550u);
  // Against the worker wall this would have read 550%.
  EXPECT_DOUBLE_EQ(report.conflict_update_pct(), 55.0);
}

TEST(Profiler, ConflictUpdatePctClampsOnAdversarialSpans) {
  // Hand-built lanes can violate the containment invariant; the report
  // must still never print an impossible percentage.
  Profiler profiler;
  profiler.attach(1, 4);
  profiler.control_lane()->phase_span(0, 100);
  profiler.control_lane()->span(ProfCategory::ConflictUpdate, 0, 0, 500);
  const ProfileReport report = profiler.report();
  EXPECT_DOUBLE_EQ(report.conflict_update_pct(), 100.0);
}

TEST(Profiler, AllReportPercentagesInRangeOnRandomLanes) {
  // Property: whatever spans the lanes hold — including spans that
  // overlap, exceed their phase, or sit outside any phase — every
  // percentage the report exposes lands in [0, 100].
  std::mt19937_64 rng(20260807);
  for (int trial = 0; trial < 50; ++trial) {
    Profiler profiler;
    const std::uint32_t workers = 1 + static_cast<std::uint32_t>(rng() % 4);
    profiler.attach(workers, 8);
    auto fill_lane = [&](ProfLane* lane) {
      const int phases = static_cast<int>(rng() % 4);
      for (int p = 0; p < phases; ++p) {
        const std::uint64_t start = rng() % 1000;
        lane->phase_span(start, start + rng() % 2000);
      }
      const int spans = static_cast<int>(rng() % 12);
      for (int s = 0; s < spans; ++s) {
        const auto category =
            static_cast<ProfCategory>(rng() % kProfCategories);
        const std::uint64_t start = rng() % 3000;
        lane->span(category, static_cast<std::uint32_t>(rng() % 4), start,
                   start + rng() % 4000, rng() % 100);
      }
    };
    for (std::uint32_t w = 0; w < workers; ++w) {
      fill_lane(profiler.lane(w));
      for (int b = 0; b < 3; ++b) {
        profiler.lane(w)->bucket_load(static_cast<std::uint32_t>(rng() % 8),
                                      rng() % 10);
      }
    }
    fill_lane(profiler.control_lane());
    profiler.add_phase(rng() % 5, 1 + rng() % 8);

    const ProfileReport report = profiler.report();
    const auto in_range = [&](double pct, const char* what) {
      EXPECT_GE(pct, 0.0) << what << " trial " << trial;
      EXPECT_LE(pct, 100.0) << what << " trial " << trial;
    };
    in_range(report.min_attributed_pct(), "min_attributed_pct");
    in_range(report.conflict_update_pct(), "conflict_update_pct");
    for (const ProfileReport::Worker& w : report.workers) {
      in_range(w.attributed_pct(), "attributed_pct");
      for (std::size_t c = 0; c < kProfCategories; ++c) {
        in_range(safe_pct(w.category_ns[c], w.wall_ns), "category pct");
      }
      in_range(safe_pct(w.unattributed_ns, w.wall_ns), "unattributed pct");
    }
    for (std::size_t c = 0; c < kProfCategories; ++c) {
      in_range(safe_pct(report.total_ns[c], report.total_wall_ns),
               "total category pct");
    }
    for (const ProfileReport::HotBucket& b : report.hot_buckets) {
      in_range(b.share_pct, "hot bucket share");
    }
  }
}

TEST(Profiler, MergeAndHotBucketAccounting) {
  Profiler profiler;
  profiler.attach(2, 8);

  ProfLane* w0 = profiler.lane(0);
  w0->phase_span(0, 100);
  w0->span(ProfCategory::RoundMerge, 0, 0, 10, /*aux=*/4);
  w0->span(ProfCategory::RoundMerge, 1, 10, 20, /*aux=*/6);
  w0->bucket_load(3, 5);
  w0->bucket_load(3, 5);
  w0->bucket_load(0, 1);

  ProfLane* w1 = profiler.lane(1);
  w1->phase_span(0, 100);
  w1->bucket_load(1, 2);

  const ProfileReport report = profiler.report(/*top_k_buckets=*/2);
  EXPECT_EQ(report.merge_rounds, 2u);
  EXPECT_EQ(report.merged_items, 10u);
  EXPECT_EQ(report.max_merge_items, 6u);

  EXPECT_EQ(report.workers[0].activations, 3u);
  EXPECT_EQ(report.workers[1].activations, 1u);

  // Top-2 of three loaded buckets, ordered by activations descending.
  ASSERT_EQ(report.hot_buckets.size(), 2u);
  EXPECT_EQ(report.hot_buckets[0].bucket, 3u);
  EXPECT_EQ(report.hot_buckets[0].worker, 0u);
  EXPECT_EQ(report.hot_buckets[0].activations, 2u);
  EXPECT_EQ(report.hot_buckets[0].tokens_touched, 10u);
  EXPECT_DOUBLE_EQ(report.hot_buckets[0].share_pct, 50.0);
  EXPECT_EQ(report.hot_buckets[1].activations, 1u);
  // Equal activation counts break ties on bucket index: 0 before 1.
  EXPECT_EQ(report.hot_buckets[1].bucket, 0u);
}

TEST(Profiler, ChromeTraceExport) {
  Profiler profiler;
  profiler.attach(1, 4);
  profiler.lane(0)->phase_span(0, 1000);
  profiler.lane(0)->span(ProfCategory::Match, 0, 0, 600);
  profiler.control_lane()->span(ProfCategory::ConflictUpdate, 0, 1000, 1100);

  Tracer tracer;
  profiler.export_chrome_trace(tracer);
  std::ostringstream os;
  tracer.write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("measured worker 0"), std::string::npos);
  EXPECT_NE(json.find("measured control"), std::string::npos);
  EXPECT_NE(json.find("\"match\""), std::string::npos);
  EXPECT_NE(json.find("\"conflict_update\""), std::string::npos);
  EXPECT_NE(json.find("\"phase\""), std::string::npos);
}

TEST(Profiler, PrintReportRendersTables) {
  Profiler profiler;
  profiler.attach(1, 4);
  profiler.lane(0)->phase_span(0, 1000);
  profiler.lane(0)->span(ProfCategory::Match, 0, 0, 600);
  profiler.lane(0)->bucket_load(2, 3);
  profiler.add_phase(1);

  std::ostringstream os;
  print_profile_report(os, profiler.report());
  const std::string text = os.str();
  EXPECT_NE(text.find("wall-clock phase attribution"), std::string::npos);
  EXPECT_NE(text.find("match %"), std::string::npos);
  EXPECT_NE(text.find("hottest buckets"), std::string::npos);
}

}  // namespace
}  // namespace mpps::obs
