// Differentiated-recovery ordering tests (paper §IV.D): class 0 first,
// then class 1, 2, 3; hottest first within a class — at the scheduler
// level and as observed through the EventLog's recovery timeline.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/cache_manager.h"
#include "core/recovery_scheduler.h"
#include "trace/tracer.h"
#include "node_test_util.h"

namespace reo {
namespace {

ObjectId Oid(uint64_t n) { return ObjectId{kFirstUserId, 0x20000 + n}; }

TEST(RecoverySchedulerTest, ClassOrderDominates) {
  RecoveryScheduler s;
  s.Enqueue(Oid(3), DataClass::kColdClean, 99.0, 10);
  s.Enqueue(Oid(2), DataClass::kHotClean, 0.5, 10);
  s.Enqueue(Oid(0), DataClass::kMetadata, 0.0, 10);
  s.Enqueue(Oid(1), DataClass::kDirty, 0.1, 10);

  EXPECT_EQ(*s.Pop(), Oid(0));  // metadata first
  EXPECT_EQ(*s.Pop(), Oid(1));  // dirty
  EXPECT_EQ(*s.Pop(), Oid(2));  // hot clean
  EXPECT_EQ(*s.Pop(), Oid(3));  // cold clean — even with the highest H
  EXPECT_FALSE(s.Pop().has_value());
}

TEST(RecoverySchedulerTest, HotFirstWithinClass) {
  RecoveryScheduler s;
  s.Enqueue(Oid(1), DataClass::kHotClean, 0.1, 1);
  s.Enqueue(Oid(2), DataClass::kHotClean, 0.9, 1);
  s.Enqueue(Oid(3), DataClass::kHotClean, 0.5, 1);
  EXPECT_EQ(*s.Pop(), Oid(2));
  EXPECT_EQ(*s.Pop(), Oid(3));
  EXPECT_EQ(*s.Pop(), Oid(1));
}

TEST(RecoverySchedulerTest, PendingBytesTracked) {
  RecoveryScheduler s;
  s.Enqueue(Oid(1), DataClass::kHotClean, 0.1, 100);
  s.Enqueue(Oid(2), DataClass::kHotClean, 0.2, 50);
  EXPECT_EQ(s.pending_bytes(), 150u);
  s.Remove(Oid(1));
  EXPECT_EQ(s.pending_bytes(), 50u);
  EXPECT_EQ(s.size(), 1u);
  s.Clear();
  EXPECT_EQ(s.pending_bytes(), 0u);
  EXPECT_TRUE(s.empty());
}

TEST(RecoverySchedulerTest, ReEnqueueReplaces) {
  RecoveryScheduler s;
  s.Enqueue(Oid(1), DataClass::kColdClean, 0.1, 100);
  s.Enqueue(Oid(2), DataClass::kHotClean, 0.5, 10);
  // Re-prioritize object 1 as dirty: it must now pop first.
  s.Enqueue(Oid(1), DataClass::kDirty, 0.1, 100);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.pending_bytes(), 110u);
  EXPECT_EQ(*s.Pop(), Oid(1));
}

TEST(RecoverySchedulerTest, RemoveMissingIsNoop) {
  RecoveryScheduler s;
  s.Remove(Oid(7));
  EXPECT_TRUE(s.empty());
}

TEST(RecoverySchedulerTest, PeekDoesNotConsume) {
  RecoveryScheduler s;
  s.Enqueue(Oid(1), DataClass::kDirty, 0.1, 1);
  EXPECT_EQ(*s.Peek(), Oid(1));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(*s.Pop(), Oid(1));
}

TEST(RecoverySchedulerTest, DeterministicTieBreakById) {
  RecoveryScheduler s;
  s.Enqueue(Oid(5), DataClass::kHotClean, 0.5, 1);
  s.Enqueue(Oid(3), DataClass::kHotClean, 0.5, 1);
  EXPECT_EQ(*s.Pop(), Oid(3));
  EXPECT_EQ(*s.Pop(), Oid(5));
}

TEST(RecoveryTimelineTest, EventLogShowsDifferentiatedOrder) {
  // End-to-end view of the same ordering through the structured event log:
  // a device failure emits "device.failure" first, the critical classes
  // (0 metadata, 1 dirty) rebuild synchronously inside the handler
  // (mode=on-demand), and the drain rebuilds the rest in nondecreasing
  // class order (mode=background), closed by "recovery.complete".
  constexpr uint64_t kChunk = 1024;
  auto node = TestNode(256 * kChunk, kChunk, ProtectionMode::kReo, 0.25);
  StripeManager* stripes = &node->stripes();
  auto backend = std::make_unique<BackendStore>(HddConfig{}, NetworkLinkConfig{});
  CacheManagerConfig cfg;
  cfg.hhot_refresh_interval = 10;
  auto cache = std::make_unique<CacheManager>(node->target(), node->plane(),
                                              *backend, cfg);
  Tracer tracer;
  cache->AttachTracing(tracer);
  cache->Initialize(0);

  SimClock clock;
  auto run = [&](auto&& fn) { clock.Advance(fn(clock.now()).latency); };
  // Class 1: a dirty write. Class 2: a hammered-hot object. Class 3: a
  // cold single-access object (unprotected; lost, not rebuilt).
  backend->RegisterObject(Oid(1), 4 * kChunk, stripes->PhysicalSize(4 * kChunk));
  backend->RegisterObject(Oid(2), 8 * kChunk, stripes->PhysicalSize(8 * kChunk));
  backend->RegisterObject(Oid(3), 8 * kChunk, stripes->PhysicalSize(8 * kChunk));
  run([&](SimTime t) { return cache->Put(Oid(1), 4 * kChunk, t); });
  for (int i = 0; i < 12; ++i) {
    run([&](SimTime t) { return cache->Get(Oid(2), 8 * kChunk, t); });
  }
  ASSERT_EQ(*stripes->LevelOf(Oid(2)), RedundancyLevel::kParity2);
  run([&](SimTime t) { return cache->Get(Oid(3), 8 * kChunk, t); });

  cache->OnDeviceFailure(0, clock.now());
  cache->DrainRecovery(clock.now());

  const auto& events = tracer.events().events();
  int failure_at = -1, complete_at = -1;
  std::vector<std::pair<int, const LoggedEvent*>> rebuilds;  // (index, event)
  for (size_t i = 0; i < events.size(); ++i) {
    const LoggedEvent& e = events[i];
    if (e.category == "device.failure" && failure_at < 0) {
      failure_at = static_cast<int>(i);
    } else if (e.category == "recovery.complete") {
      complete_at = static_cast<int>(i);
    } else if (e.category == "recovery.rebuild") {
      rebuilds.emplace_back(static_cast<int>(i), &e);
    }
  }
  ASSERT_GE(failure_at, 0);
  ASSERT_GE(complete_at, 0);
  ASSERT_FALSE(rebuilds.empty());

  // Every rebuild sits between the failure and the completion event, and
  // the on-demand (critical, class <= 1) block strictly precedes the
  // background block, whose classes never decrease.
  bool seen_background = false;
  int prev_background_class = -1;
  for (const auto& [idx, e] : rebuilds) {
    EXPECT_GT(idx, failure_at);
    EXPECT_LT(idx, complete_at);
    int cls = std::stoi(std::string(e->Field("class")));
    if (e->Field("mode") == "on-demand") {
      EXPECT_FALSE(seen_background) << "critical rebuild after background";
      EXPECT_LE(cls, 1);
    } else {
      ASSERT_EQ(e->Field("mode"), "background");
      seen_background = true;
      EXPECT_GE(cls, prev_background_class);
      prev_background_class = cls;
    }
  }
  EXPECT_TRUE(seen_background);  // the hot clean object went through drain

  // The rolled-up timeline mentions the milestones and the class tallies.
  std::string timeline = tracer.events().RecoveryTimeline();
  EXPECT_NE(timeline.find("device.failure"), std::string::npos);
  EXPECT_NE(timeline.find("rebuilds by class"), std::string::npos);
  EXPECT_NE(timeline.find("recovery.complete"), std::string::npos);
}

}  // namespace
}  // namespace reo
