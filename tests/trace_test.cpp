// Tracing layer tests: span-ring semantics, context propagation and
// nesting, sampling, the event log, the Chrome trace exporter, and the
// end-to-end degraded-read trace the ISSUE's waterfall deliverable needs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/cache_manager.h"
#include "osd/transport.h"
#include "trace/chrome_trace.h"
#include "trace/json_lint.h"
#include "trace/tracer.h"
#include "node_test_util.h"

namespace reo {
namespace {

constexpr uint64_t kChunk = 1024;

ObjectId Oid(uint64_t n) { return ObjectId{kFirstUserId, 0x20000 + n}; }

// --- Unit: rings, guards, sampling -----------------------------------------

TEST(SpanRecorderTest, RingOverwritesOldestAndCountsDrops) {
  Tracer tracer({.spans_per_component = 4});
  SpanRecorder& rec = tracer.RecorderFor(TraceComponent::kFlashDevice);
  SpanRecorder& root = tracer.RecorderFor(TraceComponent::kCacheManager);
  RequestTrace rt(&tracer, &root, TraceOp::kGet, 0);
  for (SimTime t = 0; t < 10; ++t) {
    rec.Record(TraceOp::kDeviceRead, t, t + 1);
  }
  EXPECT_EQ(rec.total(), 10u);
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);
  // Retained records are the newest four, visited oldest-first.
  std::vector<SimTime> starts;
  rec.ForEach([&](const SpanRecord& r) { starts.push_back(r.start); });
  EXPECT_EQ(starts, (std::vector<SimTime>{6, 7, 8, 9}));
}

TEST(SpanRecorderTest, UnattachedAndIdleAreInert) {
  // Un-attached component: null recorder, the guard never activates.
  TraceSpan dead(nullptr, TraceOp::kDataRead, 5);
  EXPECT_FALSE(dead.active());

  // Attached but no trace open: leaf records are dropped at the gate.
  Tracer tracer;
  SpanRecorder& rec = tracer.RecorderFor(TraceComponent::kBackend);
  rec.Record(TraceOp::kBackendFetch, 0, 10);
  TraceSpan idle(&rec, TraceOp::kBackendFetch, 0);
  EXPECT_FALSE(idle.active());
  idle.Finish();
  EXPECT_EQ(rec.total(), 0u);

  // Null tracer: request guard is inert too.
  RequestTrace rt(nullptr, nullptr, TraceOp::kGet, 0);
  EXPECT_FALSE(rt.sampled());
}

TEST(TracerTest, SamplesOneInNButForcedRootsAlways) {
  Tracer tracer({.sample_every = 3});
  SpanRecorder& root = tracer.RecorderFor(TraceComponent::kCacheManager);
  int sampled = 0;
  for (int i = 0; i < 9; ++i) {
    RequestTrace rt(&tracer, &root, TraceOp::kGet, 0);
    if (rt.sampled()) ++sampled;
  }
  EXPECT_EQ(sampled, 3);
  // Failure-plane roots bypass sampling.
  for (int i = 0; i < 4; ++i) {
    RequestTrace rt(&tracer, &root, TraceOp::kFailureHandling, 0, 0,
                    /*force=*/true);
    EXPECT_TRUE(rt.sampled());
  }
  TraceStats stats = tracer.Stats();
  EXPECT_EQ(stats.requests_seen, 13u);
  EXPECT_EQ(stats.traces_sampled, 7u);
  EXPECT_EQ(stats.spans_recorded, 7u);
}

TEST(TracerTest, NestedSpansShareTraceAndChainParents) {
  Tracer tracer;
  SpanRecorder& root_rec = tracer.RecorderFor(TraceComponent::kCacheManager);
  SpanRecorder& mid_rec = tracer.RecorderFor(TraceComponent::kDataPlane);
  SpanRecorder& leaf_rec = tracer.RecorderFor(TraceComponent::kFlashDevice, 2);
  {
    RequestTrace rt(&tracer, &root_rec, TraceOp::kGet, 100, 42);
    {
      TraceSpan mid(&mid_rec, TraceOp::kDataRead, 110, 42);
      leaf_rec.Record(TraceOp::kDeviceRead, 120, 130, 42);
      mid.set_end(140);
    }
    rt.set_end(150);
  }
  SpanRecord root{}, mid{}, leaf{};
  root_rec.ForEach([&](const SpanRecord& r) { root = r; });
  mid_rec.ForEach([&](const SpanRecord& r) { mid = r; });
  leaf_rec.ForEach([&](const SpanRecord& r) { leaf = r; });

  EXPECT_NE(root.trace_id, 0u);
  EXPECT_EQ(mid.trace_id, root.trace_id);
  EXPECT_EQ(leaf.trace_id, root.trace_id);
  EXPECT_EQ(root.parent_id, kNoSpan);
  EXPECT_EQ(mid.parent_id, root.span_id);
  EXPECT_EQ(leaf.parent_id, mid.span_id);
  EXPECT_EQ(leaf.instance, 2u);
  EXPECT_EQ(root.object, 42u);
  // A fresh root after the scope closed gets a new trace id.
  RequestTrace rt2(&tracer, &root_rec, TraceOp::kPut, 200);
  ASSERT_TRUE(rt2.sampled());
  EXPECT_NE(rt2.context()->trace_id, root.trace_id);
}

TEST(EventLogTest, BoundedKeepsEarliestAndLooksUpFields) {
  EventLog log(2);
  log.Emit(10, EventSeverity::kError, "device.failure", "first",
           {{"device", "0"}});
  log.Emit(20, EventSeverity::kInfo, "recovery.rebuild", "second",
           {{"class", "1"}, {"mode", "on-demand"}});
  log.Emit(30, EventSeverity::kInfo, "recovery.rebuild", "third");
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.dropped(), 1u);
  EXPECT_EQ(log.events()[0].message, "first");
  EXPECT_EQ(log.events()[1].Field("mode"), "on-demand");
  EXPECT_EQ(log.events()[1].Field("missing"), "");
  std::string text = log.ToText();
  EXPECT_NE(text.find("device.failure"), std::string::npos);
  EXPECT_NE(text.find("mode=on-demand"), std::string::npos);
}

// --- Integration: the full stack under trace -------------------------------

/// cache_manager_test's fixture plus a Tracer and the wire transport, so a
/// request crosses transport -> osd_target -> data_plane -> flash.
struct TracedFixture {
  explicit TracedFixture(ProtectionMode mode = ProtectionMode::kUniform1,
                         TracerConfig tcfg = {})
      : tracer(tcfg),
        node(TestNode(256 * kChunk, kChunk, mode, 0.25)) {
    backend = std::make_unique<BackendStore>(HddConfig{}, NetworkLinkConfig{});
    cache = std::make_unique<CacheManager>(*target, *plane, *backend,
                                           CacheManagerConfig{});
    transport = std::make_unique<OsdTransport>(*target);
    cache->initiator_mutable().UseTransport(transport.get());

    cache->AttachTracing(tracer);
    target->AttachTracing(tracer);
    transport->AttachTracing(tracer);
    cache->Initialize(0);
  }

  void Register(uint64_t n, uint64_t logical) {
    backend->RegisterObject(Oid(n), logical, stripes->PhysicalSize(logical));
    sizes[n] = logical;
  }
  RequestResult Get(uint64_t n) {
    auto r = cache->Get(Oid(n), sizes.at(n), clock.now());
    clock.Advance(r.latency);
    return r;
  }

  std::vector<SpanRecord> SpansOfTrace(TraceId id) const {
    std::vector<SpanRecord> out;
    tracer.ForEachRecorder([&](const SpanRecorder& rec) {
      rec.ForEach([&](const SpanRecord& r) {
        if (r.trace_id == id) out.push_back(r);
      });
    });
    return out;
  }

  Tracer tracer;
  std::unique_ptr<NodeStack> node;
  FlashArray* array = &node->array();
  StripeManager* stripes = &node->stripes();
  ReoDataPlane* plane = &node->plane();
  OsdTarget* target = &node->target();
  std::unique_ptr<BackendStore> backend;
  std::unique_ptr<CacheManager> cache;
  std::unique_ptr<OsdTransport> transport;
  std::unordered_map<uint64_t, uint64_t> sizes;
  SimClock clock;
};

TEST(TraceIntegrationTest, DegradedReadTraceNestsAcrossAllLayers) {
  // Uniform 1-parity: after one failure every read of the damaged object
  // is served degraded (no repair-on-read), deterministically exercising
  // the reconstruction path.
  TracedFixture fx;
  fx.Register(1, 8 * kChunk);
  ASSERT_FALSE(fx.Get(1).hit);
  fx.cache->OnDeviceFailure(0, fx.clock.now());

  auto r = fx.Get(1);
  ASSERT_TRUE(r.hit);
  ASSERT_TRUE(r.degraded);

  // The degraded read is the newest cache_manager root span.
  SpanRecord root{};
  fx.tracer.ForEachRecorder([&](const SpanRecorder& rec) {
    if (rec.component() != TraceComponent::kCacheManager) return;
    rec.ForEach([&](const SpanRecord& rr) {
      if (rr.parent_id == kNoSpan) root = rr;
    });
  });
  ASSERT_EQ(root.op, TraceOp::kGetDegraded);
  EXPECT_TRUE(root.flags & kSpanDegraded);
  EXPECT_EQ(root.object, Oid(1).oid);

  auto spans = fx.SpansOfTrace(root.trace_id);
  auto first_in = [&](TraceComponent c) -> const SpanRecord* {
    for (const auto& s : spans) {
      if (s.component == c) return &s;
    }
    return nullptr;
  };
  const SpanRecord* wire = first_in(TraceComponent::kTransport);
  const SpanRecord* osd = first_in(TraceComponent::kOsdTarget);
  const SpanRecord* data = first_in(TraceComponent::kDataPlane);
  const SpanRecord* recon = first_in(TraceComponent::kReconstruction);
  const SpanRecord* dev = first_in(TraceComponent::kFlashDevice);
  ASSERT_NE(wire, nullptr);
  ASSERT_NE(osd, nullptr);
  ASSERT_NE(data, nullptr);
  ASSERT_NE(recon, nullptr);
  ASSERT_NE(dev, nullptr);

  // Parent chain: root -> transport -> osd_target -> data_plane.
  EXPECT_EQ(wire->parent_id, root.span_id);
  EXPECT_EQ(osd->parent_id, wire->span_id);
  EXPECT_EQ(data->parent_id, osd->span_id);
  EXPECT_EQ(recon->parent_id, data->span_id);
  EXPECT_EQ(recon->op, TraceOp::kStripeDecode);

  // Virtual-clock containment down the waterfall.
  auto within = [](const SpanRecord& inner, const SpanRecord& outer) {
    return outer.start <= inner.start && inner.end <= outer.end;
  };
  EXPECT_TRUE(within(*wire, root));
  EXPECT_TRUE(within(*osd, *wire));
  EXPECT_TRUE(within(*data, *osd));
  EXPECT_TRUE(within(*recon, *data));
  // Survivor reads land on the device tracks during the decode.
  EXPECT_GE(dev->start, root.start);
  EXPECT_EQ(dev->op, TraceOp::kDeviceRead);

  // The degraded flag propagates to the layers that saw it.
  EXPECT_TRUE(wire->flags & kSpanDegraded);
  EXPECT_TRUE(osd->flags & kSpanDegraded);
  EXPECT_TRUE(data->flags & kSpanDegraded);
}

TEST(TraceIntegrationTest, FailureEmitsEventsAndForcedTrace) {
  TracedFixture fx(ProtectionMode::kUniform1, {.sample_every = 1000000});
  fx.Register(1, 4 * kChunk);
  fx.Register(2, 4 * kChunk);
  fx.Get(1);  // root #1 — the 1-in-N sampler always takes the first
  fx.Get(2);  // unsampled at 1-in-1e6
  uint64_t sampled_before = fx.tracer.Stats().traces_sampled;
  EXPECT_EQ(sampled_before, 1u);

  fx.cache->OnDeviceFailure(0, fx.clock.now());
  // The failure-plane root is forced past the sampler...
  EXPECT_GT(fx.tracer.Stats().traces_sampled, sampled_before);
  // ...and the structured events are on the log.
  const auto& events = fx.tracer.events().events();
  auto has = [&](std::string_view cat) {
    return std::any_of(events.begin(), events.end(), [&](const LoggedEvent& e) {
      return e.category == cat;
    });
  };
  EXPECT_TRUE(has("device.failure"));
}

TEST(TraceIntegrationTest, ChromeTraceJsonIsWellFormed) {
  TracedFixture fx;
  fx.Register(1, 8 * kChunk);
  fx.Register(2, 4 * kChunk);
  fx.Get(1);
  fx.Get(2);
  fx.cache->OnDeviceFailure(0, fx.clock.now());
  fx.Get(1);
  fx.cache->DrainRecovery(fx.clock.now());

  std::string json = ChromeTraceJson(fx.tracer);
  JsonLintResult lint = LintJson(json);
  EXPECT_TRUE(lint.ok) << lint.error << " at " << lint.error_offset;
  EXPECT_GT(lint.complete_events, 0u);
  EXPECT_GT(lint.metadata_events, 0u);
  EXPECT_GT(lint.instant_events, 0u);
  // One named track per populated component + the process + event tracks.
  EXPECT_NE(json.find("\"name\":\"transport\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"flash.dev0\""), std::string::npos);

  std::string report = TraceReportText(fx.tracer);
  EXPECT_NE(report.find("Recovery timeline"), std::string::npos);
  EXPECT_NE(report.find("Trace accounting"), std::string::npos);
}

}  // namespace
}  // namespace reo
