// DRAM admission tier tests: policy units (flashiness adaptation,
// write-credit refill/exhaustion), the segmented-LRU DRAM cache, the
// tier's graduate-vs-drop accounting, and the data-plane integration
// invariant — an attached admit-all tier serves byte-identical payloads
// to the un-attached plane, and a zero-byte tier changes nothing at all.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "admit/admission_tier.h"
#include "backend/backend_store.h"
#include "core/data_plane.h"
#include "node_test_util.h"

namespace reo {
namespace {

constexpr uint64_t kChunk = 1024;
constexpr SimTime kSec = 1'000'000'000;

ObjectId Oid(uint64_t n) { return ObjectId{kFirstUserId, 0x30000 + n}; }

AdmissionCandidate Candidate(uint64_t n, uint64_t stored, uint64_t hits) {
  AdmissionCandidate c;
  c.id = Oid(n);
  c.logical_bytes = stored;
  c.stored_bytes = stored;
  c.dram_hits = hits;
  return c;
}

// ---------------------------------------------------------------------------
// Policies
// ---------------------------------------------------------------------------

TEST(AdmissionPolicyTest, ParseNames) {
  AdmissionPolicyKind k;
  EXPECT_TRUE(ParseAdmissionPolicy("all", &k));
  EXPECT_EQ(k, AdmissionPolicyKind::kAdmitAll);
  EXPECT_TRUE(ParseAdmissionPolicy("flashiness", &k));
  EXPECT_EQ(k, AdmissionPolicyKind::kFlashiness);
  EXPECT_TRUE(ParseAdmissionPolicy("credit", &k));
  EXPECT_EQ(k, AdmissionPolicyKind::kWriteCredit);
  EXPECT_FALSE(ParseAdmissionPolicy("lru", &k));
}

TEST(AdmissionPolicyTest, AdmitAllAdmitsEverything) {
  AdmissionConfig cfg;
  auto policy = MakeAdmissionPolicy(cfg);
  EXPECT_EQ(policy->name(), "all");
  EXPECT_TRUE(policy->ShouldAdmit(Candidate(0, kChunk, 0), 0));
  EXPECT_TRUE(policy->ShouldAdmit(Candidate(1, kChunk, 100), 0));
}

TEST(AdmissionPolicyTest, FlashinessThresholdAdapts) {
  AdmissionConfig cfg;
  cfg.policy = AdmissionPolicyKind::kFlashiness;
  cfg.flashiness_target = 0.5;
  cfg.flashiness_window = 4;
  auto policy = MakeAdmissionPolicy(cfg);

  // The threshold starts at 1 observed reuse: no-hit objects drop,
  // one-hit objects graduate.
  EXPECT_FALSE(policy->ShouldAdmit(Candidate(0, kChunk, 0), 0));
  EXPECT_TRUE(policy->ShouldAdmit(Candidate(1, kChunk, 1), 0));

  // A window graduating everything (fraction 1.0 > target 0.5) raises the
  // threshold; the two evictions above already count toward the window.
  EXPECT_TRUE(policy->ShouldAdmit(Candidate(2, kChunk, 5), 0));
  EXPECT_TRUE(policy->ShouldAdmit(Candidate(3, kChunk, 5), 0));
  EXPECT_FALSE(policy->ShouldAdmit(Candidate(4, kChunk, 1), 0))
      << "threshold should have adapted up past 1 hit";

  // Windows graduating nothing walk it back down.
  for (int i = 0; i < 8; ++i) {
    (void)policy->ShouldAdmit(Candidate(100 + i, kChunk, 0), 0);
  }
  EXPECT_TRUE(policy->ShouldAdmit(Candidate(5, kChunk, 1), 0))
      << "threshold should have adapted back down";
}

TEST(AdmissionPolicyTest, WriteCreditSpendsAndRefills) {
  AdmissionConfig cfg;
  cfg.policy = AdmissionPolicyKind::kWriteCredit;
  cfg.flash_write_budget_bps = 1000;
  cfg.credit_burst_seconds = 1.0;  // bucket cap: 1000 bytes
  auto policy = MakeAdmissionPolicy(cfg);
  EXPECT_EQ(policy->name(), "credit");

  // Starts full: an 800-byte graduation is affordable; spending 600 leaves
  // too little for another 600.
  EXPECT_TRUE(policy->ShouldAdmit(Candidate(0, 800, 0), 0));
  policy->OnFlashWrite(600, 0);
  EXPECT_FALSE(policy->ShouldAdmit(Candidate(1, 600, 0), 0));

  // ShouldAdmit itself must not spend: asking twice changes nothing.
  EXPECT_FALSE(policy->ShouldAdmit(Candidate(1, 600, 0), 0));

  // One simulated second refills the budget (capped at the burst size).
  EXPECT_TRUE(policy->ShouldAdmit(Candidate(2, 600, 0), kSec));
  policy->OnFlashWrite(1000, kSec);
  EXPECT_FALSE(policy->ShouldAdmit(Candidate(3, 600, 0), kSec));
  EXPECT_TRUE(policy->ShouldAdmit(Candidate(3, 600, 0), 2 * kSec));
}

// ---------------------------------------------------------------------------
// DramCache
// ---------------------------------------------------------------------------

PayloadBuffer Bytes(size_t n, uint8_t fill) {
  PayloadBuffer b;
  b.resize(n, fill);
  return b;
}

TEST(DramCacheTest, EvictsProbationBeforeProtected) {
  DramCache cache(4 * kChunk, 0.5);
  cache.Put(Oid(0), Bytes(kChunk, 0xA0), kChunk, 3, 0);
  cache.Put(Oid(1), Bytes(kChunk, 0xA1), kChunk, 3, 1);
  cache.Put(Oid(2), Bytes(kChunk, 0xA2), kChunk, 3, 2);

  // A hit promotes object 0 into the protected segment; the victim order
  // becomes probation-oldest-first (1, 2), then the protected survivor.
  ASSERT_NE(cache.Get(Oid(0), 10), nullptr);

  AdmissionCandidate victim;
  PayloadBuffer payload;
  ASSERT_TRUE(cache.PopVictim(&victim, &payload));
  EXPECT_EQ(victim.id, Oid(1));
  ASSERT_TRUE(cache.PopVictim(&victim, &payload));
  EXPECT_EQ(victim.id, Oid(2));
  ASSERT_TRUE(cache.PopVictim(&victim, &payload));
  EXPECT_EQ(victim.id, Oid(0));
  EXPECT_EQ(victim.dram_hits, 1u);
  EXPECT_EQ(payload.size(), kChunk);
  EXPECT_EQ(payload[0], 0xA0);
  EXPECT_FALSE(cache.PopVictim(&victim, &payload));
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(DramCacheTest, TracksBytesAndReuseFeatures) {
  DramCache cache(4 * kChunk, 0.5);
  EXPECT_TRUE(cache.CanHold(4 * kChunk));
  EXPECT_FALSE(cache.CanHold(4 * kChunk + 1));

  cache.Put(Oid(0), Bytes(kChunk, 1), 2 * kChunk, 2, 5);
  EXPECT_EQ(cache.bytes(), kChunk);
  EXPECT_TRUE(cache.HasRoomFor(3 * kChunk));
  EXPECT_FALSE(cache.HasRoomFor(4 * kChunk));

  const DramCache::Entry* e = cache.Get(Oid(0), 17);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->hits, 1u);
  EXPECT_EQ(e->staged_at, 5u);
  EXPECT_EQ(e->last_hit, 17u);
  EXPECT_EQ(e->logical_bytes, 2 * kChunk);
  EXPECT_EQ(e->class_id, 2);

  // Peek observes without perturbing; SetClass updates in place.
  EXPECT_EQ(cache.Peek(Oid(0))->hits, 1u);
  EXPECT_TRUE(cache.SetClass(Oid(0), 3));
  EXPECT_EQ(cache.Peek(Oid(0))->class_id, 3);
  EXPECT_FALSE(cache.SetClass(Oid(9), 3));

  // Replacing an entry releases the old bytes first.
  cache.Put(Oid(0), Bytes(2 * kChunk, 2), 2 * kChunk, 3, 20);
  EXPECT_EQ(cache.bytes(), 2 * kChunk);

  EXPECT_TRUE(cache.Erase(Oid(0)));
  EXPECT_FALSE(cache.Erase(Oid(0)));
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------------------------------------------
// AdmissionTier
// ---------------------------------------------------------------------------

struct TierFixture {
  explicit TierFixture(AdmissionPolicyKind policy, uint64_t dram_bytes,
                       bool fail_writes = false) {
    AdmissionConfig cfg;
    cfg.dram_bytes = dram_bytes;
    cfg.policy = policy;
    cfg.flashiness_window = 1 << 20;  // hold the threshold at 1 for tests
    tier = std::make_unique<AdmissionTier>(cfg);
    tier->SetFlashWriter([this, fail_writes](ObjectId id,
                                             std::span<const uint8_t> payload,
                                             uint64_t, uint8_t class_id,
                                             SimTime) -> Status {
      if (fail_writes) return Status(ErrorCode::kNoSpace, "full");
      flash_writes.push_back({id, class_id, payload.size()});
      return Status::Ok();
    });
  }

  Status Stage(uint64_t n, uint64_t stored, uint8_t cls, SimTime now) {
    return tier->Stage(Oid(n), Bytes(stored, static_cast<uint8_t>(n)), stored,
                       cls, now);
  }

  struct FlashWrite {
    ObjectId id;
    uint8_t class_id;
    size_t bytes;
  };
  std::unique_ptr<AdmissionTier> tier;
  std::vector<FlashWrite> flash_writes;
};

TEST(AdmissionTierTest, DisabledTierStagesNothing) {
  TierFixture fx(AdmissionPolicyKind::kAdmitAll, 0);
  EXPECT_FALSE(fx.tier->enabled());
  EXPECT_FALSE(fx.tier->CanHold(1));
}

TEST(AdmissionTierTest, AdmitAllGraduatesEveryEviction) {
  TierFixture fx(AdmissionPolicyKind::kAdmitAll, 2 * kChunk);
  ASSERT_TRUE(fx.Stage(0, kChunk, 3, 0).ok());
  ASSERT_TRUE(fx.Stage(1, kChunk, 3, 1).ok());
  EXPECT_TRUE(fx.flash_writes.empty());

  // The third staging evicts the LRU victim, which graduates to flash.
  ASSERT_TRUE(fx.Stage(2, kChunk, 3, 2).ok());
  ASSERT_EQ(fx.flash_writes.size(), 1u);
  EXPECT_EQ(fx.flash_writes[0].id, Oid(0));

  const AdmissionStats& s = fx.tier->stats();
  EXPECT_EQ(s.staged, 3u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.graduated, 1u);
  EXPECT_EQ(s.dropped, 0u);
  EXPECT_EQ(s.graduated + s.dropped, s.evictions);
}

TEST(AdmissionTierTest, FlashinessGraduatesReusedDropsCold) {
  TierFixture fx(AdmissionPolicyKind::kFlashiness, 2 * kChunk);
  ASSERT_TRUE(fx.Stage(0, kChunk, 3, 0).ok());
  ASSERT_TRUE(fx.Stage(1, kChunk, 3, 1).ok());
  // Object 0 earns a DRAM hit (promoting it); object 1 never does.
  ASSERT_NE(fx.tier->Lookup(Oid(0), 2), nullptr);
  EXPECT_EQ(fx.tier->Lookup(Oid(9), 2), nullptr);

  // Evict both: 1 (probation, no reuse) drops; 0 (protected, one hit)
  // graduates.
  ASSERT_TRUE(fx.Stage(2, 2 * kChunk, 3, 3).ok());
  ASSERT_EQ(fx.flash_writes.size(), 1u);
  EXPECT_EQ(fx.flash_writes[0].id, Oid(0));

  const AdmissionStats& s = fx.tier->stats();
  EXPECT_EQ(s.dram_hits, 1u);
  EXPECT_EQ(s.dram_misses, 1u);
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_EQ(s.graduated, 1u);
  EXPECT_EQ(s.dropped, 1u);
  EXPECT_EQ(s.graduated + s.dropped, s.evictions);
}

TEST(AdmissionTierTest, HotnessHookControlsGraduationClass) {
  TierFixture fx(AdmissionPolicyKind::kAdmitAll, kChunk);
  fx.tier->SetHotnessHook([](ObjectId, uint64_t, uint64_t dram_hits,
                             uint8_t staged_class) -> uint8_t {
    return dram_hits > 0 ? 2 : staged_class;
  });
  ASSERT_TRUE(fx.Stage(0, kChunk, 3, 0).ok());
  ASSERT_NE(fx.tier->Lookup(Oid(0), 1), nullptr);
  ASSERT_TRUE(fx.Stage(1, kChunk, 3, 2).ok());
  ASSERT_EQ(fx.flash_writes.size(), 1u);
  EXPECT_EQ(fx.flash_writes[0].class_id, 2) << "observed reuse -> hot clean";
}

TEST(AdmissionTierTest, FailedGraduationCountsAsDrop) {
  TierFixture fx(AdmissionPolicyKind::kAdmitAll, kChunk, /*fail_writes=*/true);
  ASSERT_TRUE(fx.Stage(0, kChunk, 3, 0).ok());
  ASSERT_TRUE(fx.Stage(1, kChunk, 3, 1).ok());
  const AdmissionStats& s = fx.tier->stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.graduated, 0u);
  EXPECT_EQ(s.dropped, 1u);
  EXPECT_EQ(s.graduate_failures, 1u);
  EXPECT_EQ(s.graduated + s.dropped, s.evictions);
}

TEST(AdmissionTierTest, GraduateNowWritesAndMaintainsInvariant) {
  TierFixture fx(AdmissionPolicyKind::kAdmitAll, 2 * kChunk);
  ASSERT_TRUE(fx.Stage(0, kChunk, 3, 0).ok());
  ASSERT_TRUE(fx.tier->GraduateNow(Oid(0), 1, 5).ok());
  EXPECT_FALSE(fx.tier->Contains(Oid(0)));
  ASSERT_EQ(fx.flash_writes.size(), 1u);
  EXPECT_EQ(fx.flash_writes[0].class_id, 1) << "reclass forces the new class";

  const AdmissionStats& s = fx.tier->stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.graduated, 1u);
  EXPECT_EQ(s.graduated + s.dropped, s.evictions);

  EXPECT_FALSE(fx.tier->GraduateNow(Oid(0), 1, 6).ok()) << "already gone";
}

TEST(AdmissionTierTest, OversizedObjectIsRejected) {
  TierFixture fx(AdmissionPolicyKind::kAdmitAll, kChunk);
  EXPECT_FALSE(fx.Stage(0, 2 * kChunk, 3, 0).ok());
  EXPECT_EQ(fx.tier->stats().staged, 0u);
}

// ---------------------------------------------------------------------------
// Data-plane integration
// ---------------------------------------------------------------------------

struct PlaneFixture {
  PlaneFixture()
      : node(TestNode(256 * kChunk, kChunk, ProtectionMode::kReo, 0.2)) {}

  Result<DataPlaneIo> Write(uint64_t n, uint64_t logical, uint8_t cls) {
    auto payload = BackendStore::SynthesizePayload(
        Oid(n), 0, stripes->PhysicalSize(logical));
    return plane->WriteObject(Oid(n), payload, logical, cls, 0);
  }

  std::unique_ptr<NodeStack> node;
  FlashArray* array = &node->array();
  StripeManager* stripes = &node->stripes();
  ReoDataPlane* plane = &node->plane();
};

TEST(AdmissionPlaneTest, AdmitAllTierServesByteIdenticalReads) {
  PlaneFixture bare;
  PlaneFixture tiered;
  AdmissionConfig cfg;
  cfg.dram_bytes = 64 * kChunk;
  AdmissionTier tier(cfg);
  tiered.plane->AttachAdmission(tier);

  for (uint64_t n = 0; n < 16; ++n) {
    uint8_t cls = static_cast<uint8_t>(n % 4);
    ASSERT_TRUE(bare.Write(n, 2 * kChunk, cls).ok());
    ASSERT_TRUE(tiered.Write(n, 2 * kChunk, cls).ok());
  }
  EXPECT_GT(tier.stats().staged, 0u) << "clean classes should stage";
  EXPECT_GT(tier.stats().bypass, 0u) << "durability classes should bypass";

  for (uint64_t n = 0; n < 16; ++n) {
    auto a = bare.plane->ReadObject(Oid(n), 1);
    auto b = tiered.plane->ReadObject(Oid(n), 1);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->payload, b->payload) << "object " << n;
  }
}

TEST(AdmissionPlaneTest, ZeroByteTierChangesNothing) {
  PlaneFixture bare;
  PlaneFixture tiered;
  AdmissionTier tier(AdmissionConfig{});  // dram_bytes == 0
  tiered.plane->AttachAdmission(tier);

  for (uint64_t n = 0; n < 8; ++n) {
    ASSERT_TRUE(bare.Write(n, 2 * kChunk, 3).ok());
    ASSERT_TRUE(tiered.Write(n, 2 * kChunk, 3).ok());
  }
  EXPECT_EQ(tier.stats().staged, 0u);
  EXPECT_EQ(tier.dram_objects(), 0u);
  EXPECT_EQ(bare.stripes->Space().user_bytes, tiered.stripes->Space().user_bytes);
  EXPECT_EQ(bare.stripes->Space().redundancy_bytes,
            tiered.stripes->Space().redundancy_bytes);

  for (uint64_t n = 0; n < 8; ++n) {
    auto a = bare.plane->ReadObject(Oid(n), 1);
    auto b = tiered.plane->ReadObject(Oid(n), 1);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->payload, b->payload);
  }
}

TEST(AdmissionPlaneTest, StagedObjectLifecycle) {
  PlaneFixture fx;
  AdmissionConfig cfg;
  cfg.dram_bytes = 64 * kChunk;
  AdmissionTier tier(cfg);
  fx.plane->AttachAdmission(tier);

  // A clean write stages in DRAM: readable, healthy, not yet on flash.
  ASSERT_TRUE(fx.Write(0, 2 * kChunk, 3).ok());
  EXPECT_TRUE(tier.Contains(Oid(0)));
  EXPECT_FALSE(fx.stripes->Contains(Oid(0)));
  EXPECT_EQ(fx.plane->Health(Oid(0)), ObjectHealth::kIntact);
  auto r = fx.plane->ReadObject(Oid(0), 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(tier.stats().dram_hits, 1u);

  // Reclass to a durability class graduates immediately.
  ASSERT_TRUE(fx.plane->SetObjectClass(Oid(0), 1, 2).ok());
  EXPECT_FALSE(tier.Contains(Oid(0)));
  EXPECT_TRUE(fx.stripes->Contains(Oid(0)));
  EXPECT_EQ(tier.stats().graduated, 1u);

  // A DRAM-only object removes cleanly without ever touching flash.
  ASSERT_TRUE(fx.Write(1, 2 * kChunk, 3).ok());
  ASSERT_TRUE(fx.plane->RemoveObject(Oid(1)).ok());
  EXPECT_FALSE(tier.Contains(Oid(1)));
  EXPECT_FALSE(fx.stripes->Contains(Oid(1)));

  const AdmissionStats& s = tier.stats();
  EXPECT_EQ(s.graduated + s.dropped, s.evictions);
}

}  // namespace
}  // namespace reo
