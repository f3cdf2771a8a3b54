// Reference-oracle equivalence suite (DESIGN.md "Indexed scheduler and
// allocator structures"): the EDF heaps, the O(1) frame accounting and the
// free-frame index must make exactly the picks the linear reference scans in
// tests/reference_picks.h make. Each test drives one structure through an
// operation script, asks the oracle before every real call, asserts the
// same choice, and audits the indexes after it. Covered here:
//   * EDF heap decrease/increase-key across Charge and periodic refresh,
//     plus the exhausted/idle transitions each pick applies
//   * reclaimable counters and victim/colour/region choices across
//     nail/unnail, steals, frees, and client teardown
//   * the auditor's indexed-structures rule trips on injected corruption
// Scenario-level identity (whole traces of 20 generated seeds and a
// 32-tenant storm) is pinned by the golden digests (tools/golden.py).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/check/invariants.h"
#include "src/core/system.h"
#include "src/kernel/ramtab.h"
#include "src/mm/frames_allocator.h"
#include "src/sched/atropos.h"
#include "src/sim/simulator.h"
#include "tests/reference_picks.h"

namespace nemesis {
namespace {

// --- EDF heap unit tests ----------------------------------------------------

QosSpec Spec(int64_t period_ms, int64_t slice_ms, int64_t laxity_ms = 0, bool extra = false) {
  return QosSpec{Milliseconds(period_ms), Milliseconds(slice_ms), extra, Milliseconds(laxity_ms)};
}

// One scheduler driven by an operation script. Every Charge is a heap
// increase-key (deadline advances on refresh) and every periodic
// reallocation a decrease-key relative to peers; each pick is checked
// against the reference oracle before it is taken, so a stale key shows as
// the first diverging pick.
struct CheckedSched {
  Simulator sim;
  AtroposScheduler sched{sim};
  std::vector<SchedClientId> live;
  std::map<SchedClientId, SimDuration> charged;  // what Step charged, per client

  SchedClientId Admit(const std::string& name, QosSpec spec) {
    auto id = sched.Admit(name, spec);
    EXPECT_TRUE(id.has_value());
    live.push_back(*id);
    return *id;
  }

  void Remove(SchedClientId id) {
    sched.Remove(id);
    std::erase(live, id);
    EXPECT_EQ(sched.AuditIndexes(), "");
  }

  void SetQueued(SchedClientId id, uint32_t queued) {
    sched.SetQueued(id, queued);
    EXPECT_EQ(sched.AuditIndexes(), "");
  }

  // One pick+charge step; returns false when PickNext found nobody (after
  // checking the slack fallback). Asserts the pick, the transitions it
  // applied and the slack choice all match the oracle.
  bool Step() {
    const auto want = reference::EdfPick(sched, live);
    std::vector<SchedClientState> want_states;
    for (const SchedClientId id : live) {
      want_states.push_back(reference::StateAfterPick(sched, id));
    }
    const auto got = sched.PickNext();
    EXPECT_EQ(sched.AuditIndexes(), "");
    for (size_t i = 0; i < live.size(); ++i) {
      EXPECT_EQ(sched.state(live[i]), want_states[i]) << "client " << live[i];
    }
    EXPECT_EQ(got.has_value(), want.has_value());
    if (!got.has_value()) {
      const auto want_slack = reference::SlackPick(sched, live);
      EXPECT_EQ(sched.PickSlack(), want_slack);
      return false;
    }
    if (want.has_value()) {
      EXPECT_EQ(got->client, want->client);
      EXPECT_EQ(got->lax, want->lax);
      EXPECT_EQ(got->budget, want->budget);
      EXPECT_EQ(got->slice_remaining, want->slice_remaining);
      EXPECT_EQ(got->deadline, want->deadline);
    }
    sched.Charge(got->client, got->budget, got->lax);
    charged[got->client] += got->budget;
    EXPECT_EQ(sched.AuditIndexes(), "");
    return true;
  }
};

TEST(EdfHeapEquivalence, ChargeAndRefreshKeepPicksIdentical) {
  CheckedSched s;
  for (int i = 0; i < 6; ++i) {
    s.Admit("c" + std::to_string(i), Spec(20 + 5 * (i % 3), 2, /*laxity_ms=*/1, i % 2 == 0));
  }
  for (const SchedClientId id : s.live) {
    s.SetQueued(id, 4);
  }
  // Interleave picks with time: exhaustion parks clients (heap removal),
  // periodic refresh re-arms them (heap insert with a new key).
  SimTime t = 0;
  for (int round = 0; round < 200; ++round) {
    while (s.Step()) {
    }
    t += Microseconds(500);
    s.sim.RunUntil(t);
    EXPECT_EQ(s.sched.AuditIndexes(), "") << "round " << round;
  }
  for (const SchedClientId id : s.live) {
    EXPECT_EQ(s.sched.total_charged(id), s.charged[id]) << "client " << id;
  }
}

TEST(EdfHeapEquivalence, WorkArrivalAndRemovalKeepPicksIdentical) {
  CheckedSched s;
  const SchedClientId a = s.Admit("a", Spec(50, 5));
  const SchedClientId b = s.Admit("b", Spec(30, 3));
  const SchedClientId c = s.Admit("c", Spec(40, 4, /*laxity_ms=*/2, /*extra=*/true));
  for (const SchedClientId id : {a, b, c}) {
    s.SetQueued(id, 2);
  }
  while (s.Step()) {
  }
  // Drain one client's queue, then remove another mid-stream.
  s.SetQueued(a, 0);
  s.sim.RunUntil(Milliseconds(60));
  while (s.Step()) {
  }
  s.Remove(b);
  s.SetQueued(a, 3);
  s.sim.RunUntil(Milliseconds(120));
  while (s.Step()) {
  }
  EXPECT_EQ(s.sched.AuditIndexes(), "");
}

TEST(EdfHeapEquivalence, AuditIndexesDetectsCorruptKey) {
  Simulator sim;
  AtroposScheduler sched(sim);
  auto id = sched.Admit("victim", Spec(100, 10));
  ASSERT_TRUE(id.has_value());
  sched.SetQueued(*id, 1);
  ASSERT_EQ(sched.AuditIndexes(), "");
  sched.TestOnlyCorruptEdfKey();
  EXPECT_NE(sched.AuditIndexes(), "");
}

// --- Frame accounting unit tests --------------------------------------------

// One allocator driven by an operation script, checked against its
// reference twin: before every real call the oracle names the victim or the
// frame the call must choose; after it the indexes are audited.
class FramesTwins : public ::testing::Test {
 protected:
  static constexpr uint64_t kTotal = 24;
  static constexpr Pfn kNoPfn = static_cast<Pfn>(-1);

  FramesTwins() : ramtab_(kTotal), alloc_(sim_, ramtab_, kTotal) {}

  void Admit(DomainId dom, FramesContract contract) {
    ASSERT_TRUE(alloc_.AdmitClient(dom, contract).ok());
    EXPECT_EQ(alloc_.AuditIndexes(), "");
  }

  void Remove(DomainId dom) {
    ASSERT_TRUE(alloc_.RemoveClient(dom).ok());
    EXPECT_EQ(alloc_.AuditIndexes(), "");
  }

  void ExpectOracleVictim() {
    EXPECT_EQ(alloc_.PeekVictim(), reference::VictimPick(alloc_, ramtab_));
  }

  // Allocates one frame; kNoPfn on error. With the pool empty the grant is
  // a steal, which must take the top frame of the oracle's victim.
  Pfn Alloc(DomainId dom) {
    const DomainId victim = reference::VictimPick(alloc_, ramtab_);
    EXPECT_EQ(alloc_.PeekVictim(), victim);
    const bool steal = alloc_.free_frames() == 0 && victim != kNoDomain;
    const Pfn victim_top = steal ? alloc_.StackOf(victim)->Top() : kNoPfn;
    auto got = alloc_.AllocFrame(dom);
    EXPECT_EQ(alloc_.AuditIndexes(), "");
    if (!got.has_value()) return kNoPfn;
    if (steal) {
      EXPECT_EQ(*got, victim_top) << "steal did not take victim " << victim << "'s top frame";
    }
    return *got;
  }

  Simulator sim_;
  RamTab ramtab_;
  FramesAllocator alloc_;
};

TEST_F(FramesTwins, VictimChoiceMatchesAcrossStealsAndTeardown) {
  Admit(1, {2, 10});
  Admit(2, {2, 10});
  // Alternate optimistic fills so both hogs own interleaved pfns.
  for (int i = 0; i < 10; ++i) {
    ASSERT_NE(Alloc(1 + (i % 2)), kNoPfn);
  }
  ExpectOracleVictim();
  // A guaranteed newcomer steals from the surplus-largest hog: every steal
  // changes both surplus keys, so victim order is re-derived each time.
  Admit(3, {6, 0});
  for (int i = 0; i < 6; ++i) {
    ASSERT_NE(Alloc(3), kNoPfn);
  }
  ExpectOracleVictim();
  // Teardown returns the newcomer's frames; the hogs re-absorb them.
  Remove(3);
  for (int i = 0; i < 6; ++i) {
    ASSERT_NE(Alloc(1 + (i % 2)), kNoPfn);
  }
  ExpectOracleVictim();
  Remove(1);
  ExpectOracleVictim();
  Remove(2);
  EXPECT_EQ(alloc_.PeekVictim(), kNoDomain);
}

TEST_F(FramesTwins, ReclaimableCountersTrackNailTransitions) {
  Admit(1, {2, 10});
  std::vector<Pfn> owned;
  for (int i = 0; i < 8; ++i) {
    owned.push_back(Alloc(1));
    ASSERT_NE(owned.back(), kNoPfn);
  }
  // Nail half: each kNailed entry must decrement the reclaimable counter via
  // the RamTab observer (the self-audit recomputes ground truth).
  for (int i = 0; i < 4; ++i) {
    ramtab_.SetNailed(owned[i]);
    EXPECT_EQ(alloc_.AuditIndexes(), "") << "after nailing " << owned[i];
  }
  ExpectOracleVictim();
  // A guaranteed newcomer can only steal the 4 unnailed frames (plus the 12
  // still-free ones). Exhaust free memory first so steals actually happen.
  Admit(2, {2, 14});  // limit 16 == the frames still free at this point
  while (alloc_.free_frames() > 0) {
    ASSERT_NE(Alloc(2), kNoPfn);
  }
  Admit(3, {4, 0});
  for (int i = 0; i < 4; ++i) {
    ASSERT_NE(Alloc(3), kNoPfn);
  }
  // Unnail: the frames become reclaimable again.
  for (int i = 0; i < 4; ++i) {
    ramtab_.SetUnused(owned[i]);
    EXPECT_EQ(alloc_.AuditIndexes(), "") << "after unnailing " << owned[i];
  }
  ExpectOracleVictim();
  Remove(3);
  Remove(2);
  Remove(1);
}

TEST_F(FramesTwins, ColourAndRegionPlacementMatches) {
  Admit(1, {0, 24});
  // Colour allocations from a fresh pool, with interleaved frees so the
  // colour buckets see both pops and pushes (and their lazy rebuild).
  std::vector<Pfn> got;
  for (int i = 0; i < 12; ++i) {
    const Pfn want = reference::ColourPick(alloc_, i % 4, 4);
    auto pfn = alloc_.AllocFrameWithColour(1, i % 4, 4);
    ASSERT_EQ(pfn.has_value(), want != kNoFreePfn) << "i=" << i;
    if (pfn.has_value()) {
      EXPECT_EQ(*pfn, want) << "i=" << i;
      got.push_back(*pfn);
    }
    EXPECT_EQ(alloc_.AuditIndexes(), "");
  }
  for (size_t i = 0; i < got.size(); i += 2) {
    ASSERT_TRUE(alloc_.FreeFrame(1, got[i]).ok());
    EXPECT_EQ(alloc_.AuditIndexes(), "");
  }
  for (int i = 0; i < 6; ++i) {
    const Pfn want = reference::RegionPick(alloc_, 4, 16);
    auto pfn = alloc_.AllocFrameInRegion(1, 4, 16);
    ASSERT_EQ(pfn.has_value(), want != kNoFreePfn) << "i=" << i;
    if (pfn.has_value()) {
      EXPECT_EQ(*pfn, want) << "i=" << i;
    }
    EXPECT_EQ(alloc_.AuditIndexes(), "");
  }
}

TEST_F(FramesTwins, VictimChoiceSkipsTheInFlightRevocationVictim) {
  // Mapped frames cannot be reclaimed transparently, so a guaranteed request
  // against a full machine starts an intrusive revocation. While it is in
  // flight its victim must not be picked again.
  Admit(1, {2, 12});
  Admit(2, {2, 8});
  for (int i = 0; i < 14; ++i) {
    const Pfn pfn = Alloc(1);
    ASSERT_NE(pfn, kNoPfn);
    ramtab_.SetMapped(pfn, 100 + i);
  }
  for (int i = 0; i < 10; ++i) {
    const Pfn pfn = Alloc(2);
    ASSERT_NE(pfn, kNoPfn);
    ramtab_.SetMapped(pfn, 200 + i);
  }
  Admit(3, {4, 0});
  EXPECT_EQ(Alloc(3), kNoPfn);  // waits on the revocation of domain 1
  ASSERT_TRUE(alloc_.revocation_in_progress());
  ASSERT_EQ(alloc_.revocation_victim(), 1u);
  ExpectOracleVictim();
  EXPECT_EQ(alloc_.PeekVictim(), 2u);
  // Domain 1 complies: its top frame is unmapped and reclaimed.
  ramtab_.SetUnused(alloc_.StackOf(1)->Top());
  alloc_.RevocationComplete(1);
  EXPECT_FALSE(alloc_.revocation_in_progress());
  ExpectOracleVictim();
  EXPECT_NE(Alloc(3), kNoPfn);
}

TEST_F(FramesTwins, AuditIndexesDetectsCorruptCounter) {
  Admit(1, {2, 2});
  ASSERT_NE(Alloc(1), kNoPfn);
  ASSERT_EQ(alloc_.AuditIndexes(), "");
  alloc_.TestOnlyCorruptReclaimable(1, +1);
  EXPECT_NE(alloc_.AuditIndexes(), "");
}

// --- System-level auditor rule ----------------------------------------------

TEST(IndexedStructuresRule, FullAuditFlagsCorruptedAllocatorIndex) {
  SystemConfig cfg;
  cfg.phys_frames = 64;
  cfg.audit = false;  // corrupt by hand, audit by hand
  System system(cfg);
  ASSERT_TRUE(system.frames().AdmitClient(7, FramesContract{4, 4}).ok());
  ASSERT_TRUE(system.frames().AllocFrame(7).has_value());
  ASSERT_TRUE(system.AuditNow(InvariantAuditor::Depth::kFull).ok());
  system.frames().TestOnlyCorruptReclaimable(7, -1);
  const AuditReport fast = system.AuditNow(InvariantAuditor::Depth::kFast);
  EXPECT_FALSE(fast.HasRule("indexed-structures")) << fast.Summary();  // full depth only
  const AuditReport full = system.AuditNow(InvariantAuditor::Depth::kFull);
  EXPECT_FALSE(full.ok());
  EXPECT_TRUE(full.HasRule("indexed-structures")) << full.Summary();
}

}  // namespace
}  // namespace nemesis
