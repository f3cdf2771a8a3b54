// Ablation: fleet-density hot paths — per-decision cost of the central
// structures as the domain count grows.
//
// The paper's central servers (the Atropos scheduler behind the USD, the
// frames allocator behind every self-pager) make one decision per fault or
// transaction. At the paper's scale (a handful of domains) an O(n) scan per
// decision is free; at fleet density (hundreds to thousands of tenant
// domains) it would dominate. This bench times the indexed structures
// (EDF/extra-time heaps, reclaimable counters, victim heaps, free-frame
// index) on the hot micro-paths at 10/100/1000 domains:
//
//   sched  PickNext + Charge cycles over a full EDF rotation: every pick
//          exhausts the client, every period refreshes it — each decision
//          pays pick + heap maintenance.
//   alloc  admission/teardown steal storms: a needy tenant's guaranteed
//          faults revoke frames from the max-surplus hog (PickVictim +
//          ReclaimUnusedTop), teardown frees them, hogs reabsorb them
//          optimistically (CheckAllocation's outstanding-guarantee test).
//   colour page-colouring placement draining the free pool.
//
// That each pick is the right one is checked pick by pick against the
// linear reference oracle in tests/equivalence_test.cc; this bench measures
// cost only. EXPERIMENTS.md keeps the last linear-vs-indexed table.
//
// Gates (run_benches.py greps "shape check:"):
//   * near-flat per-decision cost 10 -> 1000 domains on the sched and alloc
//     paths (<= 8x for a 100x domain increase; an O(n) scan grows ~100x);
//   * the 1000-tenant storm from the scenario layer (create/teardown waves,
//     Zipf bursts, hangs) runs audit-clean with revocations exercised.
//
//   bench_ablation_tenants [--smoke]
//
// --smoke caps N at 100 and skips the wall-clock gate (CI runs it under
// sanitizers, where wall-clock ratios are meaningless).
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/scenario_runner.h"
#include "src/kernel/ramtab.h"
#include "src/mm/frames_allocator.h"
#include "src/sched/atropos.h"
#include "src/sim/scenario_gen.h"
#include "src/sim/simulator.h"

using namespace nemesis;

namespace {

struct MicroResult {
  double ns_per_decision = 0.0;
  uint64_t decisions = 0;
};

double ElapsedNs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - start)
      .count();
}

// --- Scheduler micro-path --------------------------------------------------

// N clients with heterogeneous periods, slices sized so the mix admits
// (sum s/p == 1/2). Every pick charges the full budget, so each decision
// walks the full exhaust -> refresh -> re-pick machinery.
MicroResult SchedMicro(int n, uint64_t picks_target) {
  Simulator sim;
  AtroposScheduler sched(sim);
  std::vector<SchedClientId> ids;
  for (int i = 0; i < n; ++i) {
    QosSpec spec;
    spec.period = Milliseconds(20 + (i % 10) * 5);
    spec.slice = spec.period / (2 * n);
    spec.extra = (i % 3) == 0;
    spec.laxity = Microseconds(50);
    auto admitted = sched.Admit("t" + std::to_string(i), spec);
    NEM_ASSERT(admitted.has_value());
    ids.push_back(*admitted);
    sched.SetQueued(*admitted, 1);
  }

  MicroResult r;
  SimTime t = sim.Now();
  const auto start = std::chrono::steady_clock::now();
  while (r.decisions < picks_target) {
    const auto pick = sched.PickNext();
    if (pick.has_value()) {
      ++r.decisions;
      sched.Charge(pick->client, pick->budget, pick->lax);
    } else {
      sched.PickSlack();  // the executor's fallback when no EDF pick exists
      t += Microseconds(100);
      sim.RunUntil(t);
    }
  }
  r.ns_per_decision = ElapsedNs(start) / static_cast<double>(r.decisions);
  return r;
}

// --- Allocator micro-path --------------------------------------------------

// N hog tenants (g=1, x=8) fill ~3N frames optimistically; each storm cycle
// admits a needy tenant (g=K), whose K guaranteed faults revoke the
// max-surplus hog's frames one by one, then tears it down and lets the hogs
// reabsorb the freed frames. One decision = one steal (PickVictim +
// ReclaimUnusedTop) or one reabsorb (CheckAllocation + TakeFreeFrame).
MicroResult AllocMicro(int n, uint64_t cycles) {
  constexpr uint64_t kNeedyG = 4;
  const uint64_t frames = static_cast<uint64_t>(n) * 3 + kNeedyG;
  Simulator sim;
  RamTab ramtab(frames);
  FramesAllocator alloc(sim, ramtab, frames);

  const DomainId needy = static_cast<DomainId>(n + 1);
  for (int i = 0; i < n; ++i) {
    auto admitted = alloc.AdmitClient(static_cast<DomainId>(i + 1), FramesContract{1, 8});
    NEM_ASSERT(admitted.ok());
  }
  // Fill: round-robin optimistic allocation until the machine is full. The
  // hogs end near-uniform (~3 frames each), every one of them a victim
  // candidate with surplus ~2.
  for (bool granted = true; granted;) {
    granted = false;
    for (int i = 0; i < n; ++i) {
      if (alloc.AllocFrame(static_cast<DomainId>(i + 1)).has_value()) {
        granted = true;
      }
    }
  }

  MicroResult r;
  int refill_at = 0;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t c = 0; c < cycles; ++c) {
    NEM_ASSERT(alloc.AdmitClient(needy, FramesContract{kNeedyG, 0}).ok());
    for (uint64_t k = 0; k < kNeedyG; ++k) {
      const auto pfn = alloc.AllocFrame(needy);  // guaranteed: steals from a hog
      NEM_ASSERT(pfn.has_value());
      ++r.decisions;
    }
    NEM_ASSERT(alloc.RemoveClient(needy).ok());
    // Hogs reabsorb the freed frames optimistically (rotating so no single
    // hog hits its quota ceiling).
    for (uint64_t k = 0; k < kNeedyG; ++k) {
      for (int tries = 0; tries < n; ++tries) {
        const DomainId hog = static_cast<DomainId>((refill_at++ % n) + 1);
        if (alloc.AllocFrame(hog).has_value()) {
          ++r.decisions;
          break;
        }
      }
    }
  }
  r.ns_per_decision = ElapsedNs(start) / static_cast<double>(r.decisions);
  return r;
}

// --- Placement (free-frame index) micro-path -------------------------------

// One tenant drains a 3N-frame free pool with page-colouring requests; each
// request reads the per-colour bucket.
MicroResult ColourMicro(int n) {
  const uint64_t frames = static_cast<uint64_t>(n) * 3;
  Simulator sim;
  RamTab ramtab(frames);
  FramesAllocator alloc(sim, ramtab, frames);
  NEM_ASSERT(alloc.AdmitClient(1, FramesContract{frames, 0}).ok());

  MicroResult r;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < frames; ++i) {
    if (!alloc.AllocFrameWithColour(1, i % 8, 8).has_value()) {
      break;  // remaining free frames miss the colour
    }
    ++r.decisions;
  }
  r.ns_per_decision = ElapsedNs(start) / static_cast<double>(r.decisions);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  std::printf("=== Ablation: fleet-density hot paths (indexed structures) ===\n\n");

  const std::vector<int> tenant_counts = smoke ? std::vector<int>{10, 100}
                                               : std::vector<int>{10, 100, 1000};
  const uint64_t sched_picks = smoke ? 2000 : 20000;
  const uint64_t alloc_cycles_base = smoke ? 100 : 500;

  struct Row {
    int n;
    MicroResult sched, alloc, colour;
  };
  std::vector<Row> rows;
  for (int n : tenant_counts) {
    // Cycle count scales with N so teardown churn (dead client slots) stays
    // proportional to the fleet.
    const uint64_t cycles = std::max<uint64_t>(alloc_cycles_base, static_cast<uint64_t>(n) / 2);
    rows.push_back({n, SchedMicro(n, sched_picks), AllocMicro(n, cycles), ColourMicro(n)});
  }

  std::printf("  ns/decision   sched pick  alloc steal  alloc colour\n");
  for (const Row& row : rows) {
    std::printf("    n=%4d  %14.1f %12.1f %13.1f\n", row.n, row.sched.ns_per_decision,
                row.alloc.ns_per_decision, row.colour.ns_per_decision);
  }
  const auto growth = [&rows](MicroResult Row::*path) {
    return (rows.back().*path).ns_per_decision / (rows.front().*path).ns_per_decision;
  };
  const double sched_growth = growth(&Row::sched);
  const double alloc_growth = growth(&Row::alloc);
  std::printf("    -> cost growth for %dx domains: sched %.2fx, alloc %.2fx, colour %.2fx\n\n",
              rows.back().n / rows.front().n, sched_growth, alloc_growth,
              growth(&Row::colour));

  // Fleet realism: the scenario layer's tenant storm (admission waves, Zipf
  // bursts, teardown storms, hangs) at full density, judged by the
  // cross-layer oracles.
  const int storm_tenants = smoke ? 100 : 1000;
  std::printf("  %d-tenant storm (scenario layer):\n", storm_tenants);
  const ScenarioResult storm = RunScenario(GenerateTenantStorm(1, storm_tenants));
  std::printf("    %s: faults=%" PRIu64 " revocations=%" PRIu64 "/%" PRIu64
              " cancelled=%" PRIu64 " killed=%" PRIu64 "\n\n",
              storm.ok ? "clean" : "AUDIT VIOLATION", storm.faults,
              storm.revocations_transparent, storm.revocations_intrusive,
              storm.revocations_cancelled, storm.domains_killed);

  bool ok = storm.ok && storm.revocations_intrusive >= 1;
  // Wall-clock gate only in full mode: under sanitizers (the smoke runs)
  // ratios measure instrumentation, not the structures.
  if (!smoke) {
    ok = ok && sched_growth <= 8.0 && alloc_growth <= 8.0;
  }
  std::printf("  shape check: %s (audit-clean storm; %s)\n", ok ? "PASS" : "FAIL",
              smoke ? "smoke mode: wall-clock gate skipped"
                    : "near-flat sched/alloc cost 10->1000 domains");
  return ok ? 0 : 1;
}
