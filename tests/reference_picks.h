// Reference oracles for the scheduler's and the frames allocator's picks.
//
// Each function recomputes one decision from read-only public state with a
// plain linear scan — the decision rule as the paper states it, with none of
// the heaps, counters or free-frame indexes src/ keeps to make it cheap. The
// equivalence suite asks the oracle before every real call and asserts the
// real structure chose the same. Test-only: nothing in src/ includes this.
#ifndef TESTS_REFERENCE_PICKS_H_
#define TESTS_REFERENCE_PICKS_H_

#include <algorithm>
#include <optional>
#include <vector>

#include "src/kernel/ramtab.h"
#include "src/mm/frames_allocator.h"
#include "src/mm/free_frame_index.h"
#include "src/sched/atropos.h"

namespace nemesis::reference {

// --- Atropos ----------------------------------------------------------------

// The state PickNext leaves the client in: a runnable client with no time
// left waits for its next allocation; one with time left but no queued work
// and no laxity left goes idle.
inline SchedClientState StateAfterPick(const AtroposScheduler& sched, SchedClientId id) {
  if (sched.state(id) != SchedClientState::kRunnable) {
    return sched.state(id);
  }
  if (sched.remaining(id) <= 0) {
    return SchedClientState::kWaiting;
  }
  if (sched.queued(id) == 0 && sched.spec(id).laxity - sched.lax_used(id) <= 0) {
    return SchedClientState::kIdle;
  }
  return SchedClientState::kRunnable;
}

// Minimum (deadline, id) over the clients in `live` that satisfy `eligible`.
template <typename Pred>
std::optional<SchedClientId> MinDeadline(const AtroposScheduler& sched,
                                         const std::vector<SchedClientId>& live, Pred eligible) {
  std::optional<SchedClientId> best;
  for (const SchedClientId id : live) {
    if (eligible(id) &&
        (!best.has_value() || sched.deadline(id) < sched.deadline(*best) ||
         (sched.deadline(id) == sched.deadline(*best) && id < *best))) {
      best = id;
    }
  }
  return best;
}

// What PickNext returns now, given the live client ids: the EDF choice among
// the clients still runnable after the exhausted/idle transitions. A client
// with no queued work is picked lax, its budget bounded by its laxity left.
inline std::optional<AtroposScheduler::Pick> EdfPick(const AtroposScheduler& sched,
                                                     const std::vector<SchedClientId>& live) {
  const auto best = MinDeadline(sched, live, [&sched](SchedClientId id) {
    return StateAfterPick(sched, id) == SchedClientState::kRunnable;
  });
  if (!best.has_value()) {
    return std::nullopt;
  }
  const SchedClientId id = *best;
  const bool lax = sched.queued(id) == 0;
  SimDuration budget = sched.remaining(id);
  if (lax) {
    budget = std::min(budget, sched.spec(id).laxity - sched.lax_used(id));
  }
  return AtroposScheduler::Pick{id, lax, budget, sched.remaining(id), sched.deadline(id)};
}

// What PickSlack returns now: the EDF choice among the clients with x=true
// and queued work, whatever their state.
inline std::optional<SchedClientId> SlackPick(const AtroposScheduler& sched,
                                              const std::vector<SchedClientId>& live) {
  return MinDeadline(sched, live, [&sched](SchedClientId id) {
    return sched.spec(id).extra && sched.queued(id) > 0;
  });
}

// --- Frames allocator ---------------------------------------------------------

// The domain PickVictim chooses now: among the clients holding optimistic
// frames (allocated > g), except the in-flight revocation victim, the largest
// surplus; a candidate with any frame not kNailed beats every fully-nailed
// one. ForEachClient visits clients in admission order, so taking only a
// strictly larger surplus sends ties to the earliest admission. kNoDomain
// when there is no candidate.
inline DomainId VictimPick(const FramesAllocator& alloc, const RamTab& ramtab) {
  DomainId best = kNoDomain;
  uint64_t best_surplus = 0;
  DomainId nailed = kNoDomain;  // fallback: every frame kNailed
  uint64_t nailed_surplus = 0;
  alloc.ForEachClient([&](const FramesAllocator::ClientView& c) {
    if (c.allocated <= c.contract.guaranteed ||
        (alloc.revocation_in_progress() && c.domain == alloc.revocation_victim())) {
      return;
    }
    const uint64_t surplus = c.allocated - c.contract.guaranteed;
    const bool reclaimable =
        std::any_of(c.stack->frames().begin(), c.stack->frames().end(),
                    [&ramtab](Pfn pfn) { return ramtab.StateOf(pfn) != FrameState::kNailed; });
    if (reclaimable && surplus > best_surplus) {
      best = c.domain;
      best_surplus = surplus;
    } else if (!reclaimable && surplus > nailed_surplus) {
      nailed = c.domain;
      nailed_surplus = surplus;
    }
  });
  return best != kNoDomain ? best : nailed;
}

// The first free frame, in free-list order, that `match` accepts; kNoFreePfn
// when none.
template <typename Pred>
Pfn FirstFreeFrame(const FramesAllocator& alloc, Pred match) {
  Pfn first = kNoFreePfn;
  alloc.ForEachFreeFrame([&](Pfn pfn) {
    if (first == kNoFreePfn && match(pfn)) {
      first = pfn;
    }
  });
  return first;
}

// The frame AllocFrameInRegion grants now.
inline Pfn RegionPick(const FramesAllocator& alloc, Pfn region_base, uint64_t region_len) {
  return FirstFreeFrame(alloc, [=](Pfn pfn) {
    return pfn >= region_base && pfn - region_base < region_len;
  });
}

// The frame AllocFrameWithColour grants now.
inline Pfn ColourPick(const FramesAllocator& alloc, uint64_t colour, uint64_t num_colours) {
  return FirstFreeFrame(alloc, [=](Pfn pfn) { return pfn % num_colours == colour; });
}

}  // namespace nemesis::reference

#endif  // TESTS_REFERENCE_PICKS_H_
