// Shard tags: serial writer attribution for the access checker.
//
// Every event and coroutine task carries a *shard*: shard 0 is the "system"
// shard (kernel, frames allocator, USD, disk — everything that touches shared
// state), and each application domain's fault-handling and workload events
// carry the shard equal to its domain id. The simulator runs every event in
// order on one thread; the tag does not change what runs when. It records on
// whose behalf an event runs, so the DomainAccessChecker's
// `RecordOwnedWrite` can name the writer of a domain-owned entry and the
// invariant auditor's `shard-confinement` rule can flag a domain mutating
// another domain's RamTab entries or frame stack.
//
// `ShardLane` is the execution context of the event loop. While an event
// callback runs, `Current().shard` names the shard it was scheduled on (so
// plain CallAt/Spawn inherit the caller's shard).
#ifndef SRC_BASE_SHARD_H_
#define SRC_BASE_SHARD_H_

#include <cstdint>

namespace nemesis {

using ShardId = uint32_t;

// The system shard: kernel / frames-allocator / USD / disk paths. Matches the
// checker's kSystem domain and the kernel's pre-domain id space (domain ids
// start at 1).
inline constexpr ShardId kSystemShard = 0;

// Sentinel for "inherit the scheduling context's shard" (the default for
// CallAt/CallAfter/Spawn).
inline constexpr ShardId kInheritShard = UINT32_MAX;

// Execution context, maintained by the simulator around event execution.
struct ShardLane {
  // Shard of the event currently executing (kSystemShard when no event is
  // running).
  ShardId shard = kSystemShard;

  static ShardLane& Current() {
    static ShardLane lane;
    return lane;
  }
};

}  // namespace nemesis

#endif  // SRC_BASE_SHARD_H_
