// Benchmark workload runner. One process runs one workload in a loop of
// repetitions for a fixed host-time budget and prints one JSON object on
// stdout: per-repetition setup/measured host seconds, simulated faults and
// the simulated-outcome fingerprint, the process's peak RSS, and (with
// --trace 1) the per-layer table of one traced repetition.
//
//   perfbench_workload --workload fig7-pagein|storm-300|storm-300-obs
//                      --seconds S [--trace 0|1] [--seed N] [--spec-seed M]
//
// Everything here drives the simulator through its public API; the traced
// repetition times calls into each module's public leaf functions from this
// file, never from inside the program. perfbench/run.py is the front end.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <malloc.h>
#include <sys/resource.h>

#include "src/base/log.h"
#include "src/base/random.h"
#include "src/core/scenario_runner.h"
#include "src/core/system.h"
#include "src/core/workloads.h"
#include "src/sim/scenario_gen.h"
#include "src/sim/sync.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace nemesis {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <typename T>
inline void Keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

// --- Minimal JSON emitter ----------------------------------------------------

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

class JsonObject {
 public:
  JsonObject& Add(const std::string& key, const std::string& raw) {
    fields_.emplace_back(key, raw);
    return *this;
  }
  JsonObject& Int(const std::string& key, uint64_t v) { return Add(key, std::to_string(v)); }
  JsonObject& Dbl(const std::string& key, double v) { return Add(key, Num(v)); }
  JsonObject& Bool(const std::string& key, bool v) { return Add(key, v ? "true" : "false"); }
  std::string Render() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      out += (i ? ", \"" : "\"") + fields_[i].first + "\": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// --- Per-layer counters --------------------------------------------------------

// Public counters read at the edges of the measured phase; the traced
// repetition reports after-minus-before.
struct Counters {
  uint64_t events = 0;
  uint64_t faults_dispatched = 0;
  uint64_t events_sent = 0;
  uint64_t revocations_transparent = 0;
  uint64_t revocations_intrusive = 0;
  uint64_t domains_killed = 0;
  uint64_t faults_fast_path = 0;
  uint64_t faults_worker = 0;
  uint64_t faults_failed = 0;
  uint64_t pageins = 0;
  uint64_t pageouts = 0;
  uint64_t evictions = 0;
  uint64_t translations = 0;
  uint64_t tlb_hits = 0;
  uint64_t tlb_misses = 0;
  uint64_t disk_reads = 0;
  uint64_t disk_writes = 0;
  uint64_t disk_seeks = 0;
  uint64_t disk_cache_hits = 0;
  int64_t disk_busy_ns = 0;
  uint64_t usd_transactions = 0;
  uint64_t usd_rejected = 0;
  uint64_t usd_batches = 0;
  uint64_t usd_batched_requests = 0;
  int64_t usd_batch_busy_ns = 0;
  uint64_t trace_records = 0;
  uint64_t trace_dropped = 0;
  int64_t sim_now = 0;
};

Counters TakeCounters(System& system, const std::vector<AppDomain*>& apps) {
  Counters c;
  c.events = system.sim().events_executed();
  c.faults_dispatched = system.kernel().faults_dispatched();
  c.events_sent = system.kernel().events_sent();
  c.revocations_transparent = system.frames().revocations_transparent();
  c.revocations_intrusive = system.frames().revocations_intrusive();
  c.domains_killed = system.frames().domains_killed();
  for (AppDomain* app : apps) {
    c.faults_fast_path += app->mm_entry().faults_fast_path();
    c.faults_worker += app->mm_entry().faults_worker();
    c.faults_failed += app->mm_entry().faults_failed();
    if (PagedStretchDriver* paged = app->paged_driver(); paged != nullptr) {
      c.pageins += paged->pageins();
      c.pageouts += paged->pageouts();
      c.evictions += paged->evictions();
    }
    // Swap clients of torn-down domains are closed; their counts are gone.
    if (UsdClient* client = app->swap_client(); client != nullptr) {
      c.usd_rejected += client->rejected();
      c.usd_batched_requests += client->batched_requests();
    }
  }
  c.translations = system.mmu().translations();
  c.tlb_hits = system.mmu().tlb().hits();
  c.tlb_misses = system.mmu().tlb().misses();
  const DiskStats& disk = system.disk().stats();
  c.disk_reads = disk.reads;
  c.disk_writes = disk.writes;
  c.disk_seeks = disk.seeks;
  c.disk_cache_hits = disk.cache_hits;
  c.disk_busy_ns = disk.busy_time;
  c.usd_transactions = system.usd().transactions();
  c.usd_batches = system.usd().batches();
  c.usd_batch_busy_ns = system.usd().batch_busy();
  c.trace_records = system.trace().size();
  c.trace_dropped = system.trace().dropped();
  c.sim_now = system.sim().Now();
  return c;
}

// --- Leaf-call probes -----------------------------------------------------------

// Host ns per call of `fn(i)` for i in [0, n): the median of five rounds, so a
// preempted round does not set the figure.
template <typename Fn>
double NsPerCall(size_t n, Fn&& fn) {
  std::vector<double> rounds;
  for (int r = 0; r < 5; ++r) {
    const auto t0 = Clock::now();
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
    rounds.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
                     static_cast<double>(n));
  }
  std::sort(rounds.begin(), rounds.end());
  return rounds[2];
}

constexpr size_t kProbeSamples = 4096;

// Probe arguments drawn from the run's own fault distribution: a domain is
// picked with probability proportional to its faults in the interval, then a
// uniform page of its stretch.
struct ProbeArgs {
  std::vector<DomainId> ids;
  std::vector<VirtAddr> addrs;
  std::vector<AppDomain*> owners;  // owner of addrs[i]
};

ProbeArgs DrawProbeArgs(const std::vector<std::pair<AppDomain*, uint64_t>>& weights, Random& rng) {
  ProbeArgs args;
  uint64_t total = 0;
  for (const auto& [app, w] : weights) {
    total += w;
  }
  if (total == 0) {
    return args;
  }
  for (size_t i = 0; i < kProbeSamples; ++i) {
    uint64_t pick = rng.NextBelow(total);
    for (const auto& [app, w] : weights) {
      if (pick < w) {
        args.ids.push_back(app->id());
        if (Stretch* s = app->stretch(); s != nullptr) {
          args.addrs.push_back(s->PageBase(rng.NextBelow(s->length() / s->page_size())));
          args.owners.push_back(app);
        }
        break;
      }
      pick -= w;
    }
  }
  return args;
}

// Splits the measured phase into checkpoints. Between slices the traced run
// times the side-effect-free lookups (Kernel::FindDomain,
// StretchAllocator::FindByAddr) on the state the slice left behind and
// charges each slice's calls at that price. Slicing RunUntil does not change
// the simulation: the fingerprint check proves it on every traced run.
class LookupTracer {
 public:
  LookupTracer(System& system, uint64_t seed) : system_(system), rng_(seed) {}

  // Runs the simulator to `until` in `slices` steps; returns measured host s.
  double Run(SimTime until, int slices, const std::function<std::vector<AppDomain*>()>& apps) {
    const SimTime start = system_.sim().Now();
    Checkpoint(apps(), /*probe=*/false);  // count from here
    double host_s = 0.0;
    for (int k = 1; k <= slices; ++k) {
      const auto t0 = Clock::now();
      system_.sim().RunUntil(start + (until - start) * k / slices);
      host_s += SecondsSince(t0);
      Checkpoint(apps());
    }
    return host_s;
  }

  double kernel_lookup_ns() const { return kernel_ns_; }
  double stretch_lookup_ns() const { return stretch_ns_; }
  double find_domain_ns() const { return Weighted(find_domain_samples_); }
  double find_by_addr_ns() const { return Weighted(find_by_addr_samples_); }

 private:
  static double Weighted(const std::vector<std::pair<double, uint64_t>>& samples) {
    double num = 0.0;
    double den = 0.0;
    for (const auto& [ns, calls] : samples) {
      num += ns * static_cast<double>(calls);
      den += static_cast<double>(calls);
    }
    return den > 0 ? num / den : 0.0;
  }

  void Checkpoint(const std::vector<AppDomain*>& apps, bool probe = true) {
    std::vector<std::pair<AppDomain*, uint64_t>> weights;
    uint64_t handled = 0;
    for (AppDomain* app : apps) {
      const uint64_t now = app->vmem().faults_taken();
      uint64_t& last = last_faults_[app];
      weights.emplace_back(app, now - last);
      last = now;
      const MmEntry& mm = app->mm_entry();
      handled += mm.faults_fast_path() + mm.faults_worker() + mm.faults_failed();
    }
    Kernel& kernel = system_.kernel();
    const uint64_t dispatched = kernel.faults_dispatched();
    const uint64_t sent = kernel.events_sent();
    // RaiseFault and SendEvent each look the target domain up once. Each
    // fault MmEntry::OnFaultEvent takes off the queue is looked up by address
    // once; faults queued to a hung domain never are, so the count is the
    // MmEntry's handled faults, not the kernel's dispatched ones.
    const uint64_t domain_calls = (dispatched - last_dispatched_) + (sent - last_sent_);
    const uint64_t stretch_calls = handled - last_handled_;
    last_dispatched_ = dispatched;
    last_sent_ = sent;
    last_handled_ = handled;
    if (!probe) {
      return;
    }
    const ProbeArgs args = DrawProbeArgs(weights, rng_);
    if (!args.ids.empty() && domain_calls > 0) {
      const double ns = NsPerCall(args.ids.size(), [&](size_t i) {
        Keep(kernel.FindDomain(args.ids[i]));
      });
      find_domain_samples_.emplace_back(ns, domain_calls);
      kernel_ns_ += ns * static_cast<double>(domain_calls);
    }
    if (!args.addrs.empty() && stretch_calls > 0) {
      StretchAllocator& stretches = system_.stretches();
      const double ns = NsPerCall(args.addrs.size(), [&](size_t i) {
        Keep(stretches.FindByAddr(args.addrs[i]));
      });
      find_by_addr_samples_.emplace_back(ns, stretch_calls);
      stretch_ns_ += ns * static_cast<double>(stretch_calls);
    }
  }

  System& system_;
  Random rng_;
  std::map<AppDomain*, uint64_t> last_faults_;
  uint64_t last_dispatched_ = 0;
  uint64_t last_sent_ = 0;
  uint64_t last_handled_ = 0;
  double kernel_ns_ = 0.0;
  double stretch_ns_ = 0.0;
  std::vector<std::pair<double, uint64_t>> find_domain_samples_;
  std::vector<std::pair<double, uint64_t>> find_by_addr_samples_;
};

// Leaf calls that mutate state, timed once on the run's final state (which is
// discarded afterwards, so the extra events/records/frames change nothing
// that is measured).
struct FinalProbes {
  double callat_ns = 0.0;
  double translate_ns = 0.0;
  double record_ns = 0.0;
  double pick_ns = 0.0;
  double alloc_free_ns = 0.0;
};

FinalProbes ProbeFinalState(System& system, const std::vector<AppDomain*>& apps, uint64_t seed) {
  FinalProbes p;
  Random rng(seed ^ 0xF1A1ULL);
  std::vector<std::pair<AppDomain*, uint64_t>> weights;
  for (AppDomain* app : apps) {
    if (app->alive() && app->stretch() != nullptr) {
      weights.emplace_back(app, std::max<uint64_t>(1, app->vmem().faults_taken()));
    }
  }
  const ProbeArgs args = DrawProbeArgs(weights, rng);

  Simulator& sim = system.sim();
  const SimTime far = sim.Now() + Seconds(3600);
  // 64 distinct timestamps, so most calls append to an existing bucket as
  // the run's own scheduling does.
  p.callat_ns = NsPerCall(kProbeSamples, [&](size_t i) {
    Keep(sim.CallAt(far + static_cast<SimTime>(i & 63), [] {}));
  });

  if (!args.addrs.empty()) {
    Mmu& mmu = system.mmu();
    p.translate_ns = NsPerCall(args.addrs.size(), [&](size_t i) {
      Keep(mmu.Translate(args.addrs[i], AccessType::kRead, &args.owners[i]->pdom()));
    });
  }

  TraceRecorder& trace = system.trace();
  const SimTime now = sim.Now();
  p.record_ns = NsPerCall(kProbeSamples, [&](size_t i) {
    trace.Record(now, "span", static_cast<int>(i & 0xff), "probe", 1.0, static_cast<double>(i));
  });

  AtroposScheduler& sched = system.usd().scheduler();
  p.pick_ns = NsPerCall(kProbeSamples, [&](size_t) { Keep(sched.PickNext()); });

  // A fresh probe client takes and returns one frame per call.
  FramesAllocator& frames = system.frames();
  Domain* probe = system.kernel().CreateDomain("perfbench-probe");
  const bool admitted =
      frames.guaranteed_total() + 1 <= frames.total_frames() &&
      frames.AdmitClient(probe->id(), FramesContract{1, 0}).ok();
  if (admitted && frames.free_frames() > 0) {
    bool ok = true;
    p.alloc_free_ns = NsPerCall(kProbeSamples, [&](size_t) {
      auto pfn = frames.AllocFrame(probe->id());
      if (!pfn) {
        ok = false;
        return;
      }
      ok = frames.FreeFrame(probe->id(), *pfn).ok() && ok;
    });
    if (!ok) {
      p.alloc_free_ns = 0.0;
    }
  }
  return p;
}

double Percentile(std::vector<int64_t> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t idx = std::min(v.size() - 1, static_cast<size_t>(q * static_cast<double>(v.size())));
  return static_cast<double>(v[idx]);
}

// Everything the traced repetition measured, turned into the per-layer table.
struct TracedRun {
  double host_s = 0.0;
  Counters before;
  Counters after;
  double kernel_lookup_ns = 0.0;
  double stretch_lookup_ns = 0.0;
  double find_domain_ns = 0.0;
  double find_by_addr_ns = 0.0;
  FinalProbes final_probes;
  std::vector<int64_t> touch_sim_ns;
};

std::string LayerTable(const TracedRun& t, double untimed_median_s) {
  const Counters& a = t.after;
  const Counters& b = t.before;
  const double host_ns = t.host_s * 1e9;
  const auto d = [](uint64_t x, uint64_t y) { return x - y; };
  const uint64_t events = d(a.events, b.events);
  const uint64_t faults = d(a.faults_dispatched, b.faults_dispatched);
  const uint64_t translations = d(a.translations, b.translations);
  const uint64_t records = d(a.trace_records, b.trace_records) + d(a.trace_dropped, b.trace_dropped);
  const double sim_ns = static_cast<double>(a.sim_now - b.sim_now);
  const double disk_busy = static_cast<double>(a.disk_busy_ns - b.disk_busy_ns);
  const uint64_t tlb = d(a.tlb_hits, b.tlb_hits) + d(a.tlb_misses, b.tlb_misses);
  const uint64_t reads = d(a.disk_reads, b.disk_reads);
  const uint64_t batches = d(a.usd_batches, b.usd_batches);
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  const double lookup_share = t.kernel_lookup_ns / host_ns;
  const double stretch_share = t.stretch_lookup_ns / host_ns;
  const double translate_share =
      static_cast<double>(translations) * t.final_probes.translate_ns / host_ns;
  const double record_share = static_cast<double>(records) * t.final_probes.record_ns / host_ns;

  JsonObject o;
  o.Int("sim.events", events)
      .Dbl("sim.host_ns_per_event", ratio(host_ns, static_cast<double>(events)))
      .Dbl("sim.callat_ns", t.final_probes.callat_ns)
      .Int("kernel.faults_dispatched", faults)
      .Int("kernel.events_sent", d(a.events_sent, b.events_sent))
      .Dbl("kernel.find_domain_ns", t.find_domain_ns)
      .Dbl("kernel.lookup_share", lookup_share)
      .Dbl("mm.find_by_addr_ns", t.find_by_addr_ns)
      .Dbl("mm.stretch_lookup_share", stretch_share)
      .Dbl("mm.alloc_free_ns", t.final_probes.alloc_free_ns)
      .Int("mm.revocations_transparent", d(a.revocations_transparent, b.revocations_transparent))
      .Int("mm.revocations_intrusive", d(a.revocations_intrusive, b.revocations_intrusive))
      .Int("mm.domains_killed", d(a.domains_killed, b.domains_killed))
      .Int("app.faults_fast_path", d(a.faults_fast_path, b.faults_fast_path))
      .Int("app.faults_worker", d(a.faults_worker, b.faults_worker))
      .Int("app.faults_failed", d(a.faults_failed, b.faults_failed))
      .Int("app.pageins", d(a.pageins, b.pageins))
      .Int("app.pageouts", d(a.pageouts, b.pageouts))
      .Int("app.evictions", d(a.evictions, b.evictions))
      .Dbl("app.touch_sim_p50_us", Percentile(t.touch_sim_ns, 0.50) / 1e3)
      .Dbl("app.touch_sim_p99_us", Percentile(t.touch_sim_ns, 0.99) / 1e3)
      .Int("hw.translations", translations)
      .Dbl("hw.tlb_hit_ratio",
           ratio(static_cast<double>(d(a.tlb_hits, b.tlb_hits)), static_cast<double>(tlb)))
      .Dbl("hw.translate_ns", t.final_probes.translate_ns)
      .Dbl("hw.translate_share", translate_share)
      .Int("hw.disk_reads", reads)
      .Int("hw.disk_writes", d(a.disk_writes, b.disk_writes))
      .Int("hw.disk_seeks", d(a.disk_seeks, b.disk_seeks))
      .Dbl("hw.disk_cache_hit_ratio",
           ratio(static_cast<double>(d(a.disk_cache_hits, b.disk_cache_hits)),
                 static_cast<double>(reads)))
      .Dbl("hw.disk_busy_share", ratio(disk_busy, sim_ns))
      .Int("usd.transactions", d(a.usd_transactions, b.usd_transactions))
      .Dbl("usd.requests_per_batch",
           batches > 0 ? static_cast<double>(d(a.usd_batched_requests, b.usd_batched_requests)) /
                             static_cast<double>(batches)
                       : 1.0)
      .Int("usd.rejected", d(a.usd_rejected, b.usd_rejected))
      .Dbl("usd.batch_busy_share",
           ratio(static_cast<double>(a.usd_batch_busy_ns - b.usd_batch_busy_ns), disk_busy))
      .Dbl("sched.pick_ns", t.final_probes.pick_ns)
      .Int("obs.trace_records", records)
      .Int("obs.trace_dropped", d(a.trace_dropped, b.trace_dropped))
      .Dbl("obs.records_per_fault", ratio(static_cast<double>(records), static_cast<double>(faults)))
      .Dbl("obs.record_ns", t.final_probes.record_ns)
      .Dbl("obs.record_share", record_share)
      .Dbl("core.measured_host_s", t.host_s)
      .Dbl("core.trace_overhead_share", ratio(t.host_s, untimed_median_s) - 1.0)
      .Dbl("core.unattributed_share",
           1.0 - (lookup_share + stretch_share + translate_share + record_share));
  return o.Render();
}

// --- Workloads -------------------------------------------------------------------

struct Rep {
  double setup_s = 0.0;
  double measured_s = 0.0;
  uint64_t faults = 0;
  std::string fingerprint;  // rendered JSON object
};

constexpr int kTraceSlices = 16;
constexpr size_t kMinSetupSamples = 61;

// fig7-pagein: the paper's Figure 7 (bench/bench_fig7_paging_in.cc). Three
// paged domains, 2 frames each, 4 MiB stretches, 16 MiB swap, USD slices of
// 25/50/100 ms per 250 ms with 10 ms laxity. A write pass primes swap, then
// each domain reads its stretch in a loop for 120 simulated seconds.
class Fig7 {
 public:
  static constexpr SimDuration kMeasure = Seconds(120);

  void Setup() {
    system_ = std::make_unique<System>(SystemConfig{});
    const int64_t slices[3] = {25, 50, 100};
    for (int i = 0; i < 3; ++i) {
      AppConfig cfg;
      cfg.name = kNames[i];
      cfg.contract = {2, 0};
      cfg.driver_max_frames = 2;
      cfg.stretch_bytes = 4 * kMiB;
      cfg.swap_bytes = 16 * kMiB;
      cfg.disk_qos = QosSpec{Milliseconds(250), Milliseconds(slices[i]), false, Milliseconds(10)};
      apps_.push_back(system_->CreateApp(cfg));
    }
    for (int i = 0; i < 3; ++i) {
      apps_[i]->SpawnWorkload(SequentialPass(*apps_[i], AccessType::kWrite, &primed_[i]), "prime");
    }
    system_->sim().RunUntil(Seconds(600));
    system_->trace().Clear();
  }

  // Runs the measured phase; returns its host seconds. With a tracer, the
  // loop also records the simulated duration of every pass.
  double Measure(TracedRun* traced, uint64_t seed) {
    const SimTime until = system_->sim().Now() + kMeasure;
    for (int i = 0; i < 3; ++i) {
      apps_[i]->SpawnWorkload(
          traced ? TimedLoop(*apps_[i], until, &bytes_[i], &ok_[i], &traced->touch_sim_ns)
                 : SequentialAccessLoop(*apps_[i], AccessType::kRead, until, &bytes_[i], &ok_[i]),
          "loop");
      apps_[i]->SpawnWorkload(WatchProgress(system_->sim(), system_->trace(), i, &bytes_[i],
                                            Seconds(5), until),
                              "watch");
    }
    if (traced == nullptr) {
      const auto t0 = Clock::now();
      system_->sim().RunUntil(until);
      return SecondsSince(t0);
    }
    traced->before = TakeCounters(*system_, apps_);
    LookupTracer tracer(*system_, seed);
    traced->host_s = tracer.Run(until, kTraceSlices, [this] { return apps_; });
    traced->after = TakeCounters(*system_, apps_);
    traced->kernel_lookup_ns = tracer.kernel_lookup_ns();
    traced->stretch_lookup_ns = tracer.stretch_lookup_ns();
    traced->find_domain_ns = tracer.find_domain_ns();
    traced->find_by_addr_ns = tracer.find_by_addr_ns();
    return traced->host_s;
  }

  uint64_t faults() const {
    uint64_t n = 0;
    for (AppDomain* app : apps_) {
      n += app->vmem().faults_taken();
    }
    return n - primed_faults_;
  }

  void NoteSetupFaults() {
    for (AppDomain* app : apps_) {
      primed_faults_ += app->vmem().faults_taken();
    }
  }

  // Simulated outcome: bytes each domain read, and the figure's shape check
  // (the 1:2:4 band and the laxity cap, as bench_fig7_paging_in judges it).
  std::string Fingerprint() const {
    double max_lax_ms = 0.0;
    for (const auto& rec : system_->trace().Filter("usd", "lax")) {
      max_lax_ms = std::max(max_lax_ms, rec.value_a);
    }
    const double a = static_cast<double>(bytes_[0]);
    const double r2 = a > 0 ? static_cast<double>(bytes_[1]) / a : 0.0;
    const double r4 = a > 0 ? static_cast<double>(bytes_[2]) / a : 0.0;
    const bool shape = a > 0 && r2 > 1.6 && r2 < 2.4 && r4 > 3.2 && r4 < 4.8 &&
                       max_lax_ms <= 10.0 + 1e-6 && primed_[0] && primed_[1] && primed_[2];
    JsonObject o;
    for (int i = 0; i < 3; ++i) {
      o.Int(std::string(kNames[i]) + ".bytes", bytes_[i]);
    }
    o.Bool("shape_ok", shape);
    return o.Render();
  }

  System& system() { return *system_; }
  const std::vector<AppDomain*>& apps() const { return apps_; }

 private:
  static constexpr const char* kNames[3] = {"app-10%", "app-20%", "app-40%"};

  // SequentialAccessLoop (src/core/workloads.cc) with the simulated time of
  // each pass recorded; same spawns, labels and waits, so the same schedule.
  static Task TimedLoop(AppDomain& app, SimTime until, uint64_t* bytes, bool* ok,
                        std::vector<int64_t>* pass_ns) {
    Stretch* stretch = app.stretch();
    Simulator& sim = app.sim();
    while (sim.Now() < until && app.alive()) {
      bool pass_ok = false;
      const SimTime t0 = sim.Now();
      TaskHandle h = app.SpawnWorkload(app.vmem().AccessRange(stretch->base(), stretch->length(),
                                                              AccessType::kRead, &pass_ok, bytes),
                                       "pass");
      co_await Join(h);
      pass_ns->push_back(sim.Now() - t0);
      if (!pass_ok) {
        *ok = false;
        co_return;
      }
    }
    *ok = true;
  }

  std::unique_ptr<System> system_;
  std::vector<AppDomain*> apps_;
  bool primed_[3] = {false, false, false};
  bool ok_[3] = {false, false, false};
  uint64_t bytes_[3] = {0, 0, 0};
  uint64_t primed_faults_ = 0;
};

std::string StormFingerprint(uint64_t faults, uint64_t transparent, uint64_t intrusive,
                             uint64_t cancelled, uint64_t killed, bool audit_ok) {
  return JsonObject()
      .Int("faults", faults)
      .Int("revocations_transparent", transparent)
      .Int("revocations_intrusive", intrusive)
      .Int("revocations_cancelled", cancelled)
      .Int("domains_killed", killed)
      .Bool("audit_ok", audit_ok)
      .Render();
}

SystemConfig StormSystemConfig(const ScenarioSpec& spec, bool observe) {
  SystemConfig cfg;
  cfg.phys_frames = spec.frames;
  cfg.observe = observe;
  return cfg;
}

// Storm set-up: spec generation, plus one System of the spec's configuration.
// RunScenario builds its own System inside the measured phase; building one
// here as well makes a change to System construction cost show in setup_s.
double StormSetup(uint64_t spec_seed, bool observe, ScenarioSpec* spec) {
  const auto t0 = Clock::now();
  *spec = GenerateTenantStorm(spec_seed, 300);
  auto probe = std::make_unique<System>(StormSystemConfig(*spec, observe));
  const double setup_s = SecondsSince(t0);
  probe.reset();
  return setup_s;
}

// The storm workloads' timed repetition: the public RunScenario on
// GenerateTenantStorm(spec_seed, 300).
Rep StormRep(uint64_t spec_seed, bool observe) {
  Rep rep;
  ScenarioSpec spec;
  rep.setup_s = StormSetup(spec_seed, observe, &spec);

  ScenarioOptions options;
  options.observe = observe;
  const auto t1 = Clock::now();
  const ScenarioResult r = RunScenario(spec, options);
  rep.measured_s = SecondsSince(t1);
  rep.faults = r.faults;
  rep.fingerprint = StormFingerprint(r.faults, r.revocations_transparent, r.revocations_intrusive,
                                     r.revocations_cancelled, r.domains_killed, r.ok);
  return rep;
}

// The storm's traced repetition: RunScenario's admission/event script driven
// through the public System API from here (src/core/scenario_runner.cc is
// the reference), so the System's counters are in reach and every touch's
// simulated wait can be timed. Its fingerprint must equal RunScenario's.
Task TimedBurst(AppDomain* app, ScenarioEvent event, ScenarioDomainSpec domain, uint64_t rng_seed,
                std::vector<int64_t>* touch_ns) {
  Random rng(rng_seed);
  const ZipfSampler zipf(domain.pages, domain.zipf_s);
  const AccessType access = event.write ? AccessType::kWrite : AccessType::kRead;
  for (uint64_t i = 0; i < event.ops && app->alive(); ++i) {
    const uint64_t page = zipf.Sample(rng.NextDouble());
    bool ok = false;
    const SimTime t0 = app->sim().Now();
    TaskHandle h = app->SpawnWorkload(
        app->vmem().AccessRange(app->stretch()->PageBase(page), 1, access, &ok), "touch");
    co_await Join(h);
    if (!ok) {
      co_return;
    }
    touch_ns->push_back(app->sim().Now() - t0);
  }
}

Rep TracedStormRep(uint64_t spec_seed, bool observe, uint64_t seed, TracedRun* traced) {
  Rep rep;
  const auto t0 = Clock::now();
  const ScenarioSpec spec = GenerateTenantStorm(spec_seed, 300);
  const SystemConfig sys_cfg = StormSystemConfig(spec, observe);
  System system(sys_cfg);
  rep.setup_s = SecondsSince(t0);
  Simulator& sim = system.sim();

  std::map<int, AppDomain*> apps;
  std::map<int, ScenarioDomainSpec> doms;
  const size_t ndomains = spec.domains.size();
  const auto admit = [&system, &sys_cfg, &apps, &doms, ndomains](const ScenarioDomainSpec& d) {
    AppConfig cfg;
    cfg.name = "dom" + std::to_string(d.id);
    cfg.contract = {d.guaranteed, d.optimistic};
    uint64_t pages = std::max<uint64_t>(1, d.pages);
    if (d.nailed) {
      cfg.driver = AppConfig::DriverKind::kNailed;
      const uint64_t free = system.frames().free_frames();
      const uint64_t reserved = system.frames().guaranteed_total();
      const uint64_t headroom =
          free > reserved + d.guaranteed + 1 ? free - reserved - d.guaranteed - 1 : 0;
      pages = std::max<uint64_t>(1, d.guaranteed + std::min(d.optimistic, headroom));
    } else {
      cfg.driver = AppConfig::DriverKind::kPaged;
      cfg.driver_max_frames = d.guaranteed + d.optimistic;
      cfg.swap_bytes = std::max<uint64_t>(pages * sys_cfg.page_size, 1 * kMiB);
      if (ndomains > 10) {
        cfg.disk_qos.slice = cfg.disk_qos.period / (2 * static_cast<int64_t>(ndomains));
        cfg.swap_bytes = pages * sys_cfg.page_size;
      }
    }
    cfg.stretch_bytes = pages * sys_cfg.page_size;
    ScenarioDomainSpec resolved = d;
    resolved.pages = pages;
    apps[d.id] = system.CreateApp(cfg);
    doms[d.id] = resolved;
  };
  for (const auto& d : spec.domains) {
    const SimTime at = (d.admit_at <= 0 || d.nailed) ? 0 : d.admit_at;
    sim.CallAt(at, [&admit, d] { admit(d); });
  }
  SimTime last_event = 0;
  for (const auto& d : spec.domains) {
    last_event = std::max(last_event, d.admit_at);
  }
  std::vector<int64_t>* touch_ns = &traced->touch_sim_ns;
  for (size_t i = 0; i < spec.events.size(); ++i) {
    const ScenarioEvent& e = spec.events[i];
    last_event = std::max(last_event, e.at);
    const uint64_t burst_seed = spec.seed ^ (0x9E3779B97F4A7C15ULL * (i + 1));
    sim.CallAt(e.at, [&system, &apps, &doms, e, burst_seed, touch_ns] {
      auto it = apps.find(e.domain);
      switch (e.kind) {
        case ScenarioEventKind::kBurst:
          if (it == apps.end() || !it->second->alive()) return;
          it->second->SpawnWorkload(
              TimedBurst(it->second, e, doms.at(e.domain), burst_seed, touch_ns), "burst");
          return;
        case ScenarioEventKind::kHang:
          if (it == apps.end() || !it->second->alive()) return;
          it->second->mm_entry().Stop();
          return;
        case ScenarioEventKind::kShutdown:
          if (it == apps.end() || !it->second->alive()) return;
          it->second->Shutdown();
          return;
        case ScenarioEventKind::kCorrupt:
          system.frames().TestOnlySetGuaranteedTotal(system.frames().total_frames() + 1);
          return;
      }
    });
  }

  const auto app_list = [&apps] {
    std::vector<AppDomain*> out;
    for (const auto& [id, app] : apps) {
      out.push_back(app);
    }
    return out;
  };
  traced->before = TakeCounters(system, {});
  LookupTracer tracer(system, seed);
  traced->host_s = tracer.Run(last_event + ScenarioOptions{}.drain, kTraceSlices, app_list);
  rep.measured_s = traced->host_s;
  traced->after = TakeCounters(system, app_list());
  traced->kernel_lookup_ns = tracer.kernel_lookup_ns();
  traced->stretch_lookup_ns = tracer.stretch_lookup_ns();
  traced->find_domain_ns = tracer.find_domain_ns();
  traced->find_by_addr_ns = tracer.find_by_addr_ns();

  const AuditReport report = system.AuditNow(InvariantAuditor::Depth::kFull);
  uint64_t faults = 0;
  for (AppDomain* app : app_list()) {
    faults += app->vmem().faults_taken();
  }
  rep.faults = faults;
  rep.fingerprint = StormFingerprint(
      faults, system.frames().revocations_transparent(), system.frames().revocations_intrusive(),
      system.frames().revocations_cancelled(), system.frames().domains_killed(), report.ok());
  traced->final_probes = ProbeFinalState(system, app_list(), seed);
  return rep;
}

Rep Fig7Rep(TracedRun* traced, uint64_t seed) {
  Rep rep;
  Fig7 fig7;
  const auto t0 = Clock::now();
  fig7.Setup();
  rep.setup_s = SecondsSince(t0);
  fig7.NoteSetupFaults();
  rep.measured_s = fig7.Measure(traced, seed);
  rep.faults = fig7.faults();
  rep.fingerprint = fig7.Fingerprint();
  if (traced != nullptr) {
    traced->final_probes = ProbeFinalState(fig7.system(), fig7.apps(), seed);
  }
  return rep;
}

std::string RenderRep(const Rep& r) {
  return JsonObject()
      .Dbl("setup_s", r.setup_s)
      .Dbl("measured_s", r.measured_s)
      .Int("faults", r.faults)
      .Add("fingerprint", r.fingerprint)
      .Render();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_workload --workload fig7-pagein|storm-300|storm-300-obs "
               "--seconds S [--trace 0|1] [--seed N] [--spec-seed M]\n");
  return 2;
}

}  // namespace
}  // namespace nemesis

int main(int argc, char** argv) {
  using namespace nemesis;
  std::string workload;
  double seconds = 0.0;
  int trace = 0;
  uint64_t seed = 1;
  uint64_t spec_seed = 1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const char* value = argv[i + 1];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(value);
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--spec-seed") {
      spec_seed = std::strtoull(value, nullptr, 10);
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return Usage();
  }
  const bool storm = workload == "storm-300" || workload == "storm-300-obs";
  if (!storm && workload != "fig7-pagein") {
    return Usage();
  }
  const bool observe = workload == "storm-300-obs";
  SetLogLevel(LogLevel::kError);  // storm kills log warnings; keep stderr quiet

  // Keep freed heap memory in the process. By default glibc hands every
  // large block back to the kernel when a repetition frees it, and the next
  // repetition faults it in again: about 600k page faults and a fifth of the
  // run's host time on storm-300-obs, whose trace buffer grows past 1 GB.
  // That kernel work varies with the rest of the host, not with the program.
  // With all blocks on the brk heap and trimming off, the first repetition
  // (the warm-up that perfbench/benchlib.py leaves out of the rate) grows the
  // heap and later ones reuse it. Peak RSS then includes the heap's
  // fragmentation, which is the same on every run.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, -1);

  const auto untimed = [&] { return storm ? StormRep(spec_seed, observe) : Fig7Rep(nullptr, seed); };

  // Timed mode fills the budget with repetitions, starting another only
  // while the longest one so far still fits, so a run ends within --seconds
  // (at least one repetition; the first is the warm-up). Traced mode spends half the budget on untimed
  // repetitions (the overhead baseline), then makes one traced repetition.
  std::vector<Rep> reps;
  const double budget = trace ? seconds / 2 : seconds;
  const auto start = Clock::now();
  double longest = 0.0;  // of the repetitions after the warm-up, if any
  do {
    const auto t0 = Clock::now();
    reps.push_back(untimed());
    longest = reps.size() == 2 ? SecondsSince(t0) : std::max(longest, SecondsSince(t0));
  } while (SecondsSince(start) + longest <= budget);

  // setup_s is a median too: top the samples up with set-up-only passes when
  // the workload's repetitions are long.
  std::vector<double> setups;
  for (const Rep& r : reps) {
    setups.push_back(r.setup_s);
  }
  while (setups.size() < kMinSetupSamples) {
    if (storm) {
      ScenarioSpec spec;
      setups.push_back(StormSetup(spec_seed, observe, &spec));
    } else {
      Fig7 fig7;
      const auto t0 = Clock::now();
      fig7.Setup();
      setups.push_back(SecondsSince(t0));
    }
  }

  std::string layers;
  std::string traced_rep;
  if (trace) {
    std::vector<double> measured;  // the untraced repetitions after the warm-up
    for (size_t i = reps.size() > 1 ? 1 : 0; i < reps.size(); ++i) {
      measured.push_back(reps[i].measured_s);
    }
    std::sort(measured.begin(), measured.end());
    const double median = measured[measured.size() / 2];
    TracedRun traced;
    const Rep rep = storm ? TracedStormRep(spec_seed, observe, seed, &traced)
                          : Fig7Rep(&traced, seed);
    layers = LayerTable(traced, median);
    traced_rep = RenderRep(rep);
  }

  std::ostringstream out;
  out << "{\"workload\": \"" << workload << "\", \"spec_seed\": " << spec_seed
      << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\", \"compiler\": \""
#if defined(__clang__)
      << "clang "
#elif defined(__GNUC__)
      << "gcc "
#endif
      << __VERSION__ << "\", \"reps\": [";
  for (size_t i = 0; i < reps.size(); ++i) {
    out << (i ? ", " : "") << RenderRep(reps[i]);
  }
  out << "], \"setup_samples_s\": [";
  for (size_t i = 0; i < setups.size(); ++i) {
    out << (i ? ", " : "") << Num(setups[i]);
  }
  out << "]";
  if (trace) {
    out << ", \"traced_rep\": " << traced_rep << ", \"layers\": " << layers;
  }
  out << ", \"peak_rss_mb\": " << Num(PeakRssMb()) << "}\n";
  std::fputs(out.str().c_str(), stdout);
  return 0;
}
