#include "src/sim/scenario_gen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "src/base/assert.h"
#include "src/base/random.h"

namespace nemesis {

namespace {

void SortEvents(ScenarioSpec* spec) {
  // Stable, fully-ordered sort: time, then kind, then domain, so serialised
  // scripts are byte-identical regardless of generation order.
  std::stable_sort(spec->events.begin(), spec->events.end(),
                   [](const ScenarioEvent& a, const ScenarioEvent& b) {
                     if (a.at != b.at) return a.at < b.at;
                     if (a.kind != b.kind) return static_cast<int>(a.kind) < static_cast<int>(b.kind);
                     return a.domain < b.domain;
                   });
}

}  // namespace

std::string ScenarioSpec::ToScript() const {
  std::ostringstream out;
  char line[160];
  std::snprintf(line, sizeof(line), "scenario seed=%llu\n",
                static_cast<unsigned long long>(seed));
  out << line;
  std::snprintf(line, sizeof(line), "machine frames=%llu\n",
                static_cast<unsigned long long>(frames));
  out << line;
  for (const auto& d : domains) {
    std::snprintf(line, sizeof(line),
                  "domain id=%d g=%llu x=%llu nailed=%d pages=%llu zipf=%.4f at=%lld\n", d.id,
                  static_cast<unsigned long long>(d.guaranteed),
                  static_cast<unsigned long long>(d.optimistic), d.nailed ? 1 : 0,
                  static_cast<unsigned long long>(d.pages), d.zipf_s,
                  static_cast<long long>(d.admit_at));
    out << line;
  }
  for (const auto& e : events) {
    switch (e.kind) {
      case ScenarioEventKind::kBurst:
        std::snprintf(line, sizeof(line), "burst t=%lld dom=%d ops=%llu write=%d\n",
                      static_cast<long long>(e.at), e.domain,
                      static_cast<unsigned long long>(e.ops), e.write ? 1 : 0);
        break;
      case ScenarioEventKind::kHang:
        std::snprintf(line, sizeof(line), "hang t=%lld dom=%d\n",
                      static_cast<long long>(e.at), e.domain);
        break;
      case ScenarioEventKind::kShutdown:
        std::snprintf(line, sizeof(line), "shutdown t=%lld dom=%d\n",
                      static_cast<long long>(e.at), e.domain);
        break;
      case ScenarioEventKind::kCorrupt:
        std::snprintf(line, sizeof(line), "corrupt t=%lld\n", static_cast<long long>(e.at));
        break;
    }
    out << line;
  }
  return out.str();
}

namespace {

// "key=value" field extractors; return false on missing/malformed fields.
// Every integer field of a script (times, ids, counts, pages, flags) is
// non-negative, so a negative value is malformed too.
bool Field(const std::string& line, const char* key, long long* out) {
  const std::string needle = std::string(key) + "=";
  const size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  return std::sscanf(line.c_str() + pos + needle.size(), "%lld", out) == 1 && *out >= 0;
}

bool FieldD(const std::string& line, const char* key, double* out) {
  const std::string needle = std::string(key) + "=";
  const size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  return std::sscanf(line.c_str() + pos + needle.size(), "%lf", out) == 1;
}

}  // namespace

bool ScenarioSpec::FromScript(const std::string& text, ScenarioSpec* out) {
  ScenarioSpec spec;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    long long v = 0;
    if (line.rfind("scenario", 0) == 0) {
      if (!Field(line, "seed", &v)) return false;
      spec.seed = static_cast<uint64_t>(v);
    } else if (line.rfind("machine", 0) == 0) {
      if (!Field(line, "frames", &v) || v == 0) return false;
      spec.frames = static_cast<uint64_t>(v);
    } else if (line.rfind("domain", 0) == 0) {
      ScenarioDomainSpec d;
      long long id = 0, g = 0, x = 0, nailed = 0, pages = 0, at = 0;
      double zipf = 0.0;
      if (!Field(line, "id", &id) || !Field(line, "g", &g) || !Field(line, "x", &x) ||
          !Field(line, "nailed", &nailed) || !Field(line, "pages", &pages) ||
          !FieldD(line, "zipf", &zipf) || !Field(line, "at", &at)) {
        return false;
      }
      d.admit_at = at;
      d.id = static_cast<int>(id);
      d.guaranteed = static_cast<uint64_t>(g);
      d.optimistic = static_cast<uint64_t>(x);
      d.nailed = nailed != 0;
      d.pages = static_cast<uint64_t>(pages);
      d.zipf_s = zipf;
      spec.domains.push_back(d);
    } else if (line.rfind("burst", 0) == 0) {
      ScenarioEvent e;
      e.kind = ScenarioEventKind::kBurst;
      long long t = 0, dom = 0, ops = 0, write = 0;
      if (!Field(line, "t", &t) || !Field(line, "dom", &dom) || !Field(line, "ops", &ops) ||
          !Field(line, "write", &write)) {
        return false;
      }
      e.at = t;
      e.domain = static_cast<int>(dom);
      e.ops = static_cast<uint64_t>(ops);
      e.write = write != 0;
      spec.events.push_back(e);
    } else if (line.rfind("hang", 0) == 0 || line.rfind("shutdown", 0) == 0) {
      ScenarioEvent e;
      e.kind = line.rfind("hang", 0) == 0 ? ScenarioEventKind::kHang
                                          : ScenarioEventKind::kShutdown;
      long long t = 0, dom = 0;
      if (!Field(line, "t", &t) || !Field(line, "dom", &dom)) return false;
      e.at = t;
      e.domain = static_cast<int>(dom);
      spec.events.push_back(e);
    } else if (line.rfind("corrupt", 0) == 0) {
      ScenarioEvent e;
      e.kind = ScenarioEventKind::kCorrupt;
      long long t = 0;
      if (!Field(line, "t", &t)) return false;
      e.at = t;
      spec.events.push_back(e);
    } else {
      return false;  // unknown directive
    }
  }
  SortEvents(&spec);
  *out = std::move(spec);
  return true;
}

ScenarioSpec GenerateScenario(uint64_t seed, const GeneratorConfig& config) {
  NEM_ASSERT(config.min_frames >= 8 && config.max_frames >= config.min_frames);
  NEM_ASSERT(config.min_domains >= 1 && config.max_domains >= config.min_domains);
  Random rng(seed);
  ScenarioSpec spec;
  spec.seed = seed;
  spec.frames =
      config.min_frames + rng.NextBelow(config.max_frames - config.min_frames + 1);

  const int ndomains =
      config.min_domains +
      static_cast<int>(rng.NextBelow(
          static_cast<uint64_t>(config.max_domains - config.min_domains + 1)));

  // Contracts: admission-safe on guarantees (sum g <= ~60% of frames, so
  // teardown/re-admission always readmits), over-committed in total. The
  // optimistic side is drawn so that sum(g + x) exceeds physical memory —
  // guaranteed allocations under load must then revoke.
  const uint64_t g_budget = spec.frames * 6 / 10;
  uint64_t g_left = g_budget;
  uint64_t sum_limit = 0;
  for (int i = 0; i < ndomains; ++i) {
    ScenarioDomainSpec d;
    d.id = i + 1;
    const uint64_t g_max = std::max<uint64_t>(1, g_left / (ndomains - i));
    d.guaranteed = 1 + rng.NextBelow(g_max);
    g_left -= std::min(g_left, d.guaranteed);
    // x in [frames/4, frames): any two domains over-commit the machine.
    d.optimistic = spec.frames / 4 + rng.NextBelow(std::max<uint64_t>(1, spec.frames / 2));
    d.nailed = rng.NextDouble() < config.nailed_prob;
    d.zipf_s = 0.4 + rng.NextDouble();  // skew in [0.4, 1.4)
    // Domain 1 is the early hog; later domains arrive staggered so their
    // guarantees land on a machine already filled with optimistic frames
    // (see ScenarioDomainSpec::admit_at). Nailed domains bind everything at
    // admission, so they always start at t=0 on an empty machine.
    if (i > 0 && !d.nailed) {
      d.admit_at =
          static_cast<SimTime>(rng.NextBelow(static_cast<uint64_t>(config.horizon / 2)));
    }
    d.pages = d.guaranteed + d.optimistic;  // stretch big enough to use quota
    sum_limit += d.guaranteed + d.optimistic;
    spec.domains.push_back(d);
  }
  // The mix must over-commit physical memory or no pressure ever builds.
  if (sum_limit <= spec.frames) {
    spec.domains.back().optimistic += spec.frames - sum_limit + 1;
    spec.domains.back().pages =
        spec.domains.back().guaranteed + spec.domains.back().optimistic;
  }

  // Event script: mostly bursts, with per-domain hang/shutdown sprinkled in.
  // A domain gets at most one terminal event (hang or shutdown), placed in
  // the back half of the horizon so it has traffic to tear down under.
  const int nevents = 4 + static_cast<int>(rng.NextBelow(
                              static_cast<uint64_t>(std::max(1, config.max_events - 4))));
  for (int i = 0; i < nevents; ++i) {
    ScenarioEvent e;
    e.kind = ScenarioEventKind::kBurst;
    e.domain = 1 + static_cast<int>(rng.NextBelow(static_cast<uint64_t>(ndomains)));
    // Bursts only make sense once the target domain exists.
    const SimTime earliest = spec.domains[e.domain - 1].admit_at + Milliseconds(1);
    e.at = earliest + static_cast<SimTime>(rng.NextBelow(
                          static_cast<uint64_t>(std::max<SimDuration>(1, config.horizon - earliest))));
    e.ops = 1 + rng.NextBelow(config.max_burst_ops);
    e.write = rng.NextDouble() < 0.5;
    spec.events.push_back(e);
  }
  for (const auto& d : spec.domains) {
    const double roll = rng.NextDouble();
    if (roll >= config.hang_prob + config.shutdown_prob) continue;
    ScenarioEvent e;
    e.kind = roll < config.hang_prob ? ScenarioEventKind::kHang : ScenarioEventKind::kShutdown;
    e.at = static_cast<SimTime>(config.horizon / 2 +
                                rng.NextBelow(static_cast<uint64_t>(config.horizon / 2)));
    e.domain = d.id;
    spec.events.push_back(e);
  }
  SortEvents(&spec);
  return spec;
}

ScenarioSpec GenerateTenantStorm(uint64_t seed, int tenants, SimDuration horizon) {
  NEM_ASSERT(tenants >= 1);
  Random rng(seed);
  ScenarioSpec spec;
  spec.seed = seed;
  // ~3 frames per tenant: guarantees (avg 1.5/tenant) stay admissible while
  // the full contracts (avg 5.5/tenant) over-commit the machine badly.
  spec.frames = std::max<uint64_t>(32, static_cast<uint64_t>(tenants) * 3);

  // Admission waves: a quarter of the fleet is up from t=0, the rest arrive
  // in 8 clumped storms across the first half of the horizon.
  const int waves = 8;
  for (int i = 0; i < tenants; ++i) {
    ScenarioDomainSpec d;
    d.id = i + 1;
    d.guaranteed = 1 + rng.NextBelow(2);            // {1, 2}
    d.optimistic = 2 + rng.NextBelow(5);            // {2, ..., 6}
    d.nailed = false;                               // paged fleet
    d.zipf_s = 0.2 + 0.8 * rng.NextDouble();        // skew in [0.2, 1.0)
    d.pages = d.guaranteed + d.optimistic;
    if (i >= tenants / 4) {
      const int wave = static_cast<int>(rng.NextBelow(waves));
      d.admit_at = static_cast<SimTime>((horizon / 2) * (wave + 1) / (waves + 1)) +
                   static_cast<SimTime>(rng.NextBelow(static_cast<uint64_t>(
                       std::max<SimDuration>(1, horizon / (4 * waves)))));
    }
    spec.domains.push_back(d);

    // Warmup burst right after admission: every tenant promptly faults its
    // working set, so met guarantees drain the allocator's outstanding
    // reserve and each later admission wave lands on a genuinely full
    // machine — that is what turns the wave's guaranteed faults into a
    // revocation storm instead of a quiet draw from reserved free frames.
    ScenarioEvent warm;
    warm.kind = ScenarioEventKind::kBurst;
    warm.domain = d.id;
    warm.at = d.admit_at + Milliseconds(1);
    warm.ops = 3 * d.pages;
    warm.write = false;
    spec.events.push_back(warm);
  }

  // Burst traffic: ~2 bursts per tenant, small op counts (fleet pressure
  // comes from density, not per-tenant volume).
  const int nbursts = 2 * tenants;
  for (int i = 0; i < nbursts; ++i) {
    ScenarioEvent e;
    e.kind = ScenarioEventKind::kBurst;
    e.domain = 1 + static_cast<int>(rng.NextBelow(static_cast<uint64_t>(tenants)));
    const SimTime earliest = spec.domains[e.domain - 1].admit_at + Milliseconds(1);
    e.at = earliest + static_cast<SimTime>(rng.NextBelow(static_cast<uint64_t>(
                          std::max<SimDuration>(1, horizon - earliest))));
    e.ops = 1 + rng.NextBelow(16);
    e.write = rng.NextDouble() < 0.5;
    spec.events.push_back(e);
  }

  // Teardown storms: an eighth of the fleet shuts down, clumped into two
  // storms in the back half; a few tenants hang instead, so revocations
  // against them blow the deadline and exercise the kill path.
  for (const auto& d : spec.domains) {
    const double roll = rng.NextDouble();
    if (roll < 1.0 / 32.0) {
      ScenarioEvent e;
      e.kind = ScenarioEventKind::kHang;
      e.at = static_cast<SimTime>(horizon / 2 +
                                  rng.NextBelow(static_cast<uint64_t>(horizon / 2)));
      e.domain = d.id;
      spec.events.push_back(e);
    } else if (roll < 1.0 / 32.0 + 1.0 / 8.0) {
      ScenarioEvent e;
      e.kind = ScenarioEventKind::kShutdown;
      const SimTime storm = rng.NextBelow(2) == 0 ? horizon * 5 / 8 : horizon * 7 / 8;
      e.at = storm + static_cast<SimTime>(rng.NextBelow(static_cast<uint64_t>(
                         std::max<SimDuration>(1, horizon / 16))));
      e.domain = d.id;
      spec.events.push_back(e);
    }
  }
  SortEvents(&spec);
  return spec;
}

ScenarioSpec Shrink(const ScenarioSpec& spec,
                    const std::function<bool(const ScenarioSpec&)>& still_fails) {
  ScenarioSpec best = spec;
  // Pass 1: drop events one at a time, to fixpoint.
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (size_t i = 0; i < best.events.size(); ++i) {
      ScenarioSpec candidate = best;
      candidate.events.erase(candidate.events.begin() + static_cast<ptrdiff_t>(i));
      if (still_fails(candidate)) {
        best = std::move(candidate);
        progressed = true;
        break;  // indices shifted; rescan from the front
      }
    }
  }
  // Pass 2: halve burst sizes while the failure persists.
  progressed = true;
  while (progressed) {
    progressed = false;
    for (size_t i = 0; i < best.events.size(); ++i) {
      if (best.events[i].kind != ScenarioEventKind::kBurst || best.events[i].ops <= 1) {
        continue;
      }
      ScenarioSpec candidate = best;
      candidate.events[i].ops /= 2;
      if (still_fails(candidate)) {
        best = std::move(candidate);
        progressed = true;
      }
    }
  }
  // Pass 3: drop domains that no longer appear in any event.
  for (size_t i = best.domains.size(); i > 0; --i) {
    const int id = best.domains[i - 1].id;
    const bool referenced =
        std::any_of(best.events.begin(), best.events.end(), [id](const ScenarioEvent& e) {
          return e.kind != ScenarioEventKind::kCorrupt && e.domain == id;
        });
    if (referenced) continue;
    ScenarioSpec candidate = best;
    candidate.domains.erase(candidate.domains.begin() + static_cast<ptrdiff_t>(i - 1));
    if (still_fails(candidate)) {
      best = std::move(candidate);
    }
  }
  return best;
}

ZipfSampler::ZipfSampler(uint64_t n, double s) {
  NEM_ASSERT(n > 0);
  cdf_.resize(n);
  double total = 0.0;
  for (uint64_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (uint64_t i = 0; i < n; ++i) {
    cdf_[i] /= total;
  }
}

uint64_t ZipfSampler::Sample(double u) const {
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<uint64_t>(it - cdf_.begin());
}

}  // namespace nemesis
