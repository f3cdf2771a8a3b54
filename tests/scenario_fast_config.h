// The small-but-adversarial scenario generator shape shared by the scenario
// replay tests and the golden scenario traces: enough domains and traffic to
// trigger revocations and kills, small enough that 20 seeds run in tier-1
// time budgets.
#ifndef TESTS_SCENARIO_FAST_CONFIG_H_
#define TESTS_SCENARIO_FAST_CONFIG_H_

#include "src/sim/scenario_gen.h"

namespace nemesis {

inline GeneratorConfig FastConfig() {
  GeneratorConfig cfg;
  cfg.min_frames = 24;
  cfg.max_frames = 48;
  cfg.min_domains = 2;
  cfg.max_domains = 4;
  cfg.max_events = 14;
  cfg.horizon = Milliseconds(200);
  cfg.max_burst_ops = 96;
  return cfg;
}

}  // namespace nemesis

#endif  // TESTS_SCENARIO_FAST_CONFIG_H_
