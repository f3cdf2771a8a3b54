// Writes the full trace CSV of each golden scenario into OUT_DIR, for
// tools/golden.py:
//
//   golden_scenarios OUT_DIR
//
//   scenario_seed<N>.csv   FastConfig seeds 1-20
//   tenant_storm32.csv     GenerateTenantStorm(1, 32, 200 ms), the
//                          fleet-density preset at unit-test size
//
// Exit 0 when every run is audit-clean and wrote its trace.
#include <cstdint>
#include <cstdio>
#include <string>

#include "src/core/scenario_runner.h"
#include "tests/scenario_fast_config.h"

using namespace nemesis;

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s OUT_DIR\n", argv[0]);
    return 2;
  }
  const std::string dir = argv[1];
  int rc = 0;
  const auto run = [&dir, &rc](const ScenarioSpec& spec, const std::string& name) {
    ScenarioOptions options;
    options.trace_path = dir + "/" + name;
    const ScenarioResult result = RunScenario(spec, options);
    if (!result.ok) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(), result.failure.c_str());
      rc = 1;
    }
  };
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    run(GenerateScenario(seed, FastConfig()), "scenario_seed" + std::to_string(seed) + ".csv");
  }
  run(GenerateTenantStorm(1, 32, Milliseconds(200)), "tenant_storm32.csv");
  return rc;
}
