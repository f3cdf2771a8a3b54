// Writes the full trace CSV of each golden scenario seed (FastConfig seeds
// 11-15) into OUT_DIR as scenario_seed<N>.csv, for tools/golden.py:
//
//   golden_scenarios OUT_DIR
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
  for (uint64_t seed = 11; seed <= 15; ++seed) {
    ScenarioOptions options;
    options.trace_path = dir + "/scenario_seed" + std::to_string(seed) + ".csv";
    const ScenarioResult result = RunScenario(GenerateScenario(seed, FastConfig()), options);
    if (!result.ok) {
      std::fprintf(stderr, "seed %llu: %s\n", static_cast<unsigned long long>(seed),
                   result.failure.c_str());
      rc = 1;
    }
  }
  return rc;
}
