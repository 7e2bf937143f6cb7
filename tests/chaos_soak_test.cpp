// A miniature in-process soak: the full chaos harness — fixture build,
// live TCP server, seeded fault schedule, probe threads — run just long
// enough to execute real reload churn, corrupt swaps and client
// misbehavior, then audited for every invariant the long-form sp_soak
// checks (liveness, corrupt-swap rejection, per-generation query
// conservation, probe answers checked against the oracle of the
// generation that gave them, byte-correct final sweep). Short enough for
// tier-1; scripts/tier1.sh runs the same driver for 45+ seconds under ASan, and
// the TSan pass runs this test to race-check the whole serving stack.
#include "chaos/soak.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>

#include "chaos/scenario.h"

namespace sp::chaos {
namespace {

SoakConfig smoke_config(const std::string& name) {
  SoakConfig config;
  config.seed = 20250808;
  config.duration = std::chrono::seconds(3);
  config.workdir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(config.workdir);
  config.server_workers = 2;
  config.query_threads = 2;
  config.pair_count = 128;
  return config;
}

TEST(ChaosSoak, SmokeSoakHoldsEveryInvariant) {
  const SoakReport report = run_soak(smoke_config("chaos_soak_smoke"));
  for (const std::string& violation : report.violations) ADD_FAILURE() << violation;
  EXPECT_TRUE(report.ok);

  // The schedule actually ran: traffic flowed and reload churn happened.
  EXPECT_GT(report.events, 20u);
  EXPECT_GT(report.query_events, 0u);
  EXPECT_GT(report.client_queries, 0u);
  EXPECT_GT(report.valid_reloads, 0u);
  EXPECT_GT(report.corrupt_reloads, 0u);  // corrupt swaps offered AND rejected

  // Conservation, exactly: every key the server ever answered is
  // tallied in exactly one generation (live, retired, or compacted).
  EXPECT_EQ(report.generation_query_sum, report.server_queries);

  // The probes' answers matched the oracle of the generation that gave
  // them, and the final sweep compared every fixture key against it.
  EXPECT_GT(report.probe_keys_checked, 0u);
  EXPECT_EQ(report.probe_mismatches, 0u);
  EXPECT_GT(report.sweep_keys, 0u);
  EXPECT_EQ(report.sweep_mismatches, 0u);
}

TEST(ChaosSoak, SameSeedPlaysTheSameSchedule) {
  // The wire traffic is seed-determined even though timing varies: two
  // runs agree on the event sequence prefix they both reached.
  auto config_a = smoke_config("chaos_soak_replay_a");
  auto config_b = smoke_config("chaos_soak_replay_b");
  config_a.duration = std::chrono::seconds(1);
  config_b.duration = std::chrono::seconds(1);
  const SoakReport a = run_soak(config_a);
  const SoakReport b = run_soak(config_b);
  EXPECT_TRUE(a.ok);
  EXPECT_TRUE(b.ok);
  const std::size_t shared = static_cast<std::size_t>(std::min(a.events, b.events));
  const auto schedule_a = make_schedule(config_a.seed, shared);
  const auto schedule_b = make_schedule(config_b.seed, shared);
  for (std::size_t i = 0; i < shared; ++i)
    EXPECT_EQ(schedule_a[i].kind, schedule_b[i].kind) << i;
}

}  // namespace
}  // namespace sp::chaos
