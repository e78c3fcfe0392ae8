// Tier-1 smoke campaign for the differential fuzzer: 50 seeded random
// cases (10 operators each) replayed in lockstep through the TSE stack
// over the slicing store, the intersection-store replica, and the
// DirectEngine in-place oracle. Zero divergences expected — any failure
// here is a real S'' = S' bug (or an oracle bug), reproducible from the
// reported seed alone.

#include <gtest/gtest.h>

#include <iostream>

#include "fuzz/fuzzer.h"

namespace tse::fuzz {
namespace {

TEST(FuzzSmoke, FiftySeededScriptsMatchTheOracle) {
  CampaignOptions options;
  options.seed_start = 1;
  options.num_cases = 50;
  options.case_options.schema.num_classes = 8;
  options.case_options.schema.num_objects = 24;
  options.case_options.script.num_changes = 10;

  CampaignReport report = RunCampaign(options);

  EXPECT_EQ(report.cases_run, 50u);
  EXPECT_EQ(report.harness_errors, 0u) << report.first_error.ToString();
  for (const CampaignFailure& failure : report.failures) {
    ADD_FAILURE() << "seed " << failure.seed << " diverged: "
                  << failure.divergence.ToString();
  }
  // Every case carries its full script (>= 8 operators per the
  // acceptance bar), and the campaign must genuinely exercise the
  // machinery, not no-op its way through.
  EXPECT_EQ(report.total_attempted, 50u * 10u);
  EXPECT_GT(report.total_accepted, 100u) << report.Summary();
  EXPECT_GT(report.total_merges, 0u) << report.Summary();

  // The per-run profile: campaign totals plus the observability
  // counters the run accumulated.
  std::cout << report.SummaryWithMetrics() << "\n";
}

}  // namespace
}  // namespace tse::fuzz
