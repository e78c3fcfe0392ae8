// Long-script classifier campaign: 200 seeded cases of 40 operators
// over 12-class schemas, replayed with the classifier-vs-naive arm (the
// DAG placement search and its filters against the exhaustive scan and
// the pairwise filters) and the S'' = S' equivalence check. Short
// scripts never grow the DAG deep enough to reach some placements; long
// ones do.
//
// Only a classifier-arm divergence fails the test. Other divergences
// are the open long-script S'' = S' item in ROADMAP.md: they are
// printed with their seeds, so each one can be replayed alone
// (`seed_start = <seed>, num_cases = 1`), but do not fail the run. A
// case stops at its first divergence; the classifier arm runs first at
// every step, so every step up to it was checked.

#include <gtest/gtest.h>

#include <iostream>

#include "fuzz/fuzzer.h"

namespace tse::fuzz {
namespace {

/// The classifier arm's divergences name the naive-classifier twin or
/// the naive scan's DAG (differential_executor.cc).
bool IsClassifierDivergence(const Divergence& divergence) {
  return divergence.detail.find("naive") != std::string::npos;
}

TEST(FuzzLongScript, ClassifierMatchesNaiveOnTwoHundredLongScripts) {
  CampaignOptions options;
  options.seed_start = 1000;
  options.num_cases = 200;
  options.case_options.schema.num_classes = 12;
  options.case_options.script.num_changes = 40;
  options.shrink = false;
  ExecutorOptions& arms = options.executor;
  arms.check_values = false;
  arms.check_intersection_replica = false;
  arms.check_updatability = false;
  arms.check_incremental_extents = false;
  arms.check_index_vs_scan = false;
  arms.check_snapshot_vs_locked = false;
  arms.check_classifier_vs_naive = true;

  CampaignReport report = RunCampaign(options);

  EXPECT_EQ(report.cases_run, 200u);
  EXPECT_EQ(report.harness_errors, 0u) << report.first_error.ToString();
  // A case stops at its first divergence; every other runs all 40.
  EXPECT_GE(report.total_attempted, (200u - report.failures.size()) * 40u);
  size_t other = 0;
  for (const CampaignFailure& failure : report.failures) {
    if (IsClassifierDivergence(failure.divergence)) {
      ADD_FAILURE() << "seed " << failure.seed
                    << " classifier diverged from the naive scan: "
                    << failure.divergence.ToString();
    } else {
      ++other;
      std::cout << "seed " << failure.seed
                << " (open S'' = S' item, not a classifier divergence): "
                << failure.divergence.ToString() << "\n";
    }
  }
  std::cout << report.Summary() << "; " << other
            << " non-classifier divergences\n";
}

}  // namespace
}  // namespace tse::fuzz
