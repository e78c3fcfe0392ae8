// Regression corpus: every `.tsefuzz` file under tests/property/repros/
// is a minimized repro of a divergence the differential fuzzer once
// found (and that has since been fixed). Each must now replay clean —
// through the TSE stack, the intersection replica, and the in-place
// oracle — so none of those bugs can quietly return.
//
//  - merge-renamed-class: MergeVersions selected the same class twice
//    when a rename gave it different display names across versions.
//  - collapsed-edge-roundtrip: add_edge then delete_edge of the same
//    edge left the oracle keeping a latent direct edge the view's
//    transitive reduction had collapsed.
//  - hidden-chain-delete-edge: deleting a visible edge carried by a
//    remove_from_schema'd (hidden) class diverged on extents.
//  - hidden-local-delete-method: a method inherited only through hidden
//    classes is view-local and must be deletable in the oracle too.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "fuzz/corpus.h"
#include "fuzz/fuzzer.h"

#ifndef TSE_REPRO_DIR
#error "TSE_REPRO_DIR must point at tests/property/repros"
#endif

namespace tse::fuzz {
namespace {

TEST(FuzzReproCorpus, EveryCheckedInReproReplaysClean) {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(TSE_REPRO_DIR)) {
    if (entry.path().extension() == ".tsefuzz") {
      files.push_back(entry.path().string());
    }
  }
  ASSERT_GE(files.size(), 4u) << "repro corpus went missing";
  for (const std::string& path : files) {
    Result<RunReport> report = ReplayFile(path);
    ASSERT_TRUE(report.ok()) << path << ": "
                             << report.status().ToString();
    ASSERT_TRUE(report.value().error.ok())
        << path << ": " << report.value().error.ToString();
    EXPECT_TRUE(report.value().Clean())
        << path << " regressed: "
        << report.value().divergence->ToString();
  }
}

}  // namespace
}  // namespace tse::fuzz
