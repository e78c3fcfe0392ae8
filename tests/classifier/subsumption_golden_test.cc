// Exactness golden for the subsumption kernel. Three seeded histories
// of 80 schema changes each run through TseManager; the test renders
// what classification and view generation decided (the global DAG, the
// edges of every view version) and how the subsumption memo got there
// (per-change deltas of the proof, memo-hit and classifier-check
// counters), and compares the rendering byte for byte with the checked-in
// golden. Any change to what the predicates answer, to the order a proof
// explores, or to what it memoizes shows up here, even where the
// fuzzer's naive-scan arm cannot see it (that arm shares the predicate).
//
// On a mismatch the rendering is written next to the test binary as
// subsumption_golden.actual.txt; copy it over the golden only when the
// change in answers is intended.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "evolution/tse_manager.h"
#include "obs/metrics.h"
#include "objmodel/slicing_store.h"
#include "view/view_manager.h"
#include "workload/generators.h"

#ifndef TSE_GOLDEN_DIR
#error "TSE_GOLDEN_DIR must point at tests/classifier/golden"
#endif

namespace tse::evolution {
namespace {

constexpr const char* kCounterPrefix = "  counters ";

uint64_t CounterValue(const obs::MetricsSnapshot& snap,
                      const std::string& name) {
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// Replays one seeded history and appends its rendering to `out`.
void RenderHistory(uint64_t seed, std::ostringstream* out) {
  Rng rng(seed);
  workload::SchemaGenOptions gen;
  gen.num_classes = 10;
  gen.max_supers = 2;
  gen.max_props = 3;
  gen.num_objects = 0;
  workload::Workload base = workload::GenerateWorkload(&rng, gen);

  schema::SchemaGraph graph;
  objmodel::SlicingStore store;
  view::ViewManager views(&graph);
  TseManager manager(&graph, &store, &views);
  std::vector<std::string> names;
  std::vector<view::ViewClassSpec> specs;
  for (const workload::ClassDef& def : base.classes) {
    std::vector<ClassId> supers;
    for (const std::string& s : def.supers) {
      supers.push_back(graph.FindClass(s).value());
    }
    ClassId cls = graph.AddBaseClass(def.name, supers, def.props).value();
    names.push_back(def.name);
    specs.push_back({cls, ""});
  }
  ViewId view = manager.CreateView("VS", specs).value();

  workload::ScriptGenOptions script_gen;
  script_gen.num_changes = 80;
  script_gen.delete_class = true;
  script_gen.insert_class = true;
  std::vector<SchemaChange> script =
      workload::GenerateScript(&rng, names, script_gen);

  *out << "# history seed " << seed << "\n";
  int step = 0;
  for (const SchemaChange& change : script) {
    const obs::MetricsSnapshot before =
        obs::MetricsRegistry::Instance().Snapshot();
    Result<ViewId> next = manager.ApplyChange(view, change);
    const obs::MetricsSnapshot after =
        obs::MetricsRegistry::Instance().Snapshot();
    *out << step++ << " " << ToString(change) << " => "
         << (next.ok() ? "ok" : StatusCodeName(next.status().code())) << "\n";
    *out << kCounterPrefix;
    for (const char* name :
         {"schema.subsume.proofs", "schema.subsume.memo_hits",
          "classifier.subsumption.checks"}) {
      *out << name << "="
           << CounterValue(after, name) - CounterValue(before, name) << " ";
    }
    *out << "\n";
    if (next.ok()) view = next.value();
  }

  *out << graph.ToDot();
  for (ViewId id : views.AllViews()) {
    const view::ViewSchema* vs = views.GetView(id).value();
    *out << "view " << vs->logical_name() << " v" << vs->version() << ":";
    for (ClassId cls : vs->classes()) {
      for (ClassId sup : vs->DirectSupers(cls)) {
        *out << " " << graph.GetClass(cls).value()->name << "->"
             << graph.GetClass(sup).value()->name;
      }
    }
    *out << "\n";
  }
}

/// Drops the counter lines: a build with -DTSE_OBS_DISABLE=ON counts
/// nothing, so only the decisions are compared there.
std::string Comparable(const std::string& text) {
#ifndef TSE_OBS_DISABLE
  return text;
#else
  std::istringstream in(text);
  std::string line, kept;
  while (std::getline(in, line)) {
    if (line.rfind(kCounterPrefix, 0) == 0) continue;
    kept += line + "\n";
  }
  return kept;
#endif
}

TEST(SubsumptionGoldenTest, HistoriesMatchGolden) {
  std::ostringstream rendered;
  for (uint64_t seed : {11u, 23u, 1995u}) RenderHistory(seed, &rendered);
  const std::string actual = rendered.str();

  std::ifstream golden_file(std::string(TSE_GOLDEN_DIR) +
                            "/subsumption_golden.txt");
  ASSERT_TRUE(golden_file) << "missing golden file in " << TSE_GOLDEN_DIR;
  std::stringstream golden;
  golden << golden_file.rdbuf();

  if (Comparable(actual) != Comparable(golden.str())) {
    std::ofstream("subsumption_golden.actual.txt") << actual;
    // Name the first differing line so the failure is readable.
    std::istringstream a(Comparable(actual)), g(Comparable(golden.str()));
    std::string la, lg;
    int line = 1;
    while (std::getline(a, la) && std::getline(g, lg) && la == lg) ++line;
    FAIL() << "rendering differs from the golden at line " << line
           << "\n  golden: " << lg << "\n  actual: " << la
           << "\n(full rendering in subsumption_golden.actual.txt)";
  }
}

}  // namespace
}  // namespace tse::evolution
