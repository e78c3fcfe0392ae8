// View generation reads the classified global DAG instead of testing
// every pair of view classes. That is sound because, on the classified
// schema, is-a subsumption over a view's classes is exactly
// reachability over direct supers. This property test replays seeded
// schema-change histories and, after every accepted change, checks the
// new view version:
//   - its edges equal the pairwise subsumption matrix's
//     (fuzz::NaiveViewEdges);
//   - IsaSubsumedBy over its classes equals reachability over the
//     classified DAG (SchemaGraph::TransitiveSupers);
//   - IsaSubsumedBy over its classes is transitive.
// Two history shapes run: the subsumption golden's (10 base classes, 80
// changes with delete_class and insert_class) and the long-script fuzz
// campaign's (12 classes, 40 operators).

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/str_util.h"
#include "evolution/tse_manager.h"
#include "fuzz/fuzz_case.h"
#include "fuzz/naive_placement.h"
#include "objmodel/slicing_store.h"
#include "view/view_manager.h"
#include "workload/generators.h"

namespace tse::view {
namespace {

using evolution::SchemaChange;
using evolution::TseManager;
using schema::SchemaGraph;

constexpr uint64_t kGoldenShapeSeeds = 200;
constexpr uint64_t kLongScriptSeeds = 200;

/// The first way `vs` breaks the properties above, or "" when none.
std::string Violation(const SchemaGraph& graph, const ViewSchema& vs) {
  std::vector<std::pair<ClassId, ClassId>> edges;
  for (ClassId cls : vs.classes()) {
    for (ClassId sup : vs.DirectSupers(cls)) edges.emplace_back(cls, sup);
  }
  if (edges != fuzz::NaiveViewEdges(graph, vs.classes())) {
    return "edges differ from the subsumption matrix's";
  }
  const std::vector<ClassId> cls(vs.classes().begin(), vs.classes().end());
  const size_t n = cls.size();
  std::vector<uint8_t> isa(n * n, 0);
  for (size_t i = 0; i < n; ++i) {
    const std::set<ClassId> reach = graph.TransitiveSupers(cls[i]).value();
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      isa[i * n + j] = graph.IsaSubsumedBy(cls[i], cls[j]);
      if ((isa[i * n + j] != 0) != (reach.count(cls[j]) != 0)) {
        return StrCat(cls[i].ToString(), " isa ", cls[j].ToString(), " is ",
                      isa[i * n + j] ? "proved" : "not proved",
                      " but the DAG says otherwise");
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (!isa[i * n + j]) continue;
      for (size_t k = 0; k < n; ++k) {
        if (k != i && isa[j * n + k] && !isa[i * n + k]) {
          return StrCat("isa is not transitive over ", cls[i].ToString(),
                        ", ", cls[j].ToString(), ", ", cls[k].ToString());
        }
      }
    }
  }
  return "";
}

/// Builds `base` as the one view "VS", applies `script` and checks every
/// accepted version. Returns how many versions were checked.
size_t ReplayAndCheck(const workload::Workload& base,
                      const std::vector<SchemaChange>& script,
                      const std::string& label) {
  SchemaGraph graph;
  objmodel::SlicingStore store;
  ViewManager views(&graph);
  TseManager manager(&graph, &store, &views);
  std::vector<ViewClassSpec> specs;
  for (const workload::ClassDef& def : base.classes) {
    std::vector<ClassId> supers;
    for (const std::string& s : def.supers) {
      supers.push_back(graph.FindClass(s).value());
    }
    specs.push_back({graph.AddBaseClass(def.name, supers, def.props).value(),
                     ""});
  }
  ViewId view = manager.CreateView("VS", specs).value();
  size_t checked = 0;
  for (size_t step = 0; step < script.size(); ++step) {
    Result<ViewId> next = manager.ApplyChange(view, script[step]);
    if (!next.ok()) continue;
    view = next.value();
    const std::string violation =
        Violation(graph, *views.GetView(view).value());
    EXPECT_EQ(violation, "") << label << " step " << step << " ["
                             << evolution::ToString(script[step]) << "]";
    if (!violation.empty()) return checked;
    ++checked;
  }
  return checked;
}

TEST(ViewDagPropertyTest, GoldenShapeHistories) {
  size_t checked = 0;
  for (uint64_t seed = 1; seed <= kGoldenShapeSeeds; ++seed) {
    Rng rng(seed);
    workload::SchemaGenOptions gen;
    gen.num_classes = 10;
    gen.max_supers = 2;
    gen.max_props = 3;
    gen.num_objects = 0;
    workload::Workload base = workload::GenerateWorkload(&rng, gen);
    std::vector<std::string> names;
    for (const workload::ClassDef& def : base.classes) {
      names.push_back(def.name);
    }
    workload::ScriptGenOptions script_gen;
    script_gen.num_changes = 80;
    script_gen.delete_class = true;
    script_gen.insert_class = true;
    checked += ReplayAndCheck(
        base, workload::GenerateScript(&rng, names, script_gen),
        StrCat("golden-shape seed ", seed));
  }
  EXPECT_GT(checked, kGoldenShapeSeeds * 10);
}

TEST(ViewDagPropertyTest, LongScriptHistories) {
  fuzz::FuzzCaseOptions options;
  options.schema.num_classes = 12;
  options.script.num_changes = 40;
  size_t checked = 0;
  for (uint64_t seed = 1000; seed < 1000 + kLongScriptSeeds; ++seed) {
    fuzz::FuzzCase c = fuzz::GenerateCase(seed, options);
    checked += ReplayAndCheck(c.workload, c.script,
                              StrCat("long-script seed ", seed));
  }
  EXPECT_GT(checked, kLongScriptSeeds * 10);
}

}  // namespace
}  // namespace tse::view
