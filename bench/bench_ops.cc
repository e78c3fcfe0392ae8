// Experiment X-ops (DESIGN.md): latency of every primitive and macro
// schema-change operator of Sections 6.1-6.9 against the university
// schema of Figure 2, including the full TSEM pipeline (translate ->
// classify -> generate view -> register version).

#include <benchmark/benchmark.h>

#include <memory>

#include "evolution/tse_manager.h"
#include "update/update_engine.h"

namespace {

using namespace tse;
using namespace tse::evolution;
using objmodel::MethodExpr;
using objmodel::Value;
using objmodel::ValueType;
using schema::PropertySpec;

/// Fresh university stack per measurement.
struct Stack {
  schema::SchemaGraph graph;
  objmodel::SlicingStore store;
  view::ViewManager views;
  TseManager tse;
  update::UpdateEngine db;
  ViewId vs;

  Stack()
      : views(&graph),
        tse(&graph, &store, &views),
        db(&graph, &store, update::ValueClosurePolicy::kAllow) {
    ClassId person =
        graph
            .AddBaseClass("Person", {},
                          {PropertySpec::Attribute("name",
                                                   ValueType::kString),
                           PropertySpec::Attribute("age", ValueType::kInt)})
            .value();
    ClassId staff =
        graph
            .AddBaseClass("SupportStaff", {person},
                          {PropertySpec::Attribute("boss",
                                                   ValueType::kString)})
            .value();
    ClassId teaching =
        graph
            .AddBaseClass("TeachingStaff", {person},
                          {PropertySpec::Attribute("lecture",
                                                   ValueType::kString)})
            .value();
    ClassId student =
        graph
            .AddBaseClass("Student", {person},
                          {PropertySpec::Attribute("major",
                                                   ValueType::kString)})
            .value();
    ClassId ta =
        graph.AddBaseClass("TA", {teaching, student}, {}).value();
    for (int i = 0; i < 50; ++i) {
      db.Create(i % 2 ? student : ta, {}).value();
    }
    vs = tse.CreateView("VS", {{person, ""},
                               {staff, ""},
                               {teaching, ""},
                               {student, ""},
                               {ta, ""}})
             .value();
  }
};

void RunOp(benchmark::State& state, const SchemaChange& change) {
  for (auto _ : state) {
    state.PauseTiming();
    auto stack = std::make_unique<Stack>();
    state.ResumeTiming();
    auto r = stack->tse.ApplyChange(stack->vs, change);
    benchmark::DoNotOptimize(r);
    state.PauseTiming();
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    stack.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_AddAttribute(benchmark::State& state) {
  AddAttribute c;
  c.class_name = "Student";
  c.spec = PropertySpec::Attribute("register", ValueType::kBool);
  RunOp(state, c);
}
BENCHMARK(BM_AddAttribute)->Unit(benchmark::kMicrosecond);

void BM_DeleteAttribute(benchmark::State& state) {
  DeleteAttribute c;
  c.class_name = "Student";
  c.attr_name = "major";
  RunOp(state, c);
}
BENCHMARK(BM_DeleteAttribute)->Unit(benchmark::kMicrosecond);

void BM_AddMethod(benchmark::State& state) {
  AddMethod c;
  c.class_name = "Person";
  c.spec = PropertySpec::Method(
      "is_adult",
      MethodExpr::Ge(MethodExpr::Attr("age"), MethodExpr::Lit(Value::Int(18))),
      ValueType::kBool);
  RunOp(state, c);
}
BENCHMARK(BM_AddMethod)->Unit(benchmark::kMicrosecond);

void BM_DeleteMethod(benchmark::State& state) {
  // Delete an attribute-kind property is covered above; method deletion
  // shares the same translation. Use lecture as a stand-in local prop.
  DeleteAttribute c;
  c.class_name = "TeachingStaff";
  c.attr_name = "lecture";
  RunOp(state, c);
}
BENCHMARK(BM_DeleteMethod)->Unit(benchmark::kMicrosecond);

void BM_AddEdge(benchmark::State& state) {
  AddEdge c;
  c.super_name = "SupportStaff";
  c.sub_name = "TA";
  RunOp(state, c);
}
BENCHMARK(BM_AddEdge)->Unit(benchmark::kMicrosecond);

void BM_DeleteEdge(benchmark::State& state) {
  DeleteEdge c;
  c.super_name = "TeachingStaff";
  c.sub_name = "TA";
  RunOp(state, c);
}
BENCHMARK(BM_DeleteEdge)->Unit(benchmark::kMicrosecond);

void BM_AddClass(benchmark::State& state) {
  AddClass c;
  c.new_class_name = "Grader";
  c.connected_to = "TA";
  RunOp(state, c);
}
BENCHMARK(BM_AddClass)->Unit(benchmark::kMicrosecond);

void BM_DeleteClass(benchmark::State& state) {
  DeleteClass c;
  c.class_name = "TeachingStaff";
  RunOp(state, c);
}
BENCHMARK(BM_DeleteClass)->Unit(benchmark::kMicrosecond);

void BM_InsertClass(benchmark::State& state) {
  InsertClass c;
  c.new_class_name = "SeniorStudent";
  c.super_name = "Student";
  c.sub_name = "TA";
  RunOp(state, c);
}
BENCHMARK(BM_InsertClass)->Unit(benchmark::kMicrosecond);

void BM_DeleteClass2(benchmark::State& state) {
  DeleteClass2 c;
  c.class_name = "Student";
  RunOp(state, c);
}
BENCHMARK(BM_DeleteClass2)->Unit(benchmark::kMicrosecond);

void BM_VersionMerge(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    auto stack = std::make_unique<Stack>();
    AddAttribute a1;
    a1.class_name = "Student";
    a1.spec = PropertySpec::Attribute("register", ValueType::kBool);
    AddAttribute a2;
    a2.class_name = "Student";
    a2.spec = PropertySpec::Attribute("student_id", ValueType::kInt);
    ViewId v1 = stack->tse.ApplyChange(stack->vs, a1).value();
    ViewId v2 = stack->tse.ApplyChange(stack->vs, a2).value();
    state.ResumeTiming();
    benchmark::DoNotOptimize(stack->tse.MergeVersions(v1, v2, "merged"));
    state.PauseTiming();
    stack.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VersionMerge)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
