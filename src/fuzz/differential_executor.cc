#include "fuzz/differential_executor.h"

#include <set>
#include <variant>
#include <vector>

#include "algebra/extent_eval.h"
#include "algebra/object_accessor.h"
#include "index/index_manager.h"
#include "baseline/direct_engine.h"
#include "baseline/oracle.h"
#include "common/random.h"
#include "common/str_util.h"
#include "evolution/tse_manager.h"
#include "fuzz/intersection_replica.h"
#include "fuzz/naive_placement.h"
#include "update/update_engine.h"
#include "view/view_manager.h"

namespace tse::fuzz {

namespace {

using baseline::DirectEngine;
using baseline::OidBijection;
using evolution::AddAttribute;
using evolution::AddClass;
using evolution::AddEdge;
using evolution::AddMethod;
using evolution::DeleteAttribute;
using evolution::DeleteClass;
using evolution::DeleteClass2;
using evolution::DeleteEdge;
using evolution::DeleteMethod;
using evolution::InsertClass;
using evolution::RenameClass;
using evolution::SchemaChange;
using evolution::TseManager;
using objmodel::Value;
using update::Assignment;

/// Distinct stream tags so per-step churn and merge decisions never
/// share random state with each other or with case generation.
constexpr uint64_t kChurnStream = 0xc2b2ae3d27d4eb4fULL;
constexpr uint64_t kMergeStream = 0x9e3779b97f4a7c15ULL;

/// The first line at which two multi-line renderings differ.
std::string FirstLineDiff(const std::string& a, const std::string& b) {
  std::vector<std::string> la = Split(a, '\n');
  std::vector<std::string> lb = Split(b, '\n');
  size_t i = 0;
  while (i < la.size() && i < lb.size() && la[i] == lb[i]) ++i;
  auto line = [](const std::vector<std::string>& lines, size_t at) {
    return at < lines.size() ? lines[at] : std::string("<end>");
  };
  return StrCat("line ", i + 1, ": '", line(la, i), "' vs '", line(lb, i),
                "'");
}

}  // namespace

std::string Divergence::ToString() const {
  return StrCat("step ", step, " [", op, "]: ", detail);
}

Status MirrorIntoDirect(const SchemaChange& change, DirectEngine* direct,
                        bool sabotage_add_attribute) {
  if (const auto* ch = std::get_if<AddAttribute>(&change)) {
    schema::PropertySpec spec = ch->spec;
    if (sabotage_add_attribute) spec.name += "_sab";
    return direct->AddAttribute(ch->class_name, spec);
  }
  if (const auto* ch = std::get_if<DeleteAttribute>(&change)) {
    return direct->DeleteAttribute(ch->class_name, ch->attr_name);
  }
  if (const auto* ch = std::get_if<AddMethod>(&change)) {
    return direct->AddMethod(ch->class_name, ch->spec);
  }
  if (const auto* ch = std::get_if<DeleteMethod>(&change)) {
    return direct->DeleteMethod(ch->class_name, ch->method_name);
  }
  if (const auto* ch = std::get_if<AddEdge>(&change)) {
    return direct->AddEdge(ch->super_name, ch->sub_name);
  }
  if (const auto* ch = std::get_if<DeleteEdge>(&change)) {
    return direct->DeleteEdge(ch->super_name, ch->sub_name,
                              ch->connected_to ? *ch->connected_to : "");
  }
  if (const auto* ch = std::get_if<AddClass>(&change)) {
    return direct->AddLeafClass(ch->new_class_name,
                                ch->connected_to ? *ch->connected_to : "");
  }
  if (const auto* ch = std::get_if<DeleteClass>(&change)) {
    return direct->RemoveFromSchema(ch->class_name);
  }
  if (const auto* ch = std::get_if<InsertClass>(&change)) {
    // Same macro expansion as the TSE translator: add_class connected to
    // the super, then add_edge to the sub.
    TSE_RETURN_IF_ERROR(
        direct->AddLeafClass(ch->new_class_name, ch->super_name));
    return direct->AddEdge(ch->new_class_name, ch->sub_name);
  }
  if (const auto* ch = std::get_if<DeleteClass2>(&change)) {
    return direct->DeleteClassOrion(ch->class_name);
  }
  if (const auto* ch = std::get_if<RenameClass>(&change)) {
    return direct->RenameClass(ch->old_name, ch->new_name);
  }
  return Status::Internal("unmirrored operator");
}

RunReport DifferentialExecutor::Run(const FuzzCase& c) const {
  RunReport report;

  // --- Build both systems from the case's workload ----------------------
  schema::SchemaGraph graph;
  objmodel::SlicingStore store;
  view::ViewManager views(&graph);
  TseManager manager(&graph, &store, &views);
  update::UpdateEngine updates(&graph, &store,
                               update::ValueClosurePolicy::kAllow);
  DirectEngine direct;
  OidBijection oids;

  // Classifier-vs-naive arm: a schema-only twin whose classifier tests
  // every classified class. It replays the base schema, the index probe
  // classes and every change, so its class ids coincide with the main
  // stack's and the two DAGs must render identically.
  const bool naive_arm = options_.check_classifier_vs_naive;
  schema::SchemaGraph naive_graph;
  objmodel::SlicingStore naive_store;
  view::ViewManager naive_views(&naive_graph);
  TseManager naive_manager(&naive_graph, &naive_store, &naive_views,
                           NaivePlacement);

  // Snapshot-vs-locked arm: every store mutation below runs inside an
  // MVCC commit epoch, stamped exactly like Db commits stamp them, so
  // the version chains the snapshot path reads are the real thing.
  uint64_t mvcc_epoch = 0;
  auto begin_epoch = [&]() {
    if (options_.check_snapshot_vs_locked) store.BeginMvccOp(++mvcc_epoch);
  };
  auto end_epoch = [&]() {
    if (options_.check_snapshot_vs_locked) store.EndMvccOp();
  };

  std::vector<std::string> class_names;
  for (const workload::ClassDef& def : c.workload.classes) {
    // Tolerate supers that no longer exist (the shrinker drops whole
    // class definitions; dependents just lose that parent).
    std::vector<ClassId> supers;
    std::vector<std::string> super_names;
    for (const std::string& s : def.supers) {
      auto found = graph.FindClass(s);
      if (!found.ok()) continue;
      supers.push_back(found.value());
      super_names.push_back(s);
    }
    auto added = graph.AddBaseClass(def.name, supers, def.props);
    if (!added.ok()) {
      report.error = added.status();
      return report;
    }
    if (naive_arm) {
      auto twin = naive_graph.AddBaseClass(def.name, supers, def.props);
      if (!twin.ok() || twin.value() != added.value()) {
        report.error = Status::Internal(
            StrCat("naive-classifier twin could not mirror base class ",
                   def.name));
        return report;
      }
    }
    Status st = direct.AddClass(def.name, super_names, def.props);
    if (!st.ok()) {
      report.error = Status::Internal(
          StrCat("oracle rejected base class ", def.name, ": ",
                 st.ToString()));
      return report;
    }
    class_names.push_back(def.name);
  }
  if (class_names.empty()) {
    report.error = Status::InvalidArgument("case has no classes");
    return report;
  }

  // Creates an object in both systems and links the twins. Returns
  // non-OK only for harness-level trouble.
  auto create_twin =
      [&](const std::string& cls,
          const std::vector<std::pair<std::string, int64_t>>& values)
      -> Status {
    auto cls_id = graph.FindClass(cls);
    if (!cls_id.ok()) return Status::OK();  // class shrunk away: skip
    std::vector<Assignment> assignments;
    for (const auto& [attr, v] : values) {
      assignments.push_back({attr, Value::Int(v)});
    }
    auto tse_oid = updates.Create(cls_id.value(), assignments);
    if (!tse_oid.ok()) return Status::OK();  // attr shrunk away: skip
    auto direct_oid = direct.CreateObject(cls);
    if (!direct_oid.ok()) {
      return Status::Internal(
          StrCat("oracle cannot create object in ", cls, ": ",
                 direct_oid.status().ToString()));
    }
    for (const auto& [attr, v] : values) {
      TSE_RETURN_IF_ERROR(direct.SetValue(direct_oid.value(), attr,
                                          Value::Int(v)));
    }
    return oids.Link(tse_oid.value(), direct_oid.value());
  };
  begin_epoch();
  for (const workload::ObjectDef& obj : c.workload.objects) {
    Status st = create_twin(obj.cls, obj.int_values);
    if (!st.ok()) {
      end_epoch();
      report.error = st;
      return report;
    }
  }
  end_epoch();

  // The user's view covers the whole base schema, so the oracle surface
  // and the view surface coincide.
  std::vector<view::ViewClassSpec> specs;
  for (const std::string& name : class_names) {
    specs.push_back({graph.FindClass(name).value(), ""});
  }
  auto created = manager.CreateView("VS", specs);
  if (!created.ok()) {
    report.error = created.status();
    return report;
  }
  ViewId view_id = created.value();
  ViewId naive_view_id;
  if (naive_arm) {
    auto twin = naive_manager.CreateView("VS", specs);
    if (!twin.ok()) {
      report.error = twin.status();
      return report;
    }
    naive_view_id = twin.value();
  }
  std::vector<ViewId> history = {view_id};

  // --- Oracle checks -----------------------------------------------------
  // The update engine's long-lived evaluator maintains its extent cache
  // incrementally across the whole run; every per-step check reads
  // through it, so the fuzzer exercises delta propagation on each op.
  algebra::ExtentEvaluator& live_extents = updates.extents();

  // Indexed-vs-scan differential arm: index up to three of the
  // workload's int attributes (alternating hash/ordered), define global
  // select classes probing them (outside the view, so the equivalence
  // checks above stay untouched), and keep one evaluator forced onto
  // the index arm for the whole run — its indexes are maintained from
  // the change journal across every schema change and churn step. Each
  // check also evaluates the probe classes cold on the batch arm (one
  // arena pass per select) and compares both against a classic scan.
  ::tse::index::IndexManager indexes(&graph, &store);
  algebra::ExtentEvaluator indexed_eval(&graph, &store);
  indexed_eval.set_index_manager(&indexes);
  indexed_eval.set_planner_mode(algebra::PlannerMode::kForceIndex);
  std::vector<ClassId> probe_classes;
  auto define_probe = [&](const std::string& name,
                          schema::Derivation derivation) {
    if (naive_arm) (void)naive_graph.AddVirtualClass(name, derivation);
    auto cls = graph.AddVirtualClass(name, std::move(derivation));
    if (cls.ok()) probe_classes.push_back(cls.value());
  };
  if (options_.check_index_vs_scan) {
    size_t declared = 0;
    for (const std::string& name : class_names) {
      if (declared >= 3) break;
      auto cls = graph.FindClass(name);
      if (!cls.ok()) continue;
      auto node = graph.GetClass(cls.value());
      if (!node.ok()) continue;
      for (PropertyDefId prop : node.value()->local_props) {
        if (declared >= 3) break;
        auto def = graph.GetProperty(prop);
        if (!def.ok() || !def.value()->is_attribute()) continue;
        if (def.value()->value_type != objmodel::ValueType::kInt) continue;
        const ::tse::index::IndexKind kind =
            declared % 2 == 0 ? ::tse::index::IndexKind::kOrdered
                              : ::tse::index::IndexKind::kHash;
        if (!indexes.CreateIndex(prop, kind).ok()) continue;
        ++declared;
        using objmodel::MethodExpr;
        schema::Derivation eq_sel;
        eq_sel.op = schema::DerivationOp::kSelect;
        eq_sel.sources = {def.value()->definer};
        eq_sel.predicate = MethodExpr::Eq(
            MethodExpr::Attr(def.value()->name),
            MethodExpr::Lit(Value::Int(1)));
        define_probe(StrCat("IxEq_", prop.value()), std::move(eq_sel));
        schema::Derivation rg_sel;
        rg_sel.op = schema::DerivationOp::kSelect;
        rg_sel.sources = {def.value()->definer};
        rg_sel.predicate = MethodExpr::Lt(
            MethodExpr::Attr(def.value()->name),
            MethodExpr::Lit(Value::Int(50)));
        define_probe(StrCat("IxRg_", prop.value()), std::move(rg_sel));
      }
    }
  }
  auto check_index_vs_scan = [&]() -> Status {
    algebra::ExtentEvaluator scan_eval(&graph, &store);
    scan_eval.set_planner_mode(algebra::PlannerMode::kForceClassic);
    algebra::ExtentEvaluator batch_eval(&graph, &store);
    batch_eval.set_planner_mode(algebra::PlannerMode::kForceBatch);
    for (ClassId cls : probe_classes) {
      auto via_scan = scan_eval.Extent(cls);
      for (const auto& [arm, eval] : {std::pair{"index", &indexed_eval},
                                      std::pair{"batch", &batch_eval}}) {
        auto via_arm = eval->Extent(cls);
        if (via_arm.ok() != via_scan.ok()) {
          return Status::FailedPrecondition(StrCat(
              "select class ", cls.ToString(),
              (via_arm.ok() ? " evaluates via " : " fails via "), arm,
              (via_arm.ok() ? " but the scan fails: "
                            : " but the scan succeeds: "),
              (via_arm.ok() ? via_scan.status() : via_arm.status())
                  .ToString()));
        }
        if (via_arm.ok() && *via_arm.value() != *via_scan.value()) {
          return Status::FailedPrecondition(
              StrCat("select class ", cls.ToString(), " has ",
                     via_arm.value()->size(), " members via ", arm, ", ",
                     via_scan.value()->size(), " via scan"));
        }
      }
    }
    return Status::OK();
  };

  // Snapshot-vs-locked differential arm (DESIGN.md §13): after every
  // accepted change the view surface is read twice — live locked path
  // vs epoch-pinned snapshot path — and must agree exactly. One older
  // epoch is kept pinned and its full surface digest re-verified a few
  // steps later, after a store-level vacuum up to (and including) that
  // epoch, proving chains keep reachable versions repeatable.
  struct RetainedEpoch {
    uint64_t epoch = 0;
    size_t step = 0;
    const view::ViewSchema* vs = nullptr;
    std::string digest;
  };
  std::optional<RetainedEpoch> retained;
  // Full read surface of `vs` at `epoch`, rendered to text: per-class
  // extents plus every unambiguous attribute of every member.
  auto surface_at = [&](const view::ViewSchema* vs,
                        uint64_t epoch) -> Result<std::string> {
    algebra::ObjectAccessor accessor(&graph, &store);
    algebra::ExtentEvaluator eval(&graph, &store);
    std::string out;
    for (ClassId cls : vs->classes()) {
      TSE_ASSIGN_OR_RETURN(std::string display, vs->DisplayName(cls));
      TSE_ASSIGN_OR_RETURN(std::set<Oid> extent, eval.ExtentAt(cls, epoch));
      TSE_ASSIGN_OR_RETURN(schema::TypeSet type, graph.EffectiveType(cls));
      out += StrCat("\n", display, "#", extent.size());
      for (Oid oid : extent) {
        out += StrCat("|", oid.ToString());
        for (const auto& [name, defs] : type.bindings()) {
          if (defs.size() != 1) continue;  // ambiguous: not invocable
          TSE_ASSIGN_OR_RETURN(const schema::PropertyDef* def,
                               graph.GetProperty(defs[0]));
          if (!def->is_attribute()) continue;
          auto value = accessor.Read(oid, cls, name, epoch);
          out += StrCat(",", name, "=",
                        value.ok() ? value.value().ToString()
                                   : value.status().ToString());
        }
      }
    }
    return out;
  };
  auto check_snapshot_vs_locked = [&](const view::ViewSchema* vs,
                                      size_t step) -> Status {
    algebra::ObjectAccessor accessor(&graph, &store);
    algebra::ExtentEvaluator snap_eval(&graph, &store);
    for (ClassId cls : vs->classes()) {
      TSE_ASSIGN_OR_RETURN(std::string display, vs->DisplayName(cls));
      TSE_ASSIGN_OR_RETURN(std::set<Oid> at_epoch,
                           snap_eval.ExtentAt(cls, mvcc_epoch));
      TSE_ASSIGN_OR_RETURN(algebra::ExtentEvaluator::ExtentPtr live,
                           live_extents.Extent(cls));
      if (at_epoch != *live) {
        return Status::FailedPrecondition(
            StrCat("extent of class ", display, " has ", at_epoch.size(),
                   " members at epoch ", mvcc_epoch, ", ", live->size(),
                   " through the locked path"));
      }
      TSE_ASSIGN_OR_RETURN(schema::TypeSet type, graph.EffectiveType(cls));
      for (Oid oid : at_epoch) {
        for (const auto& [name, defs] : type.bindings()) {
          if (defs.size() != 1) continue;  // ambiguous: not invocable
          TSE_ASSIGN_OR_RETURN(const schema::PropertyDef* def,
                               graph.GetProperty(defs[0]));
          if (!def->is_attribute()) continue;
          auto via_snapshot = accessor.Read(oid, cls, name, mvcc_epoch);
          auto via_locked = accessor.Read(oid, cls, name);
          if (via_snapshot.ok() != via_locked.ok()) {
            return Status::FailedPrecondition(StrCat(
                "reading ", name, " on object ", oid.ToString(),
                " through class ", display,
                (via_snapshot.ok()
                     ? " succeeds at the snapshot epoch but fails locked: "
                     : " fails at the snapshot epoch but succeeds locked: "),
                (via_snapshot.ok() ? via_locked.status()
                                   : via_snapshot.status())
                    .ToString()));
          }
          if (via_snapshot.ok() &&
              !(via_snapshot.value() == via_locked.value())) {
            return Status::FailedPrecondition(StrCat(
                "value of ", name, " on object ", oid.ToString(),
                " through class ", display, ": snapshot reads ",
                via_snapshot.value().ToString(), ", locked path reads ",
                via_locked.value().ToString()));
          }
        }
      }
    }
    // Repeatable-read + vacuum-safety audit: the retained epoch's whole
    // surface must render byte-for-byte the same after further schema
    // changes, churn, and a vacuum up to that very epoch.
    if (retained && step - retained->step >= 3) {
      (void)store.VacuumVersions(retained->epoch);
      TSE_ASSIGN_OR_RETURN(std::string now,
                           surface_at(retained->vs, retained->epoch));
      if (now != retained->digest) {
        return Status::FailedPrecondition(
            StrCat("surface pinned at epoch ", retained->epoch,
                   " (step ", retained->step,
                   ") is not repeatable after vacuum; drifted to:", now,
                   "\nexpected:", retained->digest));
      }
      retained.reset();
    }
    if (!retained) {
      TSE_ASSIGN_OR_RETURN(std::string digest, surface_at(vs, mvcc_epoch));
      retained = RetainedEpoch{mvcc_epoch, step, vs, std::move(digest)};
    }
    return Status::OK();
  };

  // Textual digest of a view version (shape + types + extent sizes),
  // used to prove rejected changes leave the view untouched.
  auto snapshot = [&](ViewId vid) -> Result<std::string> {
    TSE_ASSIGN_OR_RETURN(const view::ViewSchema* vs, views.GetView(vid));
    std::string out = vs->ToString();
    for (ClassId cls : vs->classes()) {
      TSE_ASSIGN_OR_RETURN(std::string display, vs->DisplayName(cls));
      TSE_ASSIGN_OR_RETURN(schema::TypeSet type, graph.EffectiveType(cls));
      TSE_ASSIGN_OR_RETURN(algebra::ExtentEvaluator::ExtentPtr extent,
                           live_extents.Extent(cls));
      out += StrCat("\n", display, ":", type.ToString(), "#", extent->size());
    }
    return out;
  };

  // Attribute-value surface: every unambiguous attribute read through
  // the view must equal the oracle's value on the twin object.
  auto check_values = [&](const view::ViewSchema* vs) -> Status {
    algebra::ObjectAccessor accessor(&graph, &store);
    for (ClassId cls : vs->classes()) {
      TSE_ASSIGN_OR_RETURN(std::string display, vs->DisplayName(cls));
      TSE_ASSIGN_OR_RETURN(schema::TypeSet type, graph.EffectiveType(cls));
      TSE_ASSIGN_OR_RETURN(algebra::ExtentEvaluator::ExtentPtr extent,
                           live_extents.Extent(cls));
      for (Oid oid : *extent) {
        TSE_ASSIGN_OR_RETURN(Oid twin, oids.ToDirect(oid));
        for (const auto& [name, defs] : type.bindings()) {
          if (defs.size() != 1) continue;  // ambiguous: not invocable
          TSE_ASSIGN_OR_RETURN(const schema::PropertyDef* def,
                               graph.GetProperty(defs[0]));
          if (!def->is_attribute()) continue;
          TSE_ASSIGN_OR_RETURN(Value via_view, accessor.Read(oid, cls, name));
          auto via_direct = direct.GetValue(twin, name);
          Value expect = via_direct.ok() ? via_direct.value() : Value::Null();
          if (!(via_view == expect)) {
            return Status::FailedPrecondition(
                StrCat("value of ", name, " on object ", oid.ToString(),
                       " through class ", display, ": view reads ",
                       via_view.ToString(), ", oracle reads ",
                       expect.ToString()));
          }
        }
      }
    }
    return Status::OK();
  };

  auto diverge = [&](size_t step, const std::string& op,
                     const std::string& detail) {
    report.divergence = Divergence{step, op, detail};
  };

  // --- Replay the script, checking after every accepted operator --------
  for (size_t step = 0; step < c.script.size(); ++step) {
    const SchemaChange& change = c.script[step];
    const std::string op = evolution::ToString(change);
    ++report.attempted;

    auto before = snapshot(view_id);
    if (!before.ok()) {
      report.error = before.status();
      return report;
    }
    begin_epoch();
    auto result = manager.ApplyChange(view_id, change);
    end_epoch();
    if (naive_arm) {
      // The DAG search must place every class exactly where testing
      // every classified class places it.
      auto naive_result = naive_manager.ApplyChange(naive_view_id, change);
      if (naive_result.ok() != result.ok()) {
        diverge(step, op,
                StrCat("the naive-classifier twin ",
                       naive_result.ok() ? "accepted" : "rejected",
                       " a change the DAG-search classifier ",
                       result.ok() ? "accepted" : "rejected"));
        return report;
      }
      if (naive_result.ok()) naive_view_id = naive_result.value();
      const std::string dot = graph.ToDot();
      const std::string naive_dot = naive_graph.ToDot();
      if (dot != naive_dot) {
        diverge(step, op,
                StrCat("classified DAG differs from the naive scan's at ",
                       FirstLineDiff(dot, naive_dot)));
        return report;
      }
      // View generation walks that DAG; it must wire exactly the edges
      // the pairwise subsumption matrix wires.
      if (result.ok()) {
        const view::ViewSchema* vs = views.GetView(result.value()).value();
        auto edge = [&](ClassId sub, ClassId sup) {
          return StrCat(graph.GetClass(sub).value()->name, " -> ",
                        graph.GetClass(sup).value()->name, "\n");
        };
        std::string walked, naive;
        for (ClassId cls : vs->classes()) {
          for (ClassId sup : vs->DirectSupers(cls)) walked += edge(cls, sup);
        }
        for (const auto& [sub, sup] : NaiveViewEdges(graph, vs->classes())) {
          naive += edge(sub, sup);
        }
        if (walked != naive) {
          diverge(step, op,
                  StrCat("view edges differ from the naive matrix's at ",
                         FirstLineDiff(walked, naive)));
          return report;
        }
      }
    }
    if (!result.ok()) {
      // TSE refused (duplicate name, inherited attribute, cycle, ...);
      // the current version must be byte-for-byte untouched.
      auto after = snapshot(view_id);
      if (!after.ok()) {
        report.error = after.status();
        return report;
      }
      if (after.value() != before.value()) {
        diverge(step, op, "rejected change mutated the view");
        return report;
      }
      continue;
    }
    ++report.accepted;

    Status direct_status =
        MirrorIntoDirect(change, &direct, options_.sabotage_add_attribute);
    if (!direct_status.ok()) {
      diverge(step, op,
              StrCat("oracle rejected a change TSE accepted: ",
                     direct_status.ToString()));
      return report;
    }
    view_id = result.value();
    history.push_back(view_id);
    auto vs_result = views.GetView(view_id);
    if (!vs_result.ok()) {
      report.error = vs_result.status();
      return report;
    }
    const view::ViewSchema* vs = vs_result.value();

    // Proposition A: S'' = S'.
    Status equiv = baseline::CheckEquivalence(graph, &store, *vs, direct,
                                              oids, &live_extents);
    if (!equiv.ok()) {
      diverge(step, op, equiv.ToString());
      return report;
    }
    if (options_.check_incremental_extents) {
      // Delta-propagated extents must equal a cold from-scratch
      // evaluation after every accepted operator.
      algebra::ExtentEvaluator cold(&graph, &store);
      for (ClassId cls : vs->classes()) {
        auto inc = live_extents.Extent(cls);
        auto scratch = cold.Extent(cls);
        if (inc.ok() != scratch.ok()) {
          diverge(step, op,
                  StrCat("incremental extent of class ", cls.ToString(),
                         (inc.ok() ? " evaluates but cold evaluation fails: "
                                   : " fails but cold evaluation succeeds: "),
                         (inc.ok() ? scratch.status() : inc.status())
                             .ToString()));
          return report;
        }
        if (inc.ok() && *inc.value() != *scratch.value()) {
          diverge(step, op,
                  StrCat("incremental extent of class ", cls.ToString(),
                         " has ", inc.value()->size(),
                         " members, cold evaluation has ",
                         scratch.value()->size()));
          return report;
        }
      }
    }
    if (options_.check_index_vs_scan) {
      // Journal-maintained indexes and batch arena passes must answer
      // every probe class exactly like a cold scan-forced evaluation,
      // including error status.
      Status st = check_index_vs_scan();
      if (!st.ok()) {
        diverge(step, op, st.ToString());
        return report;
      }
    }
    if (options_.check_snapshot_vs_locked) {
      // The snapshot path pinned at the current epoch must read exactly
      // what the locked path reads, and older pinned epochs must stay
      // repeatable (checked against their retained digests).
      Status st = check_snapshot_vs_locked(vs, step);
      if (!st.ok()) {
        diverge(step, op, st.ToString());
        return report;
      }
    }
    if (options_.check_values) {
      Status st = check_values(vs);
      if (!st.ok()) {
        diverge(step, op, st.ToString());
        return report;
      }
    }
    if (options_.check_intersection_replica) {
      Status st = CheckIntersectionReplica(graph, &store, *vs, &live_extents);
      if (!st.ok()) {
        diverge(step, op, st.ToString());
        return report;
      }
    }
    if (options_.check_updatability) {
      // Theorem 1: everything stays updatable.
      std::set<ClassId> updatable = update::UpdateEngine::MarkUpdatable(graph);
      for (ClassId cls : vs->classes()) {
        if (!updatable.count(cls)) {
          diverge(step, op,
                  StrCat("view class ",
                         vs->DisplayName(cls).value_or("<unnamed>"),
                         " is no longer updatable"));
          return report;
        }
      }
    }

    // Section 7 side-exercise: merge the current version with a random
    // historical one and make sure the merged view evaluates cleanly
    // with unique display names.
    Rng merge_rng(c.seed ^ (kMergeStream * (step + 1)));
    if (c.exercise_merges && history.size() >= 2 &&
        report.accepted % 3 == 0) {
      ViewId other = history[merge_rng.Uniform(history.size() - 1)];
      begin_epoch();
      auto merged = manager.MergeVersions(view_id, other,
                                          StrCat("M", step));
      end_epoch();
      if (!merged.ok()) {
        diverge(step, op,
                StrCat("merging with a historical version failed: ",
                       merged.status().ToString()));
        return report;
      }
      ++report.merges;
      auto merged_vs = views.GetView(merged.value());
      if (!merged_vs.ok()) {
        report.error = merged_vs.status();
        return report;
      }
      std::set<std::string> merged_names;
      for (ClassId cls : merged_vs.value()->classes()) {
        auto display = merged_vs.value()->DisplayName(cls);
        if (!display.ok() ||
            !merged_names.insert(display.value()).second) {
          diverge(step, op,
                  StrCat("merged view has a broken or duplicate display "
                         "name for class ",
                         cls.ToString()));
          return report;
        }
        if (!graph.EffectiveType(cls).ok() ||
            !live_extents.Extent(cls).ok()) {
          diverge(step, op,
                  StrCat("merged view class ", display.value(),
                         " no longer evaluates"));
          return report;
        }
      }
    }

    // Interleave data churn so later checks exercise fresh objects too.
    // The churn stream is derived from (seed, step), so dropping other
    // script operators during shrinking does not shift it.
    Rng churn_rng(c.seed ^ (kChurnStream * (step + 1)));
    if (churn_rng.Percent(c.churn_percent) && !class_names.empty()) {
      const std::string& cls =
          class_names[churn_rng.Uniform(class_names.size())];
      if (vs->Resolve(cls).ok() && direct.HasClass(cls) &&
          graph.FindClass(cls).ok()) {
        begin_epoch();
        Status st = create_twin(cls, {});
        end_epoch();
        if (!st.ok()) {
          report.error = st;
          return report;
        }
      }
    }
  }

  // Proposition B: every historical version must still resolve and
  // evaluate (extents legitimately grow with churn, so sizes are not
  // compared here — per-step equivalence already pinned them).
  for (ViewId vid : history) {
    auto vs = views.GetView(vid);
    if (!vs.ok()) {
      diverge(c.script.size(), "<historical versions>",
              StrCat("version ", vid.ToString(), " disappeared"));
      return report;
    }
    for (ClassId cls : vs.value()->classes()) {
      if (!graph.EffectiveType(cls).ok() ||
          !live_extents.Extent(cls).ok()) {
        diverge(c.script.size(), "<historical versions>",
                StrCat("class ", cls.ToString(), " of version ",
                       vid.ToString(), " no longer evaluates"));
        return report;
      }
    }
  }
  return report;
}

}  // namespace tse::fuzz
