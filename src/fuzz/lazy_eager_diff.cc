#include "fuzz/lazy_eager_diff.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baseline/oracle.h"
#include "common/random.h"
#include "common/str_util.h"
#include "db/db.h"
#include "db/session.h"

namespace tse::fuzz {

namespace {

using baseline::OidBijection;
using objmodel::Value;
using update::Assignment;

/// Same stream tags as the differential executor, so a corpus case
/// replays with the identical churn/merge schedule in both harnesses.
constexpr uint64_t kChurnStream = 0xc2b2ae3d27d4eb4fULL;
constexpr uint64_t kMergeStream = 0x9e3779b97f4a7c15ULL;

/// One half of the comparison: a Db plus its session and view history.
struct Side {
  std::unique_ptr<Db> db;
  std::unique_ptr<Session> session;
  std::vector<ViewId> history;
};

Result<Side> BuildSide(const FuzzCase& c, bool online) {
  Side side;
  DbOptions options;
  options.closure_policy = update::ValueClosurePolicy::kAllow;
  options.online_schema_change = online;
  options.background_backfill = false;  // determinism: pumped explicitly
  TSE_ASSIGN_OR_RETURN(side.db, Db::Open(std::move(options)));
  std::vector<std::string> class_names;
  for (const workload::ClassDef& def : c.workload.classes) {
    // Tolerate supers that no longer exist (shrunk-away definitions),
    // mirroring the differential executor.
    std::vector<ClassId> supers;
    for (const std::string& s : def.supers) {
      auto found = side.db->schema().FindClass(s);
      if (found.ok()) supers.push_back(found.value());
    }
    auto added = side.db->AddBaseClass(def.name, supers, def.props);
    if (!added.ok()) return added.status();
    class_names.push_back(def.name);
  }
  if (class_names.empty()) {
    return Status::InvalidArgument("case has no classes");
  }
  std::vector<view::ViewClassSpec> specs;
  for (const std::string& name : class_names) {
    specs.push_back({side.db->schema().FindClass(name).value(), ""});
  }
  TSE_ASSIGN_OR_RETURN(ViewId view_id, side.db->CreateView("VS", specs));
  side.history.push_back(view_id);
  TSE_ASSIGN_OR_RETURN(side.session, side.db->OpenSession("VS"));
  return side;
}

}  // namespace

RunReport RunLazyEagerDiff(const FuzzCase& c,
                           const LazyEagerOptions& options) {
  RunReport report;

  auto lazy_built = BuildSide(c, /*online=*/true);
  if (!lazy_built.ok()) {
    report.error = lazy_built.status();
    return report;
  }
  auto eager_built = BuildSide(c, /*online=*/false);
  if (!eager_built.ok()) {
    report.error = eager_built.status();
    return report;
  }
  Side lazy = std::move(lazy_built).value();
  Side eager = std::move(eager_built).value();

  auto diverge = [&](size_t step, const std::string& op,
                     const std::string& detail) {
    report.divergence = Divergence{step, op, detail};
  };

  // Conceptual oids are allocated from the same counter as the
  // implementation-object slices, and the two modes materialize slices
  // at different times — so twin objects get different oids and the
  // comparison maps through a bijection, like the in-place oracle's.
  OidBijection oids;

  // Creates the same object on both sides and links the twins. Returns
  // false when an acceptance asymmetry was recorded as a divergence.
  auto create_both =
      [&](size_t step, const std::string& op, const std::string& cls,
          const std::vector<std::pair<std::string, int64_t>>& values)
      -> bool {  // false = diverged (recorded) or harness error (set)
    std::vector<Assignment> assignments;
    for (const auto& [attr, v] : values) {
      assignments.push_back({attr, Value::Int(v)});
    }
    auto a = lazy.session->Create(cls, assignments);
    auto b = eager.session->Create(cls, assignments);
    if (a.ok() != b.ok()) {
      diverge(step, op,
              StrCat("create in ", cls, ": lazy ",
                     a.ok() ? "accepted" : "rejected", ", eager ",
                     b.ok() ? "accepted" : "rejected"));
      return false;
    }
    if (a.ok()) {
      Status linked = oids.Link(a.value(), b.value());
      if (!linked.ok()) {
        report.error = linked;
        return false;
      }
    }
    return true;
  };

  // Compares the whole logical surface: display names, extents, and
  // every unambiguous attribute value read through the sessions — the
  // lazy side's reads double as first-touch materialization triggers.
  auto compare = [&](size_t step, const std::string& op) -> bool {
    auto lvs = lazy.db->views().GetView(lazy.session->view_id());
    auto evs = eager.db->views().GetView(eager.session->view_id());
    if (!lvs.ok() || !evs.ok()) {
      report.error = lvs.ok() ? evs.status() : lvs.status();
      return false;
    }
    std::map<std::string, ClassId> lazy_names;
    std::map<std::string, ClassId> eager_names;
    for (ClassId cls : lvs.value()->classes()) {
      auto display = lvs.value()->DisplayName(cls);
      if (!display.ok()) {
        report.error = display.status();
        return false;
      }
      lazy_names[display.value()] = cls;
    }
    for (ClassId cls : evs.value()->classes()) {
      auto display = evs.value()->DisplayName(cls);
      if (!display.ok()) {
        report.error = display.status();
        return false;
      }
      eager_names[display.value()] = cls;
    }
    if (lazy_names.size() != eager_names.size()) {
      diverge(step, op,
              StrCat("lazy view has ", lazy_names.size(),
                     " classes, eager view has ", eager_names.size()));
      return false;
    }
    for (const auto& [display, lazy_cls] : lazy_names) {
      if (!eager_names.count(display)) {
        diverge(step, op,
                StrCat("class ", display, " visible only in the lazy view"));
        return false;
      }
      auto le = lazy.session->Extent(display);
      auto ee = eager.session->Extent(display);
      if (le.ok() != ee.ok()) {
        diverge(step, op,
                StrCat("extent of ", display, ": lazy ",
                       le.ok() ? "evaluates" : "fails", ", eager ",
                       ee.ok() ? "evaluates" : "fails"));
        return false;
      }
      if (!le.ok()) continue;
      if (le.value().size() != ee.value().size()) {
        diverge(step, op,
                StrCat("extent of ", display, ": lazy has ",
                       le.value().size(), " members, eager has ",
                       ee.value().size()));
        return false;
      }
      for (Oid oid : le.value()) {
        auto twin = oids.ToDirect(oid);
        if (!twin.ok() || !std::binary_search(ee.value().begin(),
                                              ee.value().end(),
                                              twin.value())) {
          diverge(step, op,
                  StrCat("extent of ", display, ": lazy member ",
                         oid.ToString(),
                         twin.ok() ? " has no eager twin in the extent"
                                   : " was never linked to a twin"));
          return false;
        }
      }
      auto type = lazy.db->schema().EffectiveType(lazy_cls);
      if (!type.ok()) {
        report.error = type.status();
        return false;
      }
      for (const auto& [name, defs] : type.value().bindings()) {
        if (defs.size() != 1) continue;  // ambiguous: not invocable
        auto def = lazy.db->schema().GetProperty(defs[0]);
        if (!def.ok()) {
          report.error = def.status();
          return false;
        }
        if (!def.value()->is_attribute()) continue;
        for (Oid oid : le.value()) {
          auto twin = oids.ToDirect(oid);
          if (!twin.ok()) {
            report.error = twin.status();
            return false;
          }
          auto lv = lazy.session->Get(oid, display, name);
          auto ev = eager.session->Get(twin.value(), display, name);
          if (lv.ok() != ev.ok()) {
            diverge(step, op,
                    StrCat("read of ", name, " on ", oid.ToString(),
                           " through ", display, ": lazy ",
                           lv.ok() ? "succeeds" : "fails", ", eager ",
                           ev.ok() ? "succeeds" : "fails"));
            return false;
          }
          if (lv.ok() && !(lv.value() == ev.value())) {
            diverge(step, op,
                    StrCat("value of ", name, " on ", oid.ToString(),
                           " through ", display, ": lazy reads ",
                           lv.value().ToString(), ", eager reads ",
                           ev.value().ToString()));
            return false;
          }
        }
      }
    }
    return true;
  };

  // --- Seed population (twin objects; identical oid streams) -----------
  std::vector<std::string> class_names;
  for (const workload::ClassDef& def : c.workload.classes) {
    class_names.push_back(def.name);
  }
  for (const workload::ObjectDef& obj : c.workload.objects) {
    if (!lazy.session->Resolve(obj.cls).ok()) continue;  // shrunk away
    if (!create_both(0, "<population>", obj.cls, obj.int_values)) {
      return report;
    }
  }

  // --- Replay the script, comparing after every accepted operator ------
  for (size_t step = 0; step < c.script.size(); ++step) {
    const evolution::SchemaChange& change = c.script[step];
    const std::string op = evolution::ToString(change);
    ++report.attempted;

    uint64_t epoch_before = lazy.db->epoch();
    auto a = lazy.session->Apply(change);
    auto b = eager.session->Apply(change);
    if (a.ok() != b.ok()) {
      diverge(step, op,
              StrCat("lazy ", a.ok() ? "accepted" : "rejected",
                     " but eager ", b.ok() ? "accepted" : "rejected", ": ",
                     (a.ok() ? b.status() : a.status()).ToString()));
      return report;
    }
    if (!a.ok()) {
      if (lazy.db->epoch() != epoch_before) {
        diverge(step, op, "rejected change advanced the catalog epoch");
        return report;
      }
      continue;
    }
    ++report.accepted;
    lazy.history.push_back(a.value());
    eager.history.push_back(b.value());

    // The eager oracle must never leave lazy work behind.
    if (eager.db->BackfillPending() != 0) {
      diverge(step, op, "eager drain left pending backfill");
      return report;
    }

    // Section 7 merges, mirrored on both sides (same schedule as the
    // in-process differential executor).
    Rng merge_rng(c.seed ^ (kMergeStream * (step + 1)));
    if (c.exercise_merges && lazy.history.size() >= 2 &&
        report.accepted % 3 == 0) {
      size_t pick = merge_rng.Uniform(lazy.history.size() - 1);
      auto lm = lazy.db->MergeViews(a.value(), lazy.history[pick],
                                    StrCat("M", step));
      auto em = eager.db->MergeViews(b.value(), eager.history[pick],
                                     StrCat("M", step));
      if (lm.ok() != em.ok()) {
        diverge(step, op,
                StrCat("merge with history[", pick, "]: lazy ",
                       lm.ok() ? "accepted" : "rejected", ", eager ",
                       em.ok() ? "accepted" : "rejected"));
        return report;
      }
      if (lm.ok()) ++report.merges;
    }

    // Data churn on the same (seed, step)-derived schedule.
    Rng churn_rng(c.seed ^ (kChurnStream * (step + 1)));
    if (churn_rng.Percent(c.churn_percent) && !class_names.empty()) {
      const std::string& cls =
          class_names[churn_rng.Uniform(class_names.size())];
      bool lazy_resolves = lazy.session->Resolve(cls).ok();
      bool eager_resolves = eager.session->Resolve(cls).ok();
      if (lazy_resolves != eager_resolves) {
        diverge(step, op,
                StrCat("churn class ", cls, " resolves only in the ",
                       lazy_resolves ? "lazy" : "eager", " view"));
        return report;
      }
      if (lazy_resolves && !create_both(step, op, cls, {})) return report;
    }

    // Partial migrator pass, then the full-surface comparison (whose
    // lazy-side reads exercise the first-touch path on what remains).
    if (options.pump_budget > 0) {
      auto pumped = lazy.db->BackfillStep(options.pump_budget);
      if (!pumped.ok()) {
        report.error = pumped.status();
        return report;
      }
    }
    if (!compare(step, op)) return report;
  }

  // --- Final drain: the migrator path must finish the job --------------
  while (lazy.db->BackfillPending() > 0) {
    auto pumped = lazy.db->BackfillStep(64);
    if (!pumped.ok()) {
      report.error = pumped.status();
      return report;
    }
    if (pumped.value() == 0) {
      diverge(c.script.size(), "<final drain>",
              "pending backfill but BackfillStep made no progress");
      return report;
    }
  }
  if (!compare(c.script.size(), "<final drain>")) return report;
  return report;
}

}  // namespace tse::fuzz
