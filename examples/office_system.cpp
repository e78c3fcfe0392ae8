// Office information system — one of the evolving applications the
// paper's introduction motivates (CAD/CAM, VLSI, office IS). Shows the
// pieces working together on a referential schema:
//
//   * reference attributes + path navigation (doc.owner.dept.title),
//   * view definitions with select predicates parsed from text,
//   * capacity-augmenting evolution while old dashboards keep running,
//   * type closure pulling referenced classes into views automatically.
//
// Build & run:  ./build/examples/office_system

#include <iostream>

#include <tse/db.h>
#include <tse/query.h>
#include <tse/session.h>

using namespace tse;
using objmodel::ParseExpr;
using objmodel::Value;
using objmodel::ValueType;
using schema::PropertySpec;

int main() {
  DbOptions options;
  options.closure_policy = update::ValueClosurePolicy::kAllow;
  auto db = Db::Open(options).value();

  // --- Base schema with an aggregation hierarchy --------------------------
  ClassId dept =
      db->AddBaseClass("Dept", {},
                       {PropertySpec::Attribute("title", ValueType::kString)})
          .value();
  ClassId employee =
      db->AddBaseClass("Employee", {},
                       {PropertySpec::Attribute("name", ValueType::kString),
                        PropertySpec::RefAttribute("dept", dept)})
          .value();
  ClassId document =
      db->AddBaseClass("Document", {},
                       {PropertySpec::Attribute("subject", ValueType::kString),
                        PropertySpec::Attribute("pages", ValueType::kInt),
                        PropertySpec::RefAttribute("owner", employee)})
          .value();
  db->CreateView("Office", {{dept, ""}, {employee, ""}, {document, ""}})
      .value();

  // Clerks populate the office through a session on the base view.
  auto clerk = db->OpenSession("Office").value();
  Oid eng = clerk->Create("Dept", {{"title", Value::Str("Engineering")}})
                .value();
  Oid legal =
      clerk->Create("Dept", {{"title", Value::Str("Legal")}}).value();
  Oid ada = clerk
                ->Create("Employee", {{"name", Value::Str("ada")},
                                      {"dept", Value::Ref(eng)}})
                .value();
  Oid sam = clerk
                ->Create("Employee", {{"name", Value::Str("sam")},
                                      {"dept", Value::Ref(legal)}})
                .value();
  for (int i = 0; i < 6; ++i) {
    clerk
        ->Create("Document",
                 {{"subject", Value::Str("doc-" + std::to_string(i))},
                  {"pages", Value::Int(4 + 10 * i)},
                  {"owner", Value::Ref(i % 2 ? ada : sam)}})
        .value();
  }

  // --- A content-based view: engineering documents only -------------------
  // defineVC with a predicate navigating owner.dept.title; the classifier
  // slots the virtual class into the global DAG behind the facade.
  ClassId eng_docs =
      db->DefineVirtualClass(
            "EngDoc",
            algebra::Query::Select(
                algebra::Query::Class("Document"),
                ParseExpr("owner.dept.title == \"Engineering\"").value()))
          .value();

  db->CreateView("EngDashboard", {{eng_docs, "EngDoc"}}).value();
  auto dashboard = db->OpenSession("EngDashboard").value();
  // Type closure pulled in the referenced classes automatically.
  std::cout << "dashboard view (type closure added referenced classes):\n"
            << dashboard->ViewToString().value() << "\n\n";

  std::cout << "engineering documents: "
            << dashboard->Extent("EngDoc").value().size() << " of "
            << clerk->Extent("Document").value().size() << " total\n\n";

  // --- Evolution: the archivist needs a retention class -------------------
  // The dashboard session applies the change and transparently rebinds.
  dashboard->Apply("add_attribute retention_years:int to EngDoc").value();
  const std::vector<Oid> eng_members = dashboard->Extent("EngDoc").value();
  for (Oid doc : eng_members) {
    dashboard->Set(doc, "EngDoc", "retention_years", Value::Int(7)).ok();
  }
  std::cout << "after evolution, through the new view:\n";
  for (Oid doc : eng_members) {
    std::cout << "  "
              << dashboard->Get(doc, "EngDoc", "subject").value().ToString()
              << " owner="
              << dashboard->Get(doc, "EngDoc", "owner.name").value().ToString()
              << " retention="
              << dashboard->Get(doc, "EngDoc", "retention_years")
                     .value()
                     .ToString()
              << "\n";
  }

  // The old dashboard never saw retention_years and still works.
  bool old_sees =
      db->schema().EffectiveType(eng_docs).value().ContainsName(
          "retention_years");
  std::cout << "\nold dashboard sees retention_years? "
            << (old_sees ? "yes (BUG)" : "no — transparent") << "\n";
  return 0;
}
