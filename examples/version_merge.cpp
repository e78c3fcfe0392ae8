// Version merging (Section 7 / Figure 16), in a CAD setting: two chip
// designers independently evolve their view of a shared component
// library, then a third engineer merges both versions to use both
// improvements — with zero instance duplication. Each designer is a
// tse::Session; the merge opens a third session on the merged view.
//
// Build & run:  ./build/examples/version_merge

#include <iostream>

#include <tse/db.h>
#include <tse/session.h>

using namespace tse;
using objmodel::Value;
using objmodel::ValueType;
using schema::PropertySpec;

int main() {
  auto db = Db::Open().value();

  // Shared component library.
  ClassId component =
      db->AddBaseClass("Component", {},
                       {PropertySpec::Attribute("part_no", ValueType::kString)})
          .value();
  ClassId gate =
      db->AddBaseClass("Gate", {component},
                       {PropertySpec::Attribute("fan_in", ValueType::kInt)})
          .value();
  db->CreateView("CAD", {{component, ""}, {gate, ""}}).value();

  // VS.0, handed to both designers: two sessions on the same version.
  auto designer1 = db->OpenSession("CAD").value();
  auto designer2 = db->OpenSession("CAD").value();

  Oid nand1 = designer1
                  ->Create("Gate", {{"part_no", Value::Str("NAND-74")},
                                    {"fan_in", Value::Int(2)}})
                  .value();

  // Designer 1 adds timing data; designer 2 adds power data. Each works
  // on a personal evolution of VS.0, oblivious of the other.
  ViewId vs1 = designer1->Apply("add_attribute delay_ps:int to Gate").value();
  ViewId vs2 = designer2->Apply("add_attribute power_uw:int to Gate").value();

  // Each designer fills in her own data — on the SAME gate object.
  designer1->Set(nand1, "Gate", "delay_ps", Value::Int(350)).ok();
  designer2->Set(nand1, "Gate", "power_uw", Value::Int(12)).ok();

  // The third engineer merges VS.1 and VS.2 (Figure 16's VS.3).
  ViewId vs3 = db->MergeViews(vs1, vs2, "CAD-merged").value();
  auto engineer = db->OpenSessionAt(vs3).value();
  std::cout << "merged view:\n" << engineer->ViewToString().value() << "\n\n";

  // Identical classes merged; same-named distinct classes disambiguated.
  const view::ViewSchema* merged = db->views().GetView(vs3).value();
  for (ClassId cls : merged->classes()) {
    std::string name = merged->DisplayName(cls).value();
    std::cout << "  " << name << " : "
              << db->schema().EffectiveType(cls).value().ToString() << "\n";
  }

  // Both attributes reachable, both backed by the one shared instance.
  std::string power_gate_name;
  for (ClassId cls : merged->classes()) {
    std::string name = merged->DisplayName(cls).value();
    if (name.rfind("Gate.v", 0) == 0) power_gate_name = name;
  }
  std::cout << "\nNAND-74 through merged view:"
            << "\n  delay_ps = "
            << engineer->Get(nand1, "Gate", "delay_ps").value().ToString()
            << "\n  power_uw = "
            << engineer->Get(nand1, power_gate_name, "power_uw").value()
                   .ToString()
            << "\n  objects in store: " << db->store().object_count()
            << " (no duplication)\n";
  return 0;
}
