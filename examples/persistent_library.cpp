// Persistence tour: the TSE object model rides on the storage substrate
// (the repo's stand-in for GemStone — Figure 6's bottom layer). With a
// data_dir, tse::Db persists both the objects AND the schema catalog
// (classes, derivations, view history): reopen the database and every
// view version keeps resolving — no code-level schema replay needed.
// Objects survive process restarts; the WAL recovers committed work
// after a crash; schema evolution continues against reloaded data.
//
// Build & run:  ./build/examples/persistent_library [data-dir]

#include <filesystem>
#include <iostream>

#include <tse/db.h>
#include <tse/session.h>

using namespace tse;
using objmodel::Value;
using objmodel::ValueType;
using schema::PropertySpec;

int main(int argc, char** argv) {
  std::filesystem::path dir =
      argc > 1 ? argv[1]
               : std::filesystem::temp_directory_path() / "tse_library";

  // --- Run 1: build, populate, evolve, "crash" ------------------------------
  {
    DbOptions options;
    options.data_dir = dir.string();
    auto db = Db::Open(options).value();

    ClassId book =
        db->AddBaseClass("Book", {},
                         {PropertySpec::Attribute("title", ValueType::kString)})
            .value();
    db->CreateView("Library", {{book, ""}}).value();

    auto librarian = db->OpenSession("Library").value();
    librarian->Apply("add_attribute isbn:string to Book").value();
    librarian
        ->Create("Book", {{"title", Value::Str("A Relational Model")},
                          {"isbn", Value::Str("978-0")}})
        .value();
    librarian->Create("Book", {{"title", Value::Str("Transaction Processing")}})
        .value();
    std::cout << "run 1: stored " << db->store().object_count()
              << " objects; catalog + objects committed via WAL\n";
    // No Checkpoint(): simulate a crash right after the group commit.
    // The WAL must carry the session.
  }

  // --- Run 2: recover and keep evolving -------------------------------------
  {
    DbOptions options;
    options.data_dir = dir.string();
    auto db = Db::Open(options).value();
    std::cout << "run 2: recovered " << db->store().object_count()
              << " objects and "
              << db->views().History("Library").size()
              << " view version(s) from the log\n";

    // The catalog restored both versions; bind to the current one and
    // apply the *new* evolution of this run.
    auto librarian = db->OpenSession("Library").value();
    librarian->Apply("add_attribute shelf:int to Book").value();

    // Tag every recovered book with a shelf — the new stored attribute
    // attaches to old objects without any migration.
    const auto books = librarian->Extent("Book").value();
    int shelf = 1;
    for (Oid oid : books) {
      librarian->Set(oid, "Book", "shelf", Value::Int(shelf++)).ok();
    }
    for (Oid oid : books) {
      std::cout << "  book " << oid.ToString() << ": title="
                << librarian->Get(oid, "Book", "title").value().ToString()
                << " isbn="
                << librarian->Get(oid, "Book", "isbn").value().ToString()
                << " shelf="
                << librarian->Get(oid, "Book", "shelf").value().ToString()
                << "\n";
    }
    db->Checkpoint().ok();
    std::cout << "run 2: checkpointed; WAL truncated\n";
  }
  std::filesystem::remove_all(dir);
  return 0;
}
