#ifndef TSE_VIEW_CATALOG_IO_H_
#define TSE_VIEW_CATALOG_IO_H_

#include <vector>

#include "common/status.h"
#include "index/index_manager.h"
#include "schema/schema_graph.h"
#include "storage/record_store.h"
#include "view/view_manager.h"

namespace tse::view {

/// Serializes and restores the schema catalog — the global schema graph
/// (classes, derivations with predicates and method bodies, property
/// definitions, classified edges) and the view schema history — through
/// the persistent record store. Together with
/// objmodel::PersistenceBridge this makes a TSE database fully durable:
/// reopen the stores, restore the catalog, reload the objects, and all
/// view versions keep resolving.
///
/// Record key layout (one namespace byte in the top bits):
///   0x00...0      header: allocator high-water marks
///   0x01 << 56 | class_id     one record per class
///   0x02 << 56 | prop_id      one record per property definition
///   0x03 << 56 | view_id      one record per view version
///   0x04 << 56 | prop_id      one record per secondary-index spec
///
/// Index *specs* are catalog state; index *contents* are not persisted
/// — a restore rebuilds them from one store scan (the same fallback a
/// journal gap takes), which doubles as crash recovery. Load ignores
/// records in any other namespace, such as the 0x05 packed-layout pins
/// older catalogs carry.
class CatalogIO {
 public:
  /// Writes the complete catalog (replacing any previous catalog
  /// records) and commits. `indexes` may be null (no index records).
  static Status Save(const schema::SchemaGraph& schema, const ViewManager& views,
                     storage::RecordStore* db,
                     const std::vector<index::IndexSpec>* indexes = nullptr);

  /// Restores into a fresh schema::SchemaGraph (containing only OBJECT) and an
  /// empty ViewManager bound to it. Persisted index specs are appended
  /// to `indexes` when non-null (older catalogs simply have none).
  static Status Load(storage::RecordStore* db, schema::SchemaGraph* schema,
                     ViewManager* views,
                     std::vector<index::IndexSpec>* indexes = nullptr);

 private:
  static std::string EncodeClass(const schema::SchemaGraph& schema,
                                 const schema::ClassNode& node);
  static std::string EncodeProperty(const schema::PropertyDef& def);
};

}  // namespace tse::view

#endif  // TSE_VIEW_CATALOG_IO_H_
