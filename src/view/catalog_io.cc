#include "view/catalog_io.h"

#include <cstring>
#include <map>

#include "common/str_util.h"

namespace tse::view {

namespace {

constexpr uint64_t kHeaderKey = 0;
constexpr uint64_t kClassSpace = uint64_t{1} << 56;
constexpr uint64_t kPropSpace = uint64_t{2} << 56;
constexpr uint64_t kViewSpace = uint64_t{3} << 56;
constexpr uint64_t kIndexSpace = uint64_t{4} << 56;

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), 4);
}
void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), 8);
}
void PutStr(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

Result<uint8_t> GetU8(const std::string& data, size_t* pos) {
  if (*pos + 1 > data.size()) return Status::Corruption("truncated u8");
  return static_cast<uint8_t>(data[(*pos)++]);
}
Result<uint32_t> GetU32(const std::string& data, size_t* pos) {
  if (*pos + 4 > data.size()) return Status::Corruption("truncated u32");
  uint32_t v;
  std::memcpy(&v, data.data() + *pos, 4);
  *pos += 4;
  return v;
}
Result<uint64_t> GetU64(const std::string& data, size_t* pos) {
  if (*pos + 8 > data.size()) return Status::Corruption("truncated u64");
  uint64_t v;
  std::memcpy(&v, data.data() + *pos, 8);
  *pos += 8;
  return v;
}
Result<std::string> GetStr(const std::string& data, size_t* pos) {
  TSE_ASSIGN_OR_RETURN(uint32_t len, GetU32(data, pos));
  if (*pos + len > data.size()) return Status::Corruption("truncated string");
  std::string s = data.substr(*pos, len);
  *pos += len;
  return s;
}

}  // namespace

std::string CatalogIO::EncodeProperty(const schema::PropertyDef& def) {
  std::string out;
  PutStr(&out, def.name);
  PutU8(&out, static_cast<uint8_t>(def.kind));
  PutU8(&out, static_cast<uint8_t>(def.value_type));
  PutU64(&out, def.ref_target.value());
  PutU64(&out, def.definer.value());
  PutU8(&out, def.body ? 1 : 0);
  if (def.body) def.body->EncodeTo(&out);
  return out;
}

std::string CatalogIO::EncodeClass(const schema::SchemaGraph& schema,
                                   const schema::ClassNode& node) {
  std::string out;
  PutStr(&out, node.name);
  PutU8(&out, static_cast<uint8_t>(node.derivation.op));
  PutU32(&out, static_cast<uint32_t>(node.derivation.sources.size()));
  for (ClassId src : node.derivation.sources) PutU64(&out, src.value());
  PutU8(&out, node.derivation.predicate ? 1 : 0);
  if (node.derivation.predicate) node.derivation.predicate->EncodeTo(&out);
  PutU32(&out, static_cast<uint32_t>(node.derivation.hidden.size()));
  for (const std::string& h : node.derivation.hidden) PutStr(&out, h);
  PutU32(&out, static_cast<uint32_t>(node.derivation.added.size()));
  for (PropertyDefId d : node.derivation.added) PutU64(&out, d.value());
  PutU32(&out, static_cast<uint32_t>(node.local_props.size()));
  for (PropertyDefId d : node.local_props) PutU64(&out, d.value());
  PutU32(&out, static_cast<uint32_t>(node.declared_supers.size()));
  for (ClassId c : node.declared_supers) PutU64(&out, c.value());
  PutU32(&out, static_cast<uint32_t>(node.supers.size()));
  for (ClassId c : node.supers) PutU64(&out, c.value());
  PutU64(&out, node.union_create_target.value());
  return out;
}

Status CatalogIO::Save(const schema::SchemaGraph& schema,
                       const ViewManager& views, storage::RecordStore* db,
                       const std::vector<index::IndexSpec>* indexes) {
  // Drop stale catalog records (classes/views removed since last save).
  std::vector<uint64_t> stale;
  TSE_RETURN_IF_ERROR(db->Scan([&](uint64_t key, const std::string&) {
    if (key >= kClassSpace) stale.push_back(key);
    return Status::OK();
  }));
  for (uint64_t key : stale) {
    TSE_RETURN_IF_ERROR(db->Delete(key));
  }

  std::string header;
  PutU64(&header, schema.class_alloc_next());
  PutU64(&header, schema.prop_alloc_next());
  PutU64(&header, views.view_alloc_next());
  TSE_RETURN_IF_ERROR(db->Put(kHeaderKey, header));

  for (const schema::PropertyDef* def : schema.AllProperties()) {
    TSE_RETURN_IF_ERROR(
        db->Put(kPropSpace | def->id.value(), EncodeProperty(*def)));
  }
  for (ClassId cls : schema.AllClasses()) {
    if (cls == schema.root()) continue;  // the root is implicit
    TSE_ASSIGN_OR_RETURN(const schema::ClassNode* node, schema.GetClass(cls));
    TSE_RETURN_IF_ERROR(
        db->Put(kClassSpace | cls.value(), EncodeClass(schema, *node)));
  }
  for (ViewId vid : views.AllViews()) {
    TSE_ASSIGN_OR_RETURN(const ViewSchema* vs, views.GetView(vid));
    std::string out;
    PutStr(&out, vs->logical_name());
    PutU32(&out, static_cast<uint32_t>(vs->version()));
    PutU32(&out, static_cast<uint32_t>(vs->size()));
    for (ClassId cls : vs->classes()) {
      PutU64(&out, cls.value());
      TSE_ASSIGN_OR_RETURN(std::string display, vs->DisplayName(cls));
      PutStr(&out, display);
    }
    std::string edges;
    uint32_t edge_count = 0;
    for (ClassId cls : vs->classes()) {
      for (ClassId sup : vs->DirectSupers(cls)) {
        PutU64(&edges, cls.value());
        PutU64(&edges, sup.value());
        ++edge_count;
      }
    }
    PutU32(&out, edge_count);
    out += edges;
    TSE_RETURN_IF_ERROR(db->Put(kViewSpace | vid.value(), out));
  }
  if (indexes != nullptr) {
    for (const index::IndexSpec& spec : *indexes) {
      std::string out;
      PutU8(&out, static_cast<uint8_t>(spec.kind));
      TSE_RETURN_IF_ERROR(db->Put(kIndexSpace | spec.def.value(), out));
    }
  }
  return db->Commit();
}

Status CatalogIO::Load(storage::RecordStore* db, schema::SchemaGraph* schema,
                       ViewManager* views,
                       std::vector<index::IndexSpec>* indexes) {
  if (schema->class_count() != 1) {
    return Status::FailedPrecondition(
        "target schema graph must contain only the root class");
  }
  // Collect records by namespace; restore in id order within each.
  std::map<uint64_t, std::string> props, classes, view_records, index_records;
  std::string header;
  TSE_RETURN_IF_ERROR(db->Scan([&](uint64_t key, const std::string& payload) {
    uint64_t id = key & ~(uint64_t{0xff} << 56);
    switch (key >> 56) {
      case 0:
        if (key == kHeaderKey) header = payload;
        break;
      case 1:
        classes[id] = payload;
        break;
      case 2:
        props[id] = payload;
        break;
      case 3:
        view_records[id] = payload;
        break;
      case 4:
        index_records[id] = payload;
        break;
      default:
        // Other namespaces (0x05: the packed-layout pins of older
        // catalogs) carry nothing this engine restores.
        break;
    }
    return Status::OK();
  }));
  if (header.empty()) {
    return Status::NotFound("no catalog header record");
  }

  for (const auto& [raw_id, payload] : props) {
    size_t pos = 0;
    schema::PropertyDef def;
    def.id = PropertyDefId(raw_id);
    TSE_ASSIGN_OR_RETURN(def.name, GetStr(payload, &pos));
    TSE_ASSIGN_OR_RETURN(uint8_t kind, GetU8(payload, &pos));
    def.kind = static_cast<schema::PropertyKind>(kind);
    TSE_ASSIGN_OR_RETURN(uint8_t vtype, GetU8(payload, &pos));
    def.value_type = static_cast<objmodel::ValueType>(vtype);
    TSE_ASSIGN_OR_RETURN(uint64_t ref, GetU64(payload, &pos));
    def.ref_target = ClassId(ref);
    TSE_ASSIGN_OR_RETURN(uint64_t definer, GetU64(payload, &pos));
    def.definer = ClassId(definer);
    TSE_ASSIGN_OR_RETURN(uint8_t has_body, GetU8(payload, &pos));
    if (has_body) {
      TSE_ASSIGN_OR_RETURN(def.body,
                           objmodel::MethodExpr::DecodeFrom(payload, &pos));
    }
    TSE_RETURN_IF_ERROR(schema->RestoreProperty(std::move(def)));
  }

  for (const auto& [raw_id, payload] : classes) {
    size_t pos = 0;
    schema::ClassNode node;
    node.id = ClassId(raw_id);
    TSE_ASSIGN_OR_RETURN(node.name, GetStr(payload, &pos));
    TSE_ASSIGN_OR_RETURN(uint8_t op, GetU8(payload, &pos));
    node.derivation.op = static_cast<schema::DerivationOp>(op);
    TSE_ASSIGN_OR_RETURN(uint32_t n_sources, GetU32(payload, &pos));
    for (uint32_t i = 0; i < n_sources; ++i) {
      TSE_ASSIGN_OR_RETURN(uint64_t src, GetU64(payload, &pos));
      node.derivation.sources.push_back(ClassId(src));
    }
    TSE_ASSIGN_OR_RETURN(uint8_t has_pred, GetU8(payload, &pos));
    if (has_pred) {
      TSE_ASSIGN_OR_RETURN(node.derivation.predicate,
                           objmodel::MethodExpr::DecodeFrom(payload, &pos));
    }
    TSE_ASSIGN_OR_RETURN(uint32_t n_hidden, GetU32(payload, &pos));
    for (uint32_t i = 0; i < n_hidden; ++i) {
      TSE_ASSIGN_OR_RETURN(std::string h, GetStr(payload, &pos));
      node.derivation.hidden.push_back(std::move(h));
    }
    TSE_ASSIGN_OR_RETURN(uint32_t n_added, GetU32(payload, &pos));
    for (uint32_t i = 0; i < n_added; ++i) {
      TSE_ASSIGN_OR_RETURN(uint64_t d, GetU64(payload, &pos));
      node.derivation.added.push_back(PropertyDefId(d));
    }
    TSE_ASSIGN_OR_RETURN(uint32_t n_local, GetU32(payload, &pos));
    for (uint32_t i = 0; i < n_local; ++i) {
      TSE_ASSIGN_OR_RETURN(uint64_t d, GetU64(payload, &pos));
      node.local_props.push_back(PropertyDefId(d));
    }
    TSE_ASSIGN_OR_RETURN(uint32_t n_declared, GetU32(payload, &pos));
    for (uint32_t i = 0; i < n_declared; ++i) {
      TSE_ASSIGN_OR_RETURN(uint64_t c, GetU64(payload, &pos));
      node.declared_supers.push_back(ClassId(c));
    }
    TSE_ASSIGN_OR_RETURN(uint32_t n_supers, GetU32(payload, &pos));
    for (uint32_t i = 0; i < n_supers; ++i) {
      TSE_ASSIGN_OR_RETURN(uint64_t c, GetU64(payload, &pos));
      node.supers.insert(ClassId(c));
    }
    TSE_ASSIGN_OR_RETURN(uint64_t target, GetU64(payload, &pos));
    node.union_create_target = ClassId(target);
    TSE_RETURN_IF_ERROR(schema->RestoreClass(std::move(node)));
  }

  for (const auto& [raw_id, payload] : view_records) {
    size_t pos = 0;
    TSE_ASSIGN_OR_RETURN(std::string logical, GetStr(payload, &pos));
    TSE_ASSIGN_OR_RETURN(uint32_t version, GetU32(payload, &pos));
    TSE_ASSIGN_OR_RETURN(uint32_t n_classes, GetU32(payload, &pos));
    std::vector<std::pair<ClassId, std::string>> specs;
    for (uint32_t i = 0; i < n_classes; ++i) {
      TSE_ASSIGN_OR_RETURN(uint64_t cls, GetU64(payload, &pos));
      TSE_ASSIGN_OR_RETURN(std::string display, GetStr(payload, &pos));
      specs.emplace_back(ClassId(cls), std::move(display));
    }
    TSE_ASSIGN_OR_RETURN(uint32_t n_edges, GetU32(payload, &pos));
    std::vector<std::pair<ClassId, ClassId>> edges;
    for (uint32_t i = 0; i < n_edges; ++i) {
      TSE_ASSIGN_OR_RETURN(uint64_t sub, GetU64(payload, &pos));
      TSE_ASSIGN_OR_RETURN(uint64_t sup, GetU64(payload, &pos));
      edges.emplace_back(ClassId(sub), ClassId(sup));
    }
    TSE_RETURN_IF_ERROR(views->RestoreVersion(
        ViewId(raw_id), logical, static_cast<int>(version), specs, edges));
  }

  if (indexes != nullptr) {
    for (const auto& [raw_id, payload] : index_records) {
      size_t pos = 0;
      TSE_ASSIGN_OR_RETURN(uint8_t kind, GetU8(payload, &pos));
      indexes->push_back(index::IndexSpec{
          PropertyDefId(raw_id), static_cast<index::IndexKind>(kind)});
    }
  }

  size_t pos = 0;
  TSE_ASSIGN_OR_RETURN(uint64_t class_next, GetU64(header, &pos));
  TSE_ASSIGN_OR_RETURN(uint64_t prop_next, GetU64(header, &pos));
  TSE_ASSIGN_OR_RETURN(uint64_t view_next, GetU64(header, &pos));
  (void)view_next;  // ViewManager bumped past each restored id already.
  schema->RestoreAllocators(class_next, prop_next);
  return Status::OK();
}

}  // namespace tse::view
