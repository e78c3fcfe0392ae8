#ifndef TSE_SCHEMA_SCHEMA_GRAPH_H_
#define TSE_SCHEMA_SCHEMA_GRAPH_H_

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "common/status.h"
#include "schema/class_node.h"
#include "schema/property.h"
#include "schema/type_set.h"

namespace tse::schema {

/// The single integrated *global schema* of the TSE architecture
/// (Figure 6): every base class and every virtual class lives here, with
/// the classified generalization DAG on top. View schemas (tse::view)
/// are subsets of these classes; schema evolution (tse::evolution) only
/// ever *adds* classes to this graph.
///
/// The graph also implements the intensional subsumption rules the
/// Classifier relies on: extent containment provable from derivations
/// and declared base edges (not from the current database state), and
/// type containment from effective types.
///
/// ## Thread safety
///
/// The graph is internally synchronized so that any number of reader
/// threads may run concurrently with one mutating (DDL) thread — the
/// foundation of the online schema-change path (DESIGN.md §10):
///
///   - `graph_mu_` guards the structural state (classes, properties,
///     name index, derived index, per-class versions). Public readers
///     take it shared; mutators take it exclusive. Internal helpers use
///     *Unlocked variants so a public method never re-enters the lock.
///   - `memo_mu_` guards the two lazily-filled memo caches; it nests
///     strictly *inside* graph_mu_.
///   - `generation_` / `invalidate_floor_` / `removals_` are atomics
///     readable without any lock (extent caches poll them on their hot
///     path).
///
/// Returned `const ClassNode*` / `const PropertyDef*` pointers are
/// stable: nodes live in node-based maps and only *unpublished*
/// duplicate virtual classes (never reachable from a registered view)
/// are ever removed. The immutable parts of a node (derivation op,
/// sources, predicate, name) are safe to read through such a pointer;
/// fields mutated after publication (classified supers/subs, the union
/// create-target) must be read through the locked accessors.
class SchemaGraph {
 public:
  /// Constructs a graph containing only the system root class "OBJECT"
  /// (the paper's ROOT): the class every otherwise-parentless base class
  /// is attached to, and the reconnect target of delete_edge/add_class
  /// when no connected_to clause is given.
  SchemaGraph();
  SchemaGraph(const SchemaGraph&) = delete;
  SchemaGraph& operator=(const SchemaGraph&) = delete;

  /// The system root class.
  ClassId root() const { return root_; }

  /// Monotone counter bumped by every structural change (class added or
  /// removed). Extent caches rebuild their derivation dependency graph
  /// when it moves; per-entry validity is keyed on class_version().
  /// Lock-free (atomic).
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Per-class structural version: the generation at which `cls` was
  /// last (re)defined or had its extent-defining surroundings change (a
  /// new base class attached beneath it). Unrelated schema growth leaves
  /// it untouched, so extent caches keep entries for unaffected classes
  /// across schema generations. Returns 0 for unknown and removed
  /// classes; every class added after construction reads nonzero, and
  /// ids are never reused, so a cached version that still matches
  /// proves its class still exists.
  uint64_t class_version(ClassId cls) const;

  /// Generation of the last schema change that can shift property-name
  /// resolution on *existing* classes (property rename, local property
  /// addition). Extent cache entries older than this floor are dropped
  /// wholesale — such changes can silently retarget select predicates.
  /// Lock-free (atomic).
  uint64_t invalidate_floor() const {
    return invalidate_floor_.load(std::memory_order_acquire);
  }

  /// Number of classes removed so far (RemoveClass). Everything else
  /// only adds classes, so a consumer that saw the same count knows the
  /// classes it indexed all still exist. Lock-free (atomic).
  uint64_t removal_count() const {
    return removals_.load(std::memory_order_acquire);
  }

  // --- Construction -----------------------------------------------------

  /// Defines a base class with declared is-a superclasses (which must be
  /// base classes) and locally introduced properties.
  Result<ClassId> AddBaseClass(const std::string& name,
                               const std::vector<ClassId>& supers,
                               const std::vector<PropertySpec>& props);

  /// Defines a virtual class from `derivation` without classifying it
  /// (the Classifier wires is-a edges afterwards).
  Result<ClassId> AddVirtualClass(const std::string& name,
                                  Derivation derivation);

  /// Registers a fresh property definition whose storage lives at
  /// `definer` (used by refine with new stored attributes / methods).
  Result<PropertyDefId> DefineProperty(const PropertySpec& spec,
                                       ClassId definer);

  /// Convenience for the capacity-augmenting refine operator: creates a
  /// refine virtual class over `source`, registering `new_props` with
  /// the new class as definer (fresh storage) and attaching `imported`
  /// definitions whose storage stays at their original definer (the
  /// `refine C1:x for C2` inheritance form of Section 3.2).
  Result<ClassId> AddRefineClass(const std::string& name, ClassId source,
                                 const std::vector<PropertySpec>& new_props,
                                 const std::vector<PropertyDefId>& imported);

  /// Adds a locally introduced property to an existing *base* class.
  Status AddLocalProperty(ClassId cls, PropertyDefId def);

  /// Removes a virtual class that nothing references: no classified
  /// is-a edges and no derived classes. Used by the Classifier to drop
  /// freshly-created duplicates in favour of the existing class.
  Status RemoveClass(ClassId cls);

  /// Designates which source of a union class receives create/add
  /// propagation (Section 6.5.4). `target` must be one of its sources.
  Status SetUnionCreateTarget(ClassId union_cls, ClassId target);

  // --- Lookup -----------------------------------------------------------

  Result<ClassId> FindClass(const std::string& name) const;
  Result<const ClassNode*> GetClass(ClassId id) const;
  Result<const PropertyDef*> GetProperty(PropertyDefId id) const;
  bool HasClass(ClassId id) const;
  size_t class_count() const;

  /// The create/add propagation source of a union class: its designated
  /// create target when one was set, else its first source. Locked
  /// accessor — the field itself may be retargeted by concurrent DDL,
  /// so hot update paths must not read it through a raw node pointer.
  Result<ClassId> UnionPropagationSource(ClassId union_cls) const;

  /// Renames a property definition (user disambiguation of a
  /// multiple-inheritance conflict).
  Status RenameProperty(PropertyDefId id, const std::string& new_name);

  /// All classes, in id order.
  std::vector<ClassId> AllClasses() const;

  /// The classes whose id is `first` or above, in id order.
  std::vector<ClassId> ClassesFrom(ClassId first) const;

  /// Virtual classes directly derived from `cls` (the inverse of the
  /// derivation's source relationship; Section 3.4).
  std::vector<ClassId> DerivedFrom(ClassId cls) const;

  /// The origin base classes of `cls`: the base classes reached by
  /// tracing source relationships (Section 3.4). For a base class this
  /// is {cls}.
  Result<std::vector<ClassId>> OriginClasses(ClassId cls) const;

  // --- Effective types ---------------------------------------------------

  /// The effective type (visible property set) of `cls`, computed from
  /// its derivation / declared base inheritance (Section 3.2 semantics).
  Result<TypeSet> EffectiveType(ClassId cls) const;

  /// Resolves a property name at `cls` to its unique definition.
  Result<const PropertyDef*> ResolveProperty(ClassId cls,
                                             const std::string& name) const;

  // --- Subsumption -------------------------------------------------------

  /// True when extent(a) ⊆ extent(b) is provable for every database
  /// state (intensional; derivations + declared base edges).
  bool ExtentSubsumedBy(ClassId a, ClassId b) const;

  /// True when the extents are provably equal.
  bool ExtentEquivalent(ClassId a, ClassId b) const;

  /// Is-a subsumption: type(a) covers type(b)'s names and extent(a) ⊆
  /// extent(b). This is the ordering the Classifier materializes.
  bool IsaSubsumedBy(ClassId a, ClassId b) const;

  /// Structural duplicate check (Section 7): equal extents and equal
  /// (name → def) bindings.
  bool IsDuplicateOf(ClassId a, ClassId b) const;

  // --- Classified DAG ----------------------------------------------------

  Status AddIsaEdge(ClassId sub, ClassId sup);
  Status RemoveIsaEdge(ClassId sub, ClassId sup);

  /// Direct classified superclasses / subclasses.
  Result<std::vector<ClassId>> DirectSupers(ClassId cls) const;
  Result<std::vector<ClassId>> DirectSubs(ClassId cls) const;

  /// Transitive closure over the classified DAG, including `cls`.
  Result<std::set<ClassId>> TransitiveSupers(ClassId cls) const;
  Result<std::set<ClassId>> TransitiveSubs(ClassId cls) const;

  /// Debug rendering of the classified DAG.
  std::string ToDot() const;

  // --- Catalog restore (used by schema::CatalogIO only) -------------------

  /// Reinstates a persisted property definition verbatim.
  Status RestoreProperty(PropertyDef def);

  /// Reinstates a persisted class verbatim (id, derivation, edges; the
  /// inverse `subs` sets and derived index are rebuilt incrementally).
  /// The graph must not already contain the id, and the derivation must
  /// pass the same shape checks as AddVirtualClass. Classes must be
  /// restored in id order so sources/supers resolve.
  Status RestoreClass(ClassNode node);

  /// Fast-forwards the id allocators after a restore.
  void RestoreAllocators(uint64_t class_next, uint64_t prop_next);

  uint64_t class_alloc_next() const { return class_alloc_.next_raw(); }
  uint64_t prop_alloc_next() const { return prop_alloc_.next_raw(); }

  /// All property definitions, in id order (for catalog serialization).
  std::vector<const PropertyDef*> AllProperties() const;

 private:
  // Unlocked structural accessors: require graph_mu_ held (shared for
  // reads, exclusive for GetMutable).
  Result<const ClassNode*> GetClassUnlocked(ClassId id) const;
  Result<const PropertyDef*> GetPropertyUnlocked(PropertyDefId id) const;
  Result<ClassNode*> GetMutable(ClassId id);
  std::vector<ClassId> DerivedFromUnlocked(ClassId cls) const;
  /// Rejects a derivation the evaluators cannot run: an op outside
  /// DerivationOp, a source count that does not fit the op (none for
  /// base, two for union/intersect/difference, one otherwise), a source
  /// that does not exist yet, or a select without a predicate. Because
  /// every source must exist first and sources never change afterwards,
  /// the derivation graph stays acyclic.
  Status ValidateDerivation(const Derivation& derivation) const;

  // Unlocked mutators backing the public ones (AddRefineClass composes
  // them under one exclusive section). Require graph_mu_ exclusive.
  Result<ClassId> AddVirtualClassUnlocked(const std::string& name,
                                          Derivation derivation);
  Result<PropertyDefId> DefinePropertyUnlocked(const PropertySpec& spec,
                                               ClassId definer);
  Status RemoveClassUnlocked(ClassId cls);

  // Locked-query internals: require graph_mu_ held (shared or
  // exclusive); acquire memo_mu_ themselves.
  Result<TypeSet> EffectiveTypeLocked(ClassId cls) const;
  /// The memoized effective type of `cls` by reference, filling the memo
  /// on a miss. The pointer stays valid while graph_mu_ is held (shared
  /// suffices): type_cache_ is a node-based map whose entries are never
  /// overwritten, and are erased only under graph_mu_ exclusive
  /// (AddRefineClass, AddLocalProperty, RenameProperty, RemoveClass).
  Result<const TypeSet*> TypeRefLocked(ClassId cls) const;
  /// True when both classes exist. Requires graph_mu_ held.
  bool BothPresentLocked(ClassId a, ClassId b) const;
  bool ExtentSubsumedByLocked(ClassId a, ClassId b) const;
  bool ExtentEquivalentLocked(ClassId a, ClassId b) const {
    return ExtentSubsumedByLocked(a, b) && ExtentSubsumedByLocked(b, a);
  }
  bool IsaSubsumedByLocked(ClassId a, ClassId b) const;
  /// IsDuplicateOf's structural rule for refine classes whose types
  /// differ only in freshly allocated, structurally identical
  /// definitions. Requires graph_mu_ held.
  bool RefineTwinsLocked(ClassId a, ClassId b) const;

  /// One-step provable "extent ⊆" targets of `cls` (select → source,
  /// base → declared supers, plus extent-preserving derived classes).
  /// Requires graph_mu_ held.
  std::vector<ClassId> DirectExtentUps(ClassId cls) const;

  /// `tainted` is set when the computation was pruned by the cycle
  /// guard; tainted *negative* results are path-dependent and must not
  /// be cached (positive results are always sound to cache). Requires
  /// graph_mu_ held and memo_mu_ held exclusive (reads and fills
  /// extent_cache_ freely).
  bool ExtentSubsumedByImpl(ClassId a, ClassId b,
                            std::set<ClassId>* in_progress,
                            bool* tainted) const;

  /// Requires graph_mu_ held and memo_mu_ held exclusive (reads and
  /// fills type_cache_).
  Status ComputeType(ClassId cls, TypeSet* out,
                     std::set<ClassId>* in_progress) const;

  /// Stamps `cls` (and, for base classes, its transitive declared
  /// supers, whose computed-extent source sets change) with the current
  /// generation. Call after bumping generation_; requires graph_mu_
  /// exclusive.
  void BumpClassVersion(ClassId cls);

  /// Moves the invalidate floor to a new generation (changes that can
  /// shift name resolution on existing classes). Requires graph_mu_
  /// exclusive.
  void BumpFloorAndGeneration();

  IdAllocator<ClassId> class_alloc_;
  IdAllocator<PropertyDefId> prop_alloc_;
  ClassId root_;
  std::atomic<uint64_t> generation_{0};
  std::atomic<uint64_t> invalidate_floor_{0};
  std::atomic<uint64_t> removals_{0};
  /// Guards every structural member below (classes_, props_, by_name_,
  /// derived_index_, classes_by_op_, class_versions_). Readers shared,
  /// mutators exclusive; acquired *before* memo_mu_ everywhere.
  mutable std::shared_mutex graph_mu_;
  /// ClassId.value() -> class_version().
  std::unordered_map<uint64_t, uint64_t> class_versions_;
  /// Guards the two memo caches below, which are filled lazily during
  /// logically-const queries and may therefore race when many sessions
  /// read one schema concurrently. Hits take the lock shared; memo
  /// fills and invalidations take it exclusive. Nested strictly inside
  /// graph_mu_.
  mutable std::shared_mutex memo_mu_;
  /// Hash of an ExtentSubsumedBy memo key: both full class ids.
  struct ClassPairHash {
    size_t operator()(const std::pair<uint64_t, uint64_t>& key) const {
      return std::hash<uint64_t>{}(key.first * 0x9E3779B97F4A7C15ULL ^
                                   key.second);
    }
  };
  /// ExtentSubsumedBy memo, keyed by (a, b). Class additions keep it
  /// (they cannot flip an existing answer); removals leave their entries
  /// behind unreachable (see RemoveClassUnlocked).
  mutable std::unordered_map<std::pair<uint64_t, uint64_t>, bool,
                             ClassPairHash>
      extent_cache_;
  /// EffectiveType memo; invalidated on structural changes, local
  /// property additions, refine-class finalization, and renames (all
  /// under graph_mu_ exclusive, which keeps TypeRefLocked's pointers
  /// valid for any holder of graph_mu_).
  mutable std::map<uint64_t, TypeSet> type_cache_;
  std::map<uint64_t, ClassNode> classes_;
  std::map<uint64_t, PropertyDef> props_;
  std::unordered_map<std::string, ClassId> by_name_;
  /// cls -> virtual classes listing it as a derivation source.
  std::unordered_map<uint64_t, std::vector<ClassId>> derived_index_;
  /// Derivation op -> the virtual classes derived by it, in id order:
  /// the structural subsumption rules only compare like-derived classes.
  std::map<DerivationOp, std::set<uint64_t>> classes_by_op_;
};

}  // namespace tse::schema

#endif  // TSE_SCHEMA_SCHEMA_GRAPH_H_
