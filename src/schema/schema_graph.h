#ifndef TSE_SCHEMA_SCHEMA_GRAPH_H_
#define TSE_SCHEMA_SCHEMA_GRAPH_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
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
/// ## Tables
///
/// Classes and property definitions live in dense tables indexed by id
/// (ids are never reused, so a removed class leaves a hole). Each class
/// row also carries what the subsumption kernel reads on every proof
/// step: its one-step extent-up adjacency (kept up to date when a class
/// is added, removed or restored), the virtual classes derived from it,
/// its version stamp and its memoized effective type. The extent memo
/// is a flat open-addressing table keyed by the class pair, and the
/// proof's cycle guard is a flag per class id.
///
/// ## Thread safety
///
/// The graph is internally synchronized so that any number of reader
/// threads may run concurrently with one mutating (DDL) thread — the
/// foundation of the online schema-change path (DESIGN.md §10):
///
///   - `graph_mu_` guards the structural state (the class and property
///     tables, name index, per-op rows). Public readers take it shared;
///     mutators take it exclusive. Internal helpers use *Unlocked /
///     *Locked variants so a public method never re-enters the lock.
///     A batch of queries takes it once through a `ReadHold`.
///   - `memo_mu_` guards the extent memo and the cycle guard, and the
///     fills of the type memo; it nests strictly *inside* graph_mu_.
///     A filled type memo entry is published through an atomic pointer
///     in its class row and read without memo_mu_: entries are never
///     overwritten and are dropped only under graph_mu_ exclusive.
///   - `generation_` / `invalidate_floor_` / `removals_` are atomics
///     readable without any lock (extent caches poll them on their hot
///     path).
///
/// Returned `const ClassNode*` / `const PropertyDef*` pointers are
/// stable: rows are heap-allocated and only *unpublished* duplicate
/// virtual classes (never reachable from a registered view) are ever
/// removed. The immutable parts of a node (derivation op, sources,
/// predicate, name) are safe to read through such a pointer; fields
/// mutated after publication (classified supers/subs, the union
/// create-target) must be read through the locked accessors or under a
/// ReadHold.
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

  // --- Batched reads ------------------------------------------------------

  /// A shared hold of the graph latch for a batch of queries: a placement
  /// search or a view generation takes it once and then reads class rows,
  /// types and subsumption answers with no further graph latching. The
  /// answers are exactly those of the public one-call queries. While a
  /// hold is alive its thread must not call the graph's public methods
  /// (they would take the latch again) and nothing may mutate the graph.
  class ReadHold {
   public:
    explicit ReadHold(const SchemaGraph& graph)
        : graph_(graph), lock_(graph.graph_mu_) {}
    ReadHold(const ReadHold&) = delete;
    ReadHold& operator=(const ReadHold&) = delete;

    /// The class's node, or nullptr when `cls` is not in the graph. Its
    /// supers/subs are stable while the hold is alive.
    const ClassNode* Find(ClassId cls) const;
    /// One past the largest class id the table has room for: sizes
    /// id-indexed scratch arrays.
    size_t id_bound() const { return graph_.table_.size(); }
    ClassId root() const { return graph_.root_; }

    /// The memoized effective type, by reference.
    Result<const TypeSet*> Type(ClassId cls) const {
      return graph_.TypeRefLocked(cls);
    }
    Result<const PropertyDef*> Property(PropertyDefId id) const {
      return graph_.GetPropertyUnlocked(id);
    }

    bool IsaSubsumedBy(ClassId a, ClassId b) const {
      return graph_.IsaSubsumedByLocked(a, b);
    }
    bool ExtentEquivalent(ClassId a, ClassId b) const;
    bool IsDuplicateOf(ClassId a, ClassId b) const {
      return graph_.IsDuplicateOfLocked(a, b);
    }

    /// `from` and every class reachable from it over direct classified
    /// subs (`down`) or supers, in id order.
    std::vector<ClassId> Reach(ClassId from, bool down) const;

   private:
    const SchemaGraph& graph_;
    std::shared_lock<std::shared_mutex> lock_;
    /// Reach's visit marks by class id; each walk bumps the stamp.
    mutable std::vector<uint32_t> stamps_;
    mutable uint32_t stamp_ = 0;
  };

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
  /// Class ids (and property ids) at or above this are refused, so the
  /// dense tables stay bounded and a class pair packs into one memo key.
  static constexpr uint64_t kMaxIds = uint64_t{1} << 24;

  /// One class's row in the dense class table.
  struct ClassSlot {
    ClassNode node;
    /// class_version(); 0 until first stamped.
    uint64_t version = 0;
    /// The one-step provable "extent ⊆" targets, in proof order: the
    /// class's own (base → declared supers; select/hide/refine/
    /// difference → first source; intersect → both sources), then the
    /// hide, refine and union classes derived from it, in creation
    /// order (a union over the class twice is listed twice).
    std::vector<ClassId> extent_ups;
    /// Virtual classes listing this class as a derivation source, in
    /// creation order (one entry per listing).
    std::vector<ClassId> derived;
    /// The type memo. `type` is published with release after `type_owner`
    /// is filled under memo_mu_ exclusive, and read with acquire without
    /// memo_mu_; both are cleared only under graph_mu_ exclusive.
    std::unique_ptr<const TypeSet> type_owner;
    std::atomic<const TypeSet*> type{nullptr};
  };

  /// A like-derived class the structural subsumption rules compare with:
  /// its id and sources, copied out of its node.
  struct StructuralRow {
    ClassId id;
    ClassId src0;
    ClassId src1;
  };

  /// ExtentSubsumedBy memo: an open-addressing table (linear probing)
  /// from a class pair to its answer. Entries are never erased. Guarded
  /// by memo_mu_.
  class PairMemo {
   public:
    /// 1 or 0 for a memoized answer, -1 when the pair is absent.
    int Find(ClassId a, ClassId b) const;
    /// Records an answer unless the pair already has one.
    void Insert(ClassId a, ClassId b, bool value);

   private:
    /// Only ids below kMaxIds pack into a key. A pair outside that range
    /// names no class (a query of one against itself) and is not
    /// memoized.
    static bool Fits(ClassId a, ClassId b) {
      return a.value() < kMaxIds && b.value() < kMaxIds;
    }
    /// Both ids side by side, shifted left to leave bit 0 for the answer.
    static uint64_t Key(ClassId a, ClassId b) {
      return (a.value() << 24 | b.value()) << 1;
    }
    size_t Home(uint64_t key) const {
      return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
    }
    void Grow();

    static constexpr uint64_t kEmpty = ~uint64_t{0};
    /// (Key | answer) per slot, kEmpty when free.
    std::vector<uint64_t> slots_;
    size_t size_ = 0;
    int shift_ = 64;
  };

  // Unlocked structural accessors: require graph_mu_ held (shared for
  // reads, exclusive for GetMutable).
  ClassSlot* SlotUnlocked(ClassId id) const {
    return id.value() < table_.size() ? table_[id.value()].get() : nullptr;
  }
  Result<const ClassNode*> GetClassUnlocked(ClassId id) const;
  Result<const PropertyDef*> GetPropertyUnlocked(PropertyDefId id) const;
  Result<ClassNode*> GetMutable(ClassId id);
  /// Rejects a derivation the evaluators cannot run: an op outside
  /// DerivationOp, a source count that does not fit the op (none for
  /// base, two for union/intersect/difference, one otherwise), a source
  /// that does not exist yet, or a select without a predicate. Because
  /// every source must exist first and sources never change afterwards,
  /// the derivation graph stays acyclic.
  Status ValidateDerivation(const Derivation& derivation) const;

  /// Puts `node` into the class table with its name, derived-from
  /// listings, extent-up adjacency (its own and its sources') and
  /// structural row. The caller has validated it and wires is-a edges.
  /// Requires graph_mu_ exclusive.
  Status InstallClassUnlocked(ClassNode node);
  /// Installs a property definition. Requires graph_mu_ exclusive.
  Status InstallPropertyUnlocked(PropertyDef def);

  // Unlocked mutators backing the public ones (AddRefineClass composes
  // them under one exclusive section). Require graph_mu_ exclusive.
  Result<ClassId> AddVirtualClassUnlocked(const std::string& name,
                                          Derivation derivation);
  Result<PropertyDefId> DefinePropertyUnlocked(const PropertySpec& spec,
                                               ClassId definer);
  Status RemoveClassUnlocked(ClassId cls);
  /// Drops the type memo of one class (nullptr: of every class).
  /// Requires graph_mu_ exclusive.
  void DropTypesUnlocked(ClassSlot* only);

  // Locked-query internals: require graph_mu_ held (shared or
  // exclusive); acquire memo_mu_ themselves.
  Result<TypeSet> EffectiveTypeLocked(ClassId cls) const;
  /// The memoized effective type of `cls` by reference, filling the memo
  /// on a miss. The pointer stays valid while graph_mu_ is held (shared
  /// suffices): entries are never overwritten, and are dropped only under
  /// graph_mu_ exclusive (AddRefineClass, AddLocalProperty,
  /// RenameProperty, RemoveClass). A hit takes no latch.
  Result<const TypeSet*> TypeRefLocked(ClassId cls) const;
  /// True when both classes exist. Requires graph_mu_ held.
  bool BothPresentLocked(ClassId a, ClassId b) const;
  bool ExtentSubsumedByLocked(ClassId a, ClassId b) const;
  bool ExtentEquivalentLocked(ClassId a, ClassId b) const {
    return ExtentSubsumedByLocked(a, b) && ExtentSubsumedByLocked(b, a);
  }
  bool IsaSubsumedByLocked(ClassId a, ClassId b) const;
  bool IsDuplicateOfLocked(ClassId a, ClassId b) const;
  /// IsDuplicateOf's structural rule for refine classes whose types
  /// differ only in freshly allocated, structurally identical
  /// definitions. Requires graph_mu_ held.
  bool RefineTwinsLocked(ClassId a, ClassId b) const;

  /// `tainted` is set when the computation was pruned by the cycle
  /// guard; tainted *negative* results are path-dependent and must not
  /// be cached (positive results are always sound to cache). Requires
  /// graph_mu_ held and memo_mu_ held exclusive (reads and fills
  /// extent_memo_ and in_progress_ freely).
  bool ExtentSubsumedByImpl(ClassId a, ClassId b, bool* tainted) const;

  /// Requires graph_mu_ held and memo_mu_ held exclusive (fills the
  /// type memo).
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
  /// Guards every structural member below (the class and property
  /// tables, by_name_, the structural rows). Readers shared, mutators
  /// exclusive; acquired *before* memo_mu_ everywhere.
  mutable std::shared_mutex graph_mu_;
  /// Guards extent_memo_, in_progress_ and type memo fills. Hits on the
  /// extent memo take it shared; proofs and fills take it exclusive.
  /// Nested strictly inside graph_mu_.
  mutable std::shared_mutex memo_mu_;
  /// Class additions keep the memo (they cannot flip an existing
  /// answer); removals leave their entries behind unreachable (see
  /// RemoveClassUnlocked).
  mutable PairMemo extent_memo_;
  /// The proof's cycle guard: 1 while a class is on the proof stack.
  /// Sized with table_ (under graph_mu_ exclusive).
  mutable std::vector<uint8_t> in_progress_;
  /// ClassId.value() -> row; nullptr for removed and unallocated ids.
  std::vector<std::unique_ptr<ClassSlot>> table_;
  size_t class_count_ = 0;
  /// PropertyDefId.value() -> definition; nullptr for removed ones.
  std::vector<std::unique_ptr<PropertyDef>> props_;
  std::unordered_map<std::string, ClassId> by_name_;
  /// The structural subsumption rules only compare like-derived classes;
  /// these rows list them in id order. Selects are grouped by predicate
  /// identity: the select rule needs the very same predicate, so only
  /// the group is scanned.
  std::unordered_map<const objmodel::MethodExpr*, std::vector<StructuralRow>>
      selects_by_predicate_;
  std::vector<StructuralRow> differences_;
  std::vector<StructuralRow> intersects_;
};

}  // namespace tse::schema

#endif  // TSE_SCHEMA_SCHEMA_GRAPH_H_
