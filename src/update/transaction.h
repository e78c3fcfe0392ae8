#ifndef TSE_UPDATE_TRANSACTION_H_
#define TSE_UPDATE_TRANSACTION_H_

#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "storage/lock_manager.h"
#include "update/update_engine.h"

namespace tse::update {

class TransactionManager;

/// A strict-2PL transaction over the generic update operators: reads
/// take shared locks, mutations take exclusive locks and append undo
/// records, Commit releases everything, Abort rolls the object store
/// back and then releases. Lock conflicts surface as Aborted (timeout-
/// based deadlock resolution); the caller is expected to Abort() and
/// retry.
///
/// This supplies the concurrency-control half of the paper's GemStone
/// substrate (Figure 6) at the object-model level.
class Transaction {
 public:
  ~Transaction();

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  /// Reads property `name` of `oid` through `cls` under a shared lock.
  Result<objmodel::Value> Read(Oid oid, ClassId cls, const std::string& name);

  /// Creates an object through `cls` (exclusively locked to this txn).
  Result<Oid> Create(ClassId cls, const std::vector<Assignment>& assignments);

  /// Generic update operators, exclusive-locked with undo.
  Status Set(Oid oid, ClassId cls, const std::string& name,
             objmodel::Value value);
  Status Add(Oid oid, ClassId cls);
  Status Remove(Oid oid, ClassId cls);
  Status Delete(Oid oid);

  /// Take the strict-2PL object lock without touching the store (no-op
  /// when already held in a sufficient mode). Lets callers acquire the
  /// lock before entering their own latches, so a lock wait never holds
  /// one; the operators below re-acquire it at no cost.
  Status LockShared(Oid oid);
  Status LockExclusive(Oid oid);

  /// Makes the transaction's effects permanent and releases its locks.
  Status Commit();

  /// Rolls back every effect (reverse order) and releases locks.
  Status Abort();

  bool active() const { return active_; }
  TxnId id() const { return id_; }

 private:
  friend class TransactionManager;

  Transaction(TxnId id, UpdateEngine* engine,
              storage::LockManager* locks)
      : id_(id), engine_(engine), locks_(locks) {}

  /// Full pre-image of one object (for Delete / membership undo).
  struct ObjectSnapshot {
    Oid oid;
    std::vector<ClassId> memberships;
    /// (class, impl oid, values).
    std::vector<std::tuple<ClassId, Oid,
                           std::unordered_map<uint64_t, objmodel::Value>>>
        slices;
  };

  struct UndoCreate {
    Oid oid;
  };
  struct UndoSet {
    Oid oid;
    ClassId definer;
    PropertyDefId def;
    objmodel::Value old_value;
  };
  struct UndoMembership {
    /// Restore the full membership set to this pre-image.
    Oid oid;
    std::vector<ClassId> old_memberships;
  };
  struct UndoDelete {
    ObjectSnapshot snapshot;
  };
  using UndoRecord =
      std::variant<UndoCreate, UndoSet, UndoMembership, UndoDelete>;

  /// Named ObjectImageAt (not Snapshot) to keep the private pre-image
  /// helper from colliding with the public tse::Snapshot read handle.
  Result<ObjectSnapshot> ObjectImageAt(Oid oid) const;
  Status ApplyUndo(const UndoRecord& record);
  void Finish();

  TxnId id_;
  UpdateEngine* engine_;
  storage::LockManager* locks_;
  std::vector<UndoRecord> undo_log_;
  bool active_ = true;
};

/// Hands out transactions with unique ids over one shared lock table.
class TransactionManager {
 public:
  TransactionManager(UpdateEngine* engine, storage::LockManager* locks)
      : engine_(engine), locks_(locks) {}

  TransactionManager(const TransactionManager&) = delete;
  TransactionManager& operator=(const TransactionManager&) = delete;

  /// Starts a new transaction.
  std::unique_ptr<Transaction> Begin();

 private:
  UpdateEngine* engine_;
  storage::LockManager* locks_;
  std::atomic<uint64_t> next_txn_{1};
};

}  // namespace tse::update

#endif  // TSE_UPDATE_TRANSACTION_H_
