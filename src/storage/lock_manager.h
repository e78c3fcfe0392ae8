#ifndef TSE_STORAGE_LOCK_MANAGER_H_
#define TSE_STORAGE_LOCK_MANAGER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.h"
#include "common/status.h"

namespace tse::storage {

/// Lock modes.
enum class LockMode : uint8_t {
  kShared = 0,
  kExclusive = 1,
};

/// A strict two-phase-locking lock table over opaque uint64 resource
/// ids (typically raw Oid values). Conflicts block up to a timeout;
/// expiry returns Aborted, which callers treat as a deadlock signal
/// (timeout-based deadlock resolution, as in many production systems).
///
/// Lock upgrades are the one deadlock detected without waiting: two
/// shared holders that both ask for exclusive can never both succeed,
/// so the second asker is aborted at once. While an upgrade is pending,
/// new shared requests from non-holders wait behind it, so a stream of
/// fresh readers cannot starve the upgrader. Together these keep
/// read-then-write transactions that retry on abort from livelocking.
///
/// This provides the "concurrency control" half of the GemStone
/// substrate in the paper's architecture (Figure 6).
class LockManager {
 public:
  explicit LockManager(
      std::chrono::milliseconds timeout = std::chrono::milliseconds(200))
      : timeout_(timeout) {}

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Acquires `mode` on `resource` for `txn`. Re-entrant: a transaction
  /// already holding a sufficient lock succeeds immediately; a shared
  /// holder requesting exclusive is upgraded when it is the only holder,
  /// and aborted at once if another holder is already waiting to upgrade.
  Status Acquire(TxnId txn, uint64_t resource, LockMode mode);

  /// Releases one resource held by `txn`.
  Status Release(TxnId txn, uint64_t resource);

  /// Releases everything `txn` holds (commit/abort).
  void ReleaseAll(TxnId txn);

  /// True if `txn` holds at least `mode` on `resource`.
  bool Holds(TxnId txn, uint64_t resource, LockMode mode) const;

  /// Number of resources with at least one holder.
  size_t locked_resource_count() const;

 private:
  struct Entry {
    // txn -> mode currently granted.
    std::unordered_map<uint64_t, LockMode> holders;
    // Shared holders currently waiting to upgrade to exclusive.
    std::unordered_set<uint64_t> upgraders;
    bool HasExclusive() const {
      for (const auto& [_, m] : holders) {
        if (m == LockMode::kExclusive) return true;
      }
      return false;
    }
  };

  /// True when `txn` may be granted `mode` right now.
  static bool Compatible(const Entry& entry, uint64_t txn, LockMode mode);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::chrono::milliseconds timeout_;
  std::unordered_map<uint64_t, Entry> table_;
};

}  // namespace tse::storage

#endif  // TSE_STORAGE_LOCK_MANAGER_H_
