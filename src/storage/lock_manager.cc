#include "storage/lock_manager.h"

#include "common/str_util.h"
#include "obs/metrics.h"

namespace tse::storage {

bool LockManager::Compatible(const Entry& entry, uint64_t txn, LockMode mode) {
  if (mode == LockMode::kShared) {
    // Shared is grantable unless someone *else* holds exclusive, or a
    // pending upgrade would be starved by one more reader.
    if (!entry.upgraders.empty() && !entry.holders.count(txn)) return false;
    for (const auto& [holder, m] : entry.holders) {
      if (holder != txn && m == LockMode::kExclusive) return false;
    }
    return true;
  }
  // Exclusive is grantable when no other transaction holds anything.
  for (const auto& [holder, m] : entry.holders) {
    if (holder != txn) return false;
  }
  return true;
}

Status LockManager::Acquire(TxnId txn, uint64_t resource, LockMode mode) {
  std::unique_lock<std::mutex> lock(mu_);
  auto deadline = std::chrono::steady_clock::now() + timeout_;
  // The table entry must be re-looked-up after every wait: releases may
  // erase it (invalidating references) while we sleep.
  for (;;) {
    Entry& entry = table_[resource];
    auto held = entry.holders.find(txn.value());
    if (held != entry.holders.end() &&
        (held->second == LockMode::kExclusive || mode == LockMode::kShared)) {
      TSE_COUNT("storage.lock.acquires");
      return Status::OK();  // Already sufficient.
    }
    if (Compatible(entry, txn.value(), mode)) {
      entry.holders[txn.value()] = mode;
      entry.upgraders.erase(txn.value());
      TSE_COUNT("storage.lock.acquires");
      return Status::OK();
    }
    if (held != entry.holders.end()) {
      // A shared holder asking for exclusive. If another holder is
      // already waiting to upgrade, each waits on the other forever.
      if (!entry.upgraders.empty() && !entry.upgraders.count(txn.value())) {
        TSE_COUNT("storage.lock.timeouts");
        return Status::Aborted(StrCat("upgrade deadlock on resource ",
                                      resource, " for txn ", txn.value()));
      }
      entry.upgraders.insert(txn.value());
    }
    TSE_COUNT("storage.lock.waits");
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      // Drop the entry if our lookup created it and nobody holds it. An
      // upgrader still holds its shared lock, so the entry survives it.
      auto it = table_.find(resource);
      if (it != table_.end()) {
        if (it->second.upgraders.erase(txn.value())) cv_.notify_all();
        if (it->second.holders.empty()) table_.erase(it);
      }
      TSE_COUNT("storage.lock.timeouts");
      return Status::Aborted(
          StrCat("lock timeout on resource ", resource, " for txn ",
                 txn.value(), " (possible deadlock)"));
    }
  }
}

Status LockManager::Release(TxnId txn, uint64_t resource) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = table_.find(resource);
  if (it == table_.end() || !it->second.holders.count(txn.value())) {
    return Status::NotFound(
        StrCat("txn ", txn.value(), " holds no lock on ", resource));
  }
  it->second.holders.erase(txn.value());
  if (it->second.holders.empty()) table_.erase(it);
  cv_.notify_all();
  return Status::OK();
}

void LockManager::ReleaseAll(TxnId txn) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = table_.begin(); it != table_.end();) {
    it->second.holders.erase(txn.value());
    if (it->second.holders.empty()) {
      it = table_.erase(it);
    } else {
      ++it;
    }
  }
  cv_.notify_all();
}

bool LockManager::Holds(TxnId txn, uint64_t resource, LockMode mode) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = table_.find(resource);
  if (it == table_.end()) return false;
  auto held = it->second.holders.find(txn.value());
  if (held == it->second.holders.end()) return false;
  return held->second == LockMode::kExclusive || mode == LockMode::kShared;
}

size_t LockManager::locked_resource_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return table_.size();
}

}  // namespace tse::storage
