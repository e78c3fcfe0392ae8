// Public TSE API — the snapshot read handle.
//
// A `tse::Snapshot` pins one (view-version, data-epoch) pair: its
// Get/GetAttr/Extent/Select are lock-free and repeatable — they take no
// object locks. It is the embedded `tse::SnapshotHandle`; obtain one
// from Session::GetSnapshot() or Db::OpenSnapshot.
#ifndef TSE_PUBLIC_SNAPSHOT_H_
#define TSE_PUBLIC_SNAPSHOT_H_

#include "db/snapshot.h"
#include "tse/status.h"
#include "tse/value.h"

#endif  // TSE_PUBLIC_SNAPSHOT_H_
