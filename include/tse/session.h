// Public TSE API — the per-client session handle.
//
// A `tse::Session` is bound to one view version: reads, generic
// updates, strict-2PL transactions, and transparent schema evolution,
// all addressed by display names in the bound view. It is also the
// embedded `tse::Backend`: what `tse::Connect("embedded:…")` returns.
#ifndef TSE_PUBLIC_SESSION_H_
#define TSE_PUBLIC_SESSION_H_

#include "db/session.h"
#include "tse/snapshot.h"
#include "tse/status.h"
#include "tse/value.h"

#endif  // TSE_PUBLIC_SESSION_H_
