// Public TSE API — the wire-protocol client.
//
// `tse::Client` is a blocking TCP client for a `tse_served` instance
// and the `tse::Backend` that `tse::Connect("tcp:HOST:PORT")` returns.
// It mirrors the `tse::Session` surface one-to-one (open session at a
// view/version, get/set/update, transactions, schema changes, refresh,
// stats), so code written against a local session ports to remote
// access by swapping the handle. See docs/API.md "Remote access".
#ifndef TSE_PUBLIC_CLIENT_H_
#define TSE_PUBLIC_CLIENT_H_

#include "cluster/client.h"
#include "tse/status.h"
#include "tse/value.h"

#endif  // TSE_PUBLIC_CLIENT_H_
