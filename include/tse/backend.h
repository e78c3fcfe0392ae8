// Public TSE API — the deployment-agnostic access layer.
//
// `tse::Backend` is one handle type over every deployment, implemented
// directly by `tse::Session` (the embedded engine), `tse::Client` (a
// remote tse_served) and `tse::Cluster` (a sharded fleet). The
// interface lives in the engine library (db/backend.h); `tse::Connect`
// is in the cluster library, since only it knows every deployment.
// `tse::Connect("embedded:" | "tcp:HOST:PORT" | "cluster:H:P1,H:P2")`
// is the single place topology is decided; everything written against
// the Backend surface runs unchanged on all three. See docs/API.md
// "Deployments".
#ifndef TSE_PUBLIC_BACKEND_H_
#define TSE_PUBLIC_BACKEND_H_

#include "cluster/backend.h"
#include "db/backend.h"
#include "tse/status.h"
#include "tse/value.h"

#endif  // TSE_PUBLIC_BACKEND_H_
