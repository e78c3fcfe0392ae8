#ifndef TSE_CLUSTER_BACKEND_H_
#define TSE_CLUSTER_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "common/result.h"
#include "db/backend.h"

namespace tse {

/// Opens a backend from a connect spec:
///
///   "embedded:"            in-process engine, in-memory
///   "embedded:<data-dir>"  in-process engine, durable under <data-dir>
///   "tcp:HOST:PORT"        one remote tse_served
///   "cluster:H:P1,H:P2"    a sharded tse_served fleet (order = shard id)
///
/// No session is opened — call OpenSession on the result. This is the
/// single place deployment topology is decided; everything after it is
/// deployment-agnostic Backend code. An embedded spec yields a
/// tse::Session that owns its Db (shared with every Clone).
Result<std::unique_ptr<Backend>> Connect(const std::string& spec);

namespace cluster_internal {

/// Splits "HOST:PORT" (the last colon separates the port).
Result<std::pair<std::string, uint16_t>> ParseHostPort(
    const std::string& host_port);

}  // namespace cluster_internal

}  // namespace tse

#endif  // TSE_CLUSTER_BACKEND_H_
