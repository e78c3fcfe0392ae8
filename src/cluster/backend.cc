// tse::Connect — the one place a deployment spec is turned into a
// handle: a tse::Session for "embedded:", a tse::Client for "tcp:", a
// tse::Cluster for "cluster:".

#include "cluster/backend.h"

#include <utility>

#include "cluster/client.h"
#include "cluster/cluster.h"
#include "db/db.h"
#include "db/session.h"

namespace tse {

namespace cluster_internal {

Result<std::pair<std::string, uint16_t>> ParseHostPort(
    const std::string& host_port) {
  size_t colon = host_port.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == host_port.size()) {
    return Status::InvalidArgument("expected HOST:PORT, got '" + host_port +
                                   "'");
  }
  int port = 0;
  try {
    port = std::stoi(host_port.substr(colon + 1));
  } catch (const std::exception&) {
    port = -1;
  }
  if (port <= 0 || port > 65535) {
    return Status::InvalidArgument("bad port in '" + host_port + "'");
  }
  return std::make_pair(host_port.substr(0, colon),
                        static_cast<uint16_t>(port));
}

}  // namespace cluster_internal

Result<std::unique_ptr<Backend>> Connect(const std::string& spec) {
  if (spec == "embedded" || spec.rfind("embedded:", 0) == 0) {
    DbOptions options;
    options.closure_policy = update::ValueClosurePolicy::kAllow;
    if (spec.size() > 9) options.data_dir = spec.substr(9);
    TSE_ASSIGN_OR_RETURN(std::shared_ptr<Db> db, Db::Open(options));
    return std::unique_ptr<Backend>(new Session(std::move(db)));
  }
  if (spec.rfind("tcp:", 0) == 0) {
    TSE_ASSIGN_OR_RETURN(auto endpoint,
                         cluster_internal::ParseHostPort(spec.substr(4)));
    TSE_ASSIGN_OR_RETURN(auto client,
                         Client::Connect(endpoint.first, endpoint.second));
    return std::unique_ptr<Backend>(std::move(client));
  }
  if (spec.rfind("cluster:", 0) == 0) {
    std::vector<std::string> endpoints;
    std::string rest = spec.substr(8);
    size_t start = 0;
    while (start <= rest.size()) {
      size_t comma = rest.find(',', start);
      if (comma == std::string::npos) comma = rest.size();
      if (comma > start) endpoints.push_back(rest.substr(start, comma - start));
      start = comma + 1;
    }
    TSE_ASSIGN_OR_RETURN(auto cluster, Cluster::Connect(endpoints));
    return std::unique_ptr<Backend>(std::move(cluster));
  }
  return Status::InvalidArgument(
      "unknown backend spec '" + spec +
      "'; expected embedded:[<data-dir>], tcp:HOST:PORT, or "
      "cluster:HOST:PORT,HOST:PORT,...");
}

}  // namespace tse
