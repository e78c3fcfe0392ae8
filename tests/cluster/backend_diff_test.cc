// Deployment-differential test: the same seeded workload, driven
// through tse::Backend handles on every deployment the access layer
// supports — embedded engine, one tse_served over loopback, and a
// three-shard cluster — must produce byte-identical canonical traces
// (src/fuzz/backend_workload.h). Every divergence in a value, extent,
// status code, or view version shows up as a trace diff at the first
// differing step. The cluster run additionally exercises the 2PC
// fleet coordinator on every schema change in the script.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster/backend.h"
#include "db/db.h"
#include "fuzz/backend_workload.h"
#include "net/server.h"

namespace {

using tse::Db;
using tse::DbOptions;
using tse::fuzz::BackendWorkloadOptions;
using tse::fuzz::RunBackendWorkload;

/// One in-process tse_served: a Db plus a Server on an ephemeral port.
struct Node {
  std::unique_ptr<Db> db;
  std::unique_ptr<tse::net::Server> server;
  uint16_t port = 0;
};

Node StartNode(uint32_t shard_id, uint32_t shard_count) {
  Node node;
  DbOptions options;
  options.shard_id = shard_id;
  options.shard_count = shard_count;
  node.db = Db::Open(options).value();
  node.server = std::make_unique<tse::net::Server>(node.db.get());
  EXPECT_TRUE(node.server->Start().ok());
  node.port = node.server->port();
  return node;
}

std::string Trace(const std::string& spec, const BackendWorkloadOptions& o) {
  auto backend = tse::Connect(spec);
  EXPECT_TRUE(backend.ok()) << backend.status().ToString();
  auto trace = RunBackendWorkload(backend.value().get(), o);
  EXPECT_TRUE(trace.ok()) << trace.status().ToString();
  return trace.ok() ? trace.value() : "";
}

TEST(BackendDiff, EmbeddedServedAndClusterTracesAgree) {
  BackendWorkloadOptions options;
  options.seed = 7;
  options.ops = 160;

  // Embedded oracle.
  const std::string embedded = Trace("embedded:", options);
  ASSERT_NE(embedded.find("bootstrap Fz v1"), std::string::npos) << embedded;
  ASSERT_NE(embedded.find("final view v"), std::string::npos) << embedded;

  // One remote tse_served.
  Node single = StartNode(0, 1);
  const std::string served =
      Trace("tcp:127.0.0.1:" + std::to_string(single.port), options);
  EXPECT_EQ(embedded, served);

  // A three-shard fleet: strided oids, routed ops, unions, and 2PC
  // schema changes — yet the canonical trace must not move.
  std::vector<Node> shards;
  std::string spec = "cluster:";
  for (uint32_t i = 0; i < 3; ++i) {
    shards.push_back(StartNode(i, 3));
    spec += (i ? "," : "") + std::string("127.0.0.1:") +
            std::to_string(shards[i].port);
  }
  const std::string cluster = Trace(spec, options);
  EXPECT_EQ(embedded, cluster);
}

TEST(BackendDiff, SeedsDivergeButDeploymentsDoNot) {
  // A second seed (different op interleaving) as cheap evidence the
  // equality above is not vacuous: traces differ across seeds, agree
  // across deployments.
  BackendWorkloadOptions a;
  a.seed = 7;
  a.ops = 48;
  BackendWorkloadOptions b;
  b.seed = 8;
  b.ops = 48;

  const std::string seed_a = Trace("embedded:", a);
  const std::string seed_b = Trace("embedded:", b);
  EXPECT_NE(seed_a, seed_b);

  Node single = StartNode(0, 1);
  EXPECT_EQ(seed_b,
            Trace("tcp:127.0.0.1:" + std::to_string(single.port), b));
}

}  // namespace
