// Binary-level cluster test: boots three real `tse_served --demo`
// shard processes on ephemeral loopback ports and drives them through
// tse::Cluster — the same fleet a user would run. Verifies
//
//   * oid-hash routing: every created object lands on the shard its
//     oid names (oid % 3), is readable there directly, and is absent
//     from the other shards;
//   * cross-shard reads: the cluster extent is exactly the union of
//     the per-shard extents;
//   * fleet-wide 2PC schema change mid-run: a client pinned to the old
//     view version before the change keeps reading and writing with
//     zero failures while the fleet flips underneath it;
//   * crash during 2PC: with one shard SIGKILLed, a fleet-wide change
//     fails cleanly and the surviving shards roll back their prepares
//     — still serving, still on the pre-change version, and still able
//     to accept a later schema change.

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/client.h"
#include "cluster/cluster.h"

namespace {

using tse::Client;
using tse::Cluster;
using tse::Oid;
using tse::objmodel::Value;

/// One spawned shard process; popen + sh gives us pid and banner.
struct ShardProc {
  FILE* pipe = nullptr;
  int pid = 0;
  std::string port;
};

std::string ReadUntil(FILE* pipe, const std::string& marker) {
  std::string out;
  int c;
  while ((c = fgetc(pipe)) != EOF) {
    out.push_back(static_cast<char>(c));
    if (out.find(marker) != std::string::npos && out.back() == '\n') break;
  }
  return out;
}

ShardProc SpawnShard(int shard_id, int shard_count) {
  ShardProc p;
  std::string cmd = std::string("exec ") + TSE_SERVED_BIN +
                    " --demo --shard-id " + std::to_string(shard_id) +
                    " --shard-count " + std::to_string(shard_count) +
                    " --port 0 2>&1 & echo pid $!; wait $!";
  p.pipe = popen(cmd.c_str(), "r");
  if (p.pipe == nullptr) return p;
  std::string banner = ReadUntil(p.pipe, "listening on ");
  auto pid_at = banner.find("pid ");
  auto port_at = banner.find("listening on 127.0.0.1:");
  if (pid_at == std::string::npos || port_at == std::string::npos) return p;
  p.pid = std::stoi(banner.substr(pid_at + 4));
  port_at += sizeof("listening on 127.0.0.1:") - 1;
  p.port = banner.substr(port_at, banner.find('\n', port_at) - port_at);
  return p;
}

void Reap(ShardProc& p, int sig) {
  if (p.pid > 0) kill(p.pid, sig);
  if (p.pipe != nullptr) {
    char buf[4096];
    while (fread(buf, 1, sizeof(buf), p.pipe) > 0) {
    }
    pclose(p.pipe);
    p.pipe = nullptr;
  }
}

TEST(ClusterRouting, ShardedFleetEndToEnd) {
  constexpr int kShards = 3;
  std::vector<ShardProc> procs;
  std::vector<std::string> endpoints;
  for (int i = 0; i < kShards; ++i) {
    procs.push_back(SpawnShard(i, kShards));
    ASSERT_NE(procs[i].pipe, nullptr);
    ASSERT_GT(procs[i].pid, 0);
    ASSERT_FALSE(procs[i].port.empty());
    endpoints.push_back("127.0.0.1:" + procs[i].port);
  }

  auto cluster_or = Cluster::Connect(endpoints);
  ASSERT_TRUE(cluster_or.ok()) << cluster_or.status().ToString();
  Cluster& cluster = *cluster_or.value();
  EXPECT_EQ(cluster.shard_count(), static_cast<size_t>(kShards));
  ASSERT_TRUE(cluster.OpenSession("Main").ok());
  EXPECT_EQ(cluster.view_version(), 1);

  // --- Routed creates land on the shard their oid names ----------------
  std::vector<Oid> oids;
  for (int i = 0; i < 12; ++i) {
    auto created = cluster.Create(
        "Student", {{"name", Value::Str("s" + std::to_string(i))}});
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    oids.push_back(created.value());
  }
  std::map<size_t, int> per_shard;
  for (Oid oid : oids) per_shard[cluster.ShardOf(oid)]++;
  ASSERT_EQ(per_shard.size(), static_cast<size_t>(kShards));
  for (const auto& [shard, n] : per_shard) {
    EXPECT_EQ(n, 12 / kShards) << "shard " << shard;
  }

  // Each object is present on exactly the shard its oid names: direct
  // per-shard sessions are the oracle.
  std::vector<std::unique_ptr<Client>> direct;
  for (int i = 0; i < kShards; ++i) {
    direct.push_back(
        Client::Connect("127.0.0.1", std::stoi(procs[i].port)).value());
    ASSERT_TRUE(direct[i]->OpenSession("Main").ok());
  }
  for (Oid oid : oids) {
    const size_t home = cluster.ShardOf(oid);
    EXPECT_EQ(oid.value() % kShards, home);
    for (int i = 0; i < kShards; ++i) {
      auto got = direct[i]->GetAttr(oid, "Student", "name");
      EXPECT_EQ(got.ok(), static_cast<size_t>(i) == home)
          << "oid " << oid.value() << " on shard " << i;
    }
    // And the routed read agrees with the home shard's.
    EXPECT_EQ(cluster.GetAttr(oid, "Student", "name").value().ToString(),
              direct[home]->GetAttr(oid, "Student", "name").value().ToString());
  }

  // --- Cluster extent == union of per-shard extents ---------------------
  std::set<uint64_t> unioned;
  for (int i = 0; i < kShards; ++i) {
    auto extent = direct[i]->Extent("Student");
    ASSERT_TRUE(extent.ok());
    for (Oid oid : extent.value()) {
      EXPECT_EQ(oid.value() % kShards, static_cast<uint64_t>(i));
      unioned.insert(oid.value());
    }
  }
  auto cluster_extent = cluster.Extent("Student");
  ASSERT_TRUE(cluster_extent.ok());
  std::set<uint64_t> routed;
  for (Oid oid : cluster_extent.value()) routed.insert(oid.value());
  EXPECT_EQ(routed, unioned);
  EXPECT_EQ(routed.size(), oids.size());

  // --- Fleet-wide 2PC schema change under a pinned old-version client ---
  // `pinned` stays bound to Main v1 on shard 0 across the flip.
  Client& pinned = *direct[0];
  ASSERT_EQ(pinned.view_version(), 1);
  Oid shard0_oid = oids[0];
  for (Oid oid : oids) {
    if (oid.value() % kShards == 0) {
      shard0_oid = oid;
      break;
    }
  }
  ASSERT_EQ(shard0_oid.value() % kShards, 0u);

  auto flipped = cluster.Apply("add_attribute register:bool to Student");
  ASSERT_TRUE(flipped.ok()) << flipped.status().ToString();
  EXPECT_EQ(cluster.view_version(), 2);

  // Zero failures on the pinned connection: reads and writes through
  // the old version keep working after the fleet flipped.
  EXPECT_EQ(pinned.view_version(), 1);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(pinned.GetAttr(shard0_oid, "Student", "name").ok());
    ASSERT_TRUE(
        pinned.Set(shard0_oid, "Student", "name", Value::Str("pinned")).ok());
  }
  // The old view genuinely predates the change...
  EXPECT_FALSE(pinned.GetAttr(shard0_oid, "Student", "register").ok());
  // ...while the cluster session sees it fleet-wide, on every shard.
  for (Oid oid : oids) {
    EXPECT_TRUE(cluster.GetAttr(oid, "Student", "register").ok());
  }

  // --- One shard SIGKILLed mid-2PC: clean rollback ----------------------
  // Shard 2 dies; the next fleet-wide change must fail without leaving
  // the survivors flipped or locked.
  Reap(procs[2], SIGKILL);
  auto failed = cluster.Apply("add_attribute year:int to Student");
  EXPECT_FALSE(failed.ok());

  // Survivors still serve, still on the pre-change version.
  for (int i = 0; i < 2; ++i) {
    auto check = Client::Connect("127.0.0.1", std::stoi(procs[i].port));
    ASSERT_TRUE(check.ok()) << "shard " << i;
    ASSERT_TRUE(check.value()->OpenSession("Main").ok());
    EXPECT_EQ(check.value()->view_version(), 2) << "shard " << i;
  }
  // And their prepares were rolled back, not wedged: shard 0 accepts a
  // fresh schema change directly.
  {
    auto survivor = Client::Connect("127.0.0.1", std::stoi(procs[0].port));
    ASSERT_TRUE(survivor.ok());
    ASSERT_TRUE(survivor.value()->OpenSession("Main").ok());
    auto applied = survivor.value()->Apply("add_attribute year:int to Student");
    EXPECT_TRUE(applied.ok()) << applied.status().ToString();
  }

  Reap(procs[0], SIGTERM);
  Reap(procs[1], SIGTERM);
}

}  // namespace
