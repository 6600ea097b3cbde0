// Sharded multi-raft (src/shard/): router correctness, routed-client
// redirect handling, per-shard isolation under faults, and the reset/sweep
// determinism contract on the shared substrate.
//
// Four pillars:
//   * ShardRouter — deterministic assignment in both partition modes, full
//     shard coverage, range contiguity, and key_for_shard round-trips;
//   * ShardedKvClient — an op lands in exactly its key's group (and nowhere
//     else), publishing the discovered leader back to the router;
//   * isolation — killing one shard's leader mid-workload leaves every other
//     shard's final applied state byte-identical to an undisturbed run;
//   * determinism — sharded sweeps are bit-identical across thread counts
//     and fresh-vs-reused substrates, and ShardedCluster::reset matches
//     fresh construction (including across a geometry change).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "scenario/runner.hpp"
#include "shard/client.hpp"
#include "shard/router.hpp"
#include "shard/sharded_cluster.hpp"
#include "workload/closed_loop.hpp"

namespace dyna {
namespace {

using namespace std::chrono_literals;

// ---- Router ------------------------------------------------------------------------

TEST(ShardRouter, HashModeCoversEveryShardDeterministically) {
  const shard::ShardRouter router(4, shard::PartitionMode::Hash);
  std::vector<std::size_t> hits(4, 0);
  for (int i = 0; i < 2000; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const std::size_t s = router.shard_of(key);
    ASSERT_LT(s, 4u);
    EXPECT_EQ(s, router.shard_of(key));  // assignment is a pure function
    ++hits[s];
  }
  for (std::size_t s = 0; s < 4; ++s) {
    // FNV-1a over 2000 distinct keys: every shard sees a healthy share.
    EXPECT_GT(hits[s], 300u) << "shard " << s;
  }
}

TEST(ShardRouter, RangeModeIsContiguousInKeyOrder) {
  const shard::ShardRouter router(4, shard::PartitionMode::Range);
  // Walk the first-byte axis in lexicographic order: assignments must be
  // non-decreasing (contiguous ranges) and cover every shard.
  std::size_t prev = 0;
  std::set<std::size_t> seen;
  for (int b = 0; b < 256; ++b) {
    std::string key(1, static_cast<char>(b));
    key += "suffix";
    const std::size_t s = router.shard_of(key);
    ASSERT_LT(s, 4u);
    EXPECT_GE(s, prev) << "byte " << b;
    prev = s;
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 4u);
  // Exact quarter boundaries on the first byte (step = 2^64/4).
  EXPECT_EQ(router.shard_of(std::string(1, '\x00')), 0u);
  EXPECT_EQ(router.shard_of(std::string(1, '\x40')), 1u);
  EXPECT_EQ(router.shard_of(std::string(1, '\x80')), 2u);
  EXPECT_EQ(router.shard_of(std::string(1, '\xC0')), 3u);
  EXPECT_EQ(router.shard_of(std::string(8, '\xFF')), 3u);  // top of the space
}

TEST(ShardRouter, KeyForShardRoundTripsInBothModes) {
  for (const auto mode : {shard::PartitionMode::Hash, shard::PartitionMode::Range}) {
    for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
      const shard::ShardRouter router(shards, mode);
      for (std::size_t s = 0; s < shards; ++s) {
        for (int i = 0; i < 50; ++i) {
          const std::string stem = "sess0-op" + std::to_string(i);
          const std::string key = router.key_for_shard(s, stem);
          EXPECT_EQ(router.shard_of(key), s)
              << to_string(mode) << " shards=" << shards << " stem=" << stem;
          EXPECT_EQ(key, router.key_for_shard(s, stem));  // deterministic
          EXPECT_NE(key.find(stem), std::string::npos);   // stem embedded
        }
      }
    }
  }
}

TEST(ShardRouter, SingleShardIsIdentityRouting) {
  const shard::ShardRouter router(1, shard::PartitionMode::Range);
  EXPECT_EQ(router.shard_of("anything"), 0u);
  EXPECT_EQ(router.key_for_shard(0, "stem"), "stem");  // keys pass through
}

TEST(ShardRouter, LeaderCacheStartsEmptyAndPublishes) {
  shard::ShardRouter router(3);
  EXPECT_EQ(router.leader_hint(1), kNoNode);
  router.note_leader(1, NodeId{4});
  EXPECT_EQ(router.leader_hint(1), NodeId{4});
  EXPECT_EQ(router.leader_hint(0), kNoNode);  // other shards untouched
}

// ---- Routed client -----------------------------------------------------------------

shard::ShardedConfig small_sharded(std::size_t shards, std::uint64_t seed,
                                   std::size_t servers = 3) {
  shard::ShardedConfig cfg;
  cfg.shards = shards;
  cfg.group = cluster::make_raft_config(servers, seed);
  return cfg;
}

TEST(ShardedKvClient, OpLandsOnlyInItsKeysGroupAndPublishesLeader) {
  shard::ShardedCluster sc(small_sharded(2, 7));
  ASSERT_TRUE(sc.await_all_leaders(30s));

  shard::ShardRouter router = sc.make_router();
  shard::ShardedKvClient client(sc, router, sc.fork_rng(1));

  const std::string key = router.key_for_shard(0, "alpha");
  bool done = false;
  client.put(key, "v1", [&done](const kv::ClientResult& r) {
    EXPECT_TRUE(r.ok);
    done = true;
  });
  sc.sim().run_for(5s);
  ASSERT_TRUE(done);

  // The write committed in group 0 and is invisible to group 1 — every one
  // of group 1's replicas is empty.
  sc.sim().run_for(2s);  // let group 0's followers apply
  bool in_home = false;
  for (const NodeId id : sc.shard(0).server_ids()) {
    in_home |= sc.shard(0).state_machine(id).get(key).has_value();
  }
  EXPECT_TRUE(in_home);
  for (const NodeId id : sc.shard(1).server_ids()) {
    EXPECT_EQ(sc.shard(1).state_machine(id).size(), 0u) << "node " << id;
  }

  // Success published the discovered leader back to the router.
  EXPECT_EQ(router.leader_hint(0), sc.shard(0).current_leader());
  EXPECT_EQ(router.leader_hint(1), kNoNode);  // group 1 never contacted
}

TEST(ShardedKvClient, RedirectRecoversAfterLeaderChange) {
  shard::ShardedCluster sc(small_sharded(2, 11));
  ASSERT_TRUE(sc.await_all_leaders(30s));
  shard::ShardRouter router = sc.make_router();

  // First client discovers group 0's leader and publishes it.
  const std::string key = router.key_for_shard(0, "beta");
  {
    shard::ShardedKvClient first(sc, router, sc.fork_rng(2));
    bool done = false;
    first.put(key, "v1", [&done](const kv::ClientResult& r) {
      EXPECT_TRUE(r.ok);
      done = true;
    });
    sc.sim().run_for(5s);
    ASSERT_TRUE(done);
  }
  const NodeId old_leader = router.leader_hint(0);
  ASSERT_NE(old_leader, kNoNode);

  // Depose it. A later client starts from the now-stale hint and must ride
  // redirects/timeouts to the new leader.
  sc.shard(0).crash(old_leader);
  ASSERT_TRUE(sc.await_all_leaders(60s));
  ASSERT_NE(sc.shard(0).current_leader(), old_leader);

  shard::ShardedKvClient second(sc, router, sc.fork_rng(3));
  bool done = false;
  second.put(key, "v2", [&done](const kv::ClientResult& r) {
    EXPECT_TRUE(r.ok);
    done = true;
  });
  sc.sim().run_for(20s);
  ASSERT_TRUE(done);
  EXPECT_EQ(router.leader_hint(0), sc.shard(0).current_leader());
}

// ---- Isolation under leader kill ---------------------------------------------------

/// Run a pinned, ops-bounded closed-loop pool over a 3-shard deployment,
/// optionally crashing shard 0's leader mid-run. Returns every replica
/// snapshot of shards 1 and 2 after the dust settles.
std::vector<std::string> pinned_run_snapshots(bool kill_shard0_leader) {
  shard::ShardedCluster sc(small_sharded(3, 21));
  EXPECT_TRUE(sc.await_all_leaders(30s));
  shard::ShardRouter router = sc.make_router();

  wl::MixConfig mix;
  mix.clients = 6;  // two sessions pinned per shard
  mix.get_ratio = 0.0;
  mix.ops_per_client = 30;
  mix.duration = 120s;  // ops-mode: duration only bounds a stuck run
  mix.disjoint_keyspace = true;
  mix.pin_sessions_to_shards = true;
  wl::ClosedLoopPool pool(sc, router, mix, sc.fork_rng(0xC10D));

  if (kill_shard0_leader) {
    sc.sim().schedule_after(300ms, [&sc] {
      const NodeId leader = sc.shard(0).current_leader();
      if (leader != kNoNode) sc.shard(0).crash(leader);
    });
  }
  const wl::MixResult result = pool.run();
  EXPECT_EQ(result.completed + result.failed, 6u * 30u);

  sc.sim().run_for(5s);  // let followers catch up on applies
  std::vector<std::string> snapshots;
  for (const std::size_t g : {std::size_t{1}, std::size_t{2}}) {
    for (const NodeId id : sc.shard(g).server_ids()) {
      snapshots.push_back(sc.shard(g).state_machine(id).snapshot());
    }
  }
  return snapshots;
}

TEST(ShardIsolation, LeaderKillLeavesOtherShardsFinalStateUntouched) {
  // Pinned sessions + disjoint keys + per-session op quotas make each
  // shard's final store a pure function of its own command stream. Shard 0
  // losing its leader mid-run (stalled ops, elections, retries) must not
  // change what shards 1 and 2 end up applying — the sharding point.
  const std::vector<std::string> baseline = pinned_run_snapshots(false);
  const std::vector<std::string> disturbed = pinned_run_snapshots(true);
  ASSERT_EQ(baseline.size(), disturbed.size());
  ASSERT_EQ(baseline.size(), 6u);  // 2 shards x 3 replicas
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_FALSE(baseline[i].empty());
    EXPECT_EQ(baseline[i], disturbed[i]) << "replica " << i;
  }
}

// ---- Partition windows (FaultPlan) -------------------------------------------------

TEST(PartitionWindows, IsolatingTheLeaderForcesAnElectionThenHeals) {
  scenario::ScenarioSpec spec;
  spec.name = "partition-window";
  spec.servers = 5;
  spec.seed = 5;
  spec.samples = scenario::SamplePlan::every(1s, 8s);

  auto c = scenario::ScenarioRunner::materialize(spec);
  ASSERT_TRUE(c->await_leader(30s));
  const NodeId old_leader = c->current_leader();

  // Cut the sitting leader off for 3 s starting 500 ms into measurement.
  spec.faults = scenario::FaultPlan::partitions(
      {{.start = 500ms, .duration = 3s, .nodes = {old_leader}}});
  const scenario::ScenarioResult r = scenario::ScenarioRunner::run_on(*c, spec);

  EXPECT_GE(r.elections, 1u);  // the remaining quorum elected a successor
  EXPECT_NE(c->current_leader(), kNoNode);
  EXPECT_TRUE(cluster::service_available(*c));  // healed: commits flow again
}

TEST(PartitionWindows, MinoritySetInsideWindowStillReachesItself) {
  // Two nodes cut together still talk to each other (symmetric set cut, not
  // a full isolation of each) — the window models a group partition.
  sim::Simulator sim;
  net::Network net(sim, Rng(3));
  std::vector<int> got(4, 0);
  for (NodeId id = 0; id < 4; ++id) {
    net.add_node([&got, id](NodeId, const net::Message& m) {
      if (m.test() != nullptr) ++got[id];
    });
  }

  scenario::ScenarioSpec spec;
  spec.faults = scenario::FaultPlan::partitions({{.start = 0ms, .duration = 1s,
                                                  .nodes = {0, 1}}});
  // Exercise through the runner-internal scheduling by replaying its
  // contract directly: nodes {0,1} blocked against {2,3} both ways.
  for (const auto& w : spec.faults.partition_windows) {
    for (const NodeId in : w.nodes) {
      for (NodeId out = 0; out < 4; ++out) {
        if (std::find(w.nodes.begin(), w.nodes.end(), out) != w.nodes.end()) continue;
        net.set_blocked(in, out, true);
        net.set_blocked(out, in, true);
      }
    }
  }
  using net::Transport;
  net.send(0, 1, net::Message(1), Transport::Datagram);  // inside the set: delivered
  net.send(0, 2, net::Message(2), Transport::Datagram);  // across the cut: dropped
  net.send(3, 1, net::Message(3), Transport::Datagram);  // across the cut: dropped
  net.send(2, 3, net::Message(4), Transport::Datagram);  // outside the set: delivered
  sim.run_for(5s);
  EXPECT_EQ(got[1], 1);
  EXPECT_EQ(got[2], 0);
  EXPECT_EQ(got[3], 1);
}

// ---- Reset / determinism contract --------------------------------------------------

scenario::ScenarioSpec sharded_spec(std::uint64_t seed, std::size_t shards = 2) {
  scenario::ScenarioSpec spec;
  spec.name = "sharded";
  spec.variant = scenario::Variant::Dynatune;
  spec.servers = 3;
  spec.shards = shards;
  spec.seed = seed;
  spec.topology = scenario::TopologySpec::constant(40ms, 1ms, 0.005);
  wl::MixConfig mix;
  mix.clients = 4;
  mix.get_ratio = 0.3;
  mix.duration = 3s;
  spec.workload = scenario::WorkloadPlan::closed_loop(mix);
  spec.faults = scenario::FaultPlan::leader_kills(1, 1s);
  return spec;
}

TEST(ShardedReset, ReusedSubstrateMatchesFreshConstruction) {
  const scenario::ScenarioSpec first = sharded_spec(31);
  scenario::ScenarioSpec second = sharded_spec(32);

  auto sc = scenario::ScenarioRunner::materialize_sharded(first);
  (void)scenario::ScenarioRunner::run_on(*sc, first);
  sc->reset(second.seed);
  const scenario::ScenarioResult reused = scenario::ScenarioRunner::run_on(*sc, second);

  const scenario::ScenarioResult fresh = scenario::ScenarioRunner::run(second);
  EXPECT_EQ(fresh, reused);
  EXPECT_EQ(reused.shard_stats.size(), 2u);
}

TEST(ShardedReset, GeometryChangeRebuildsAndStaysExact) {
  // 2 shards -> 3 shards forces the network-rebuild path (handlers capture
  // the id->group stride); the result must still match fresh construction.
  const scenario::ScenarioSpec first = sharded_spec(41, 2);
  scenario::ScenarioSpec second = sharded_spec(42, 3);

  auto sc = scenario::ScenarioRunner::materialize_sharded(first);
  (void)scenario::ScenarioRunner::run_on(*sc, first);

  shard::ShardedConfig next;
  next.shards = second.shards;
  next.partition = second.partition_mode;
  next.group = cluster::make_dynatune_config(second.servers, second.seed);
  next.group.links = net::ConditionSchedule::constant(
      scenario::TopologySpec::constant(40ms, 1ms, 0.005).base);
  sc->reset(std::move(next));
  const scenario::ScenarioResult reused = scenario::ScenarioRunner::run_on(*sc, second);

  const scenario::ScenarioResult fresh = scenario::ScenarioRunner::run(second);
  EXPECT_EQ(fresh, reused);
  EXPECT_EQ(reused.shard_stats.size(), 3u);
}

TEST(ShardedSweep, ByteIdenticalAcrossThreadCountsAndReuse) {
  scenario::SweepSpec sweep;
  sweep.base = sharded_spec(0);
  sweep.variants = {scenario::Variant::Raft, scenario::Variant::Dynatune};
  sweep.sizes = {3};
  sweep.seeds = 3;
  sweep.master_seed = 99;

  sweep.reuse_substrate = false;
  sweep.threads = 1;
  const auto reference = scenario::ScenarioRunner::run_sweep(sweep);
  ASSERT_EQ(reference.size(), 6u);
  for (const auto& r : reference) ASSERT_EQ(r.shard_stats.size(), 2u);

  for (const unsigned threads : {1u, 2u, 8u}) {
    for (const bool reuse : {false, true}) {
      sweep.threads = threads;
      sweep.reuse_substrate = reuse;
      const auto got = scenario::ScenarioRunner::run_sweep(sweep);
      ASSERT_EQ(got.size(), reference.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], reference[i])
            << "threads=" << threads << " reuse=" << reuse << " cell " << i;
      }
    }
  }
}

TEST(ShardedSweep, GroupSizeAxisReusesOneSlotAcrossGeometries) {
  // A sweep over two group sizes runs back to back on one worker at
  // threads=1, so the second cell hits the sharded slot's geometry-change
  // reset (network rebuild) rather than the in-place path — and must still
  // match fresh construction exactly.
  scenario::SweepSpec sweep;
  sweep.base = sharded_spec(0);
  sweep.variants = {scenario::Variant::Raft};
  sweep.sizes = {3, 5};
  sweep.seeds = 2;
  sweep.master_seed = 7;
  sweep.threads = 1;

  sweep.reuse_substrate = false;
  const auto fresh = scenario::ScenarioRunner::run_sweep(sweep);
  sweep.reuse_substrate = true;
  const auto reused = scenario::ScenarioRunner::run_sweep(sweep);
  ASSERT_EQ(fresh.size(), 4u);
  ASSERT_EQ(fresh.size(), reused.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(fresh[i], reused[i]) << "cell " << i;
    EXPECT_EQ(fresh[i].shard_stats.size(), 2u);
  }
}

// ---- Kilo-node geometry (block-diagonal link table) --------------------------------

scenario::ScenarioSpec kilo_spec(std::uint64_t seed, std::size_t shards) {
  // 32 groups x 33 servers = 1056 nodes: every inter-group client pair rides
  // the sparse cross-tile path, and each trial reset exercises the
  // epoch-stamp contract over a thousand-node substrate.
  scenario::ScenarioSpec spec;
  spec.name = "kilo";
  spec.variant = scenario::Variant::Dynatune;
  spec.servers = 33;
  spec.shards = shards;
  spec.seed = seed;
  spec.topology = scenario::TopologySpec::constant(40ms, 1ms, 0.005);
  wl::MixConfig mix;
  mix.clients = 4;
  mix.get_ratio = 0.3;
  mix.duration = 1s;
  spec.workload = scenario::WorkloadPlan::closed_loop(mix);
  return spec;
}

TEST(KiloSharded, SweepByteIdenticalAcrossThreadCountsAndReuse) {
  scenario::SweepSpec sweep;
  sweep.base = kilo_spec(0, 32);
  sweep.variants = {scenario::Variant::Dynatune};
  sweep.sizes = {33};
  sweep.seeds = 2;
  sweep.master_seed = 205;

  sweep.reuse_substrate = false;
  sweep.threads = 1;
  const auto reference = scenario::ScenarioRunner::run_sweep(sweep);
  ASSERT_EQ(reference.size(), 2u);
  for (const auto& r : reference) ASSERT_EQ(r.shard_stats.size(), 32u);

  for (const unsigned threads : {1u, 2u, 8u}) {
    for (const bool reuse : {false, true}) {
      sweep.threads = threads;
      sweep.reuse_substrate = reuse;
      const auto got = scenario::ScenarioRunner::run_sweep(sweep);
      ASSERT_EQ(got.size(), reference.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], reference[i])
            << "threads=" << threads << " reuse=" << reuse << " cell " << i;
      }
    }
  }
}

TEST(KiloSharded, GeometryChangeRebuildsAtKiloScale) {
  // Shrinking 32 -> 16 groups at 33 servers each changes the tiled geometry,
  // which the grouped-mode reset precondition forbids in place: the slot must
  // rebuild the network — and still match fresh construction bit for bit.
  const scenario::ScenarioSpec first = kilo_spec(61, 32);
  scenario::ScenarioSpec second = kilo_spec(62, 16);

  auto sc = scenario::ScenarioRunner::materialize_sharded(first);
  (void)scenario::ScenarioRunner::run_on(*sc, first);

  shard::ShardedConfig next;
  next.shards = second.shards;
  next.partition = second.partition_mode;
  next.group = cluster::make_dynatune_config(second.servers, second.seed);
  next.group.links = net::ConditionSchedule::constant(
      scenario::TopologySpec::constant(40ms, 1ms, 0.005).base);
  sc->reset(std::move(next));
  const scenario::ScenarioResult reused = scenario::ScenarioRunner::run_on(*sc, second);

  const scenario::ScenarioResult fresh = scenario::ScenarioRunner::run(second);
  EXPECT_EQ(fresh, reused);
  EXPECT_EQ(reused.shard_stats.size(), 16u);
}

TEST(ShardedSpec, SingleShardPathIsUntouched) {
  // shards=1 dispatches down the classic single-cluster path: identical
  // results to a spec that predates the shard knobs, no shard stats.
  scenario::ScenarioSpec spec = sharded_spec(17);
  spec.shards = 1;
  const scenario::ScenarioResult r = scenario::ScenarioRunner::run(spec);
  EXPECT_TRUE(r.shard_stats.empty());
  scenario::ScenarioSpec again = sharded_spec(17);
  again.shards = 1;
  again.partition_mode = shard::PartitionMode::Range;  // ignored at shards=1
  EXPECT_EQ(scenario::ScenarioRunner::run(again), r);
}

}  // namespace
}  // namespace dyna
