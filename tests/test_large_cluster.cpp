// Large-cluster (n=33) election/failover determinism and shared-view
// replication exactness.
//
// The segment-store refactor must be invisible at the protocol level: a
// trial remains a pure function of its seed at every cluster size, sweeps
// stay bit-identical across thread counts, and the shared-view replication
// path must yield logs identical to what entry-by-entry copying would
// produce — including across randomized divergence/catch-up histories that
// exercise truncation while views of the old suffix are still alive.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "kvstore/command.hpp"
#include "raft/log.hpp"
#include "scenario/runner.hpp"
#include "test_support.hpp"

namespace dyna {
namespace {

using namespace std::chrono_literals;
using cluster::Cluster;

raft::Command make_cmd(const std::string& key, const std::string& value) {
  raft::Command cmd;
  cmd.payload = kv::encode(kv::KvCommand{kv::Op::Put, key, value, {}});
  return cmd;
}

// ---- n=33 election ----------------------------------------------------------------

TEST(LargeCluster, ElectsExactlyOneLeaderAt33) {
  Cluster c(cluster::make_raft_config(33, 1));
  ASSERT_TRUE(c.await_leader(60s));
  c.sim().run_for(3s);
  EXPECT_EQ(testutil::count_leaders(c), 1u);
  // Every follower knows the leader after a few heartbeat rounds.
  const NodeId leader = c.current_leader();
  for (const NodeId id : c.server_ids()) {
    EXPECT_EQ(c.node(id).leader_hint(), leader) << "node " << id;
  }
}

TEST(LargeCluster, DynatuneWarmsUpAndTunesAt33) {
  Cluster c(cluster::make_dynatune_config(33, 2));
  ASSERT_TRUE(c.await_leader(60s));
  c.sim().run_for(30s);  // minListSize samples on every path
  const NodeId leader = c.current_leader();
  std::size_t warmed = 0;
  for (const NodeId id : c.server_ids()) {
    if (id == leader) continue;
    if (testutil::policy_of(c, id).warmed_up()) ++warmed;
  }
  // The vast majority of the 32 measurement paths must be warmed up.
  EXPECT_GE(warmed, 28u);
}

// ---- n=33 determinism across runs and thread counts --------------------------------

scenario::SweepSpec failover_sweep(unsigned threads) {
  scenario::ScenarioSpec base;
  base.name = "n33-failover";
  base.servers = 33;
  base.topology = scenario::TopologySpec::constant(80ms);
  base.faults = scenario::FaultPlan::leader_kills(2, 5s);

  scenario::SweepSpec sweep;
  sweep.base = std::move(base);
  sweep.variants = {scenario::Variant::Raft, scenario::Variant::Dynatune};
  sweep.seeds = 3;
  sweep.master_seed = 77;
  sweep.threads = threads;
  return sweep;
}

TEST(LargeCluster, FailoverSweepIsIdenticalAcrossThreadCounts) {
  const auto serial = scenario::ScenarioRunner::run_sweep(failover_sweep(1));
  const auto parallel = scenario::ScenarioRunner::run_sweep(failover_sweep(4));
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_EQ(serial, parallel);  // full results, == over every sample series
  // And the trials actually measured something.
  std::size_t ok = 0;
  for (const auto& r : serial) {
    for (const auto& f : r.failovers) ok += f.ok ? 1 : 0;
  }
  EXPECT_GT(ok, 0u);
}

TEST(LargeCluster, SameSeedSameResultAt33) {
  scenario::ScenarioSpec spec;
  spec.name = "n33-repeat";
  spec.servers = 33;
  spec.seed = 1234;
  spec.variant = scenario::Variant::Dynatune;
  spec.topology = scenario::TopologySpec::constant(60ms, 3ms, 0.01);
  spec.faults = scenario::FaultPlan::leader_kills(1, 5s);
  const auto a = scenario::ScenarioRunner::run(spec);
  const auto b = scenario::ScenarioRunner::run(spec);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a.leader_elected);
}

// ---- Shared-view exactness: RaftLog vs the copying path ----------------------------

raft::LogEntry entry_of(raft::Term term, raft::LogIndex index, std::string payload) {
  raft::LogEntry e;
  e.term = term;
  e.index = index;
  e.command.payload = std::move(payload);
  return e;
}

/// Randomized append/truncate/view/adopt script: a RaftLog ("shared-view
/// path") against a plain std::vector<LogEntry> ("copying path"). After
/// every step the two must agree entry-for-entry, and every view taken —
/// including views whose suffix is later truncated away — must keep
/// matching the copy that was current when the view was taken.
TEST(SharedViewExactness, RandomizedScriptMatchesCopyingPath) {
  for (const std::uint64_t seed : {11ULL, 22ULL, 33ULL}) {
    Rng rng(seed);
    raft::RaftLog log;
    std::vector<raft::LogEntry> ref;  // the copying path
    raft::Term term = 1;

    struct TakenView {
      raft::EntryView view;
      std::vector<raft::LogEntry> copy;  // materialized at take time
    };
    std::vector<TakenView> taken;

    for (int step = 0; step < 400; ++step) {
      const double dice = rng.uniform();
      if (dice < 0.45 || ref.empty()) {
        // Append a small batch (a submit burst).
        const std::size_t batch = 1 + rng.uniform_index(4);
        for (std::size_t b = 0; b < batch; ++b) {
          auto e = entry_of(term, ref.size() + 1, "p" + std::to_string(step));
          ref.push_back(e);
          log.append(std::move(e));
        }
      } else if (dice < 0.60) {
        // Divergence: truncate a random suffix, bump the term (the new
        // leader's entries overwrite), possibly while views are alive.
        const raft::LogIndex cut = 1 + rng.uniform_index(ref.size());
        ref.resize(cut - 1);
        log.truncate_from(cut);
        ++term;
      } else if (dice < 0.85) {
        // Replication read: a view over a random span.
        const raft::LogIndex first = 1 + rng.uniform_index(ref.size());
        const std::size_t count = 1 + rng.uniform_index(ref.size() - first + 1);
        raft::EntryView v = log.view(first, count);
        std::vector<raft::LogEntry> copy(ref.begin() + static_cast<std::ptrdiff_t>(first - 1),
                                         ref.begin() +
                                             static_cast<std::ptrdiff_t>(first - 1 + count));
        ASSERT_EQ(v.size(), copy.size());
        taken.push_back({std::move(v), std::move(copy)});
      } else {
        // Catch-up adoption: a fresh suffix view appended to a second log
        // must land the same entries a copying follower would hold.
        const std::size_t count = 1 + rng.uniform_index(3);
        for (std::size_t b = 0; b < count; ++b) {
          auto e = entry_of(term, ref.size() + 1, "a" + std::to_string(step));
          ref.push_back(e);
          log.append(std::move(e));
        }
        raft::EntryView suffix = log.view(ref.size() - count + 1, count);
        raft::RaftLog follower;
        // Bring the follower level, then adopt the shared suffix.
        for (std::size_t i = 0; i < ref.size() - count; ++i) {
          follower.append(ref[i]);
        }
        follower.append_view(suffix);
        ASSERT_EQ(follower.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
          ASSERT_EQ(follower[i], ref[i]) << "adopted log diverged at " << i;
        }
      }

      // The log must equal the copying path after every step.
      ASSERT_EQ(log.size(), ref.size()) << "step " << step;
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(log[i], ref[i]) << "step " << step << " index " << i;
      }
    }

    // Every view still matches the snapshot of the copying path it aliased,
    // no matter what truncation did to the log afterwards (copy-on-write).
    for (const TakenView& t : taken) {
      ASSERT_EQ(t.view.size(), t.copy.size());
      for (std::size_t i = 0; i < t.copy.size(); ++i) {
        ASSERT_EQ(t.view[i], t.copy[i]);
      }
    }
  }
}

/// Cluster-level divergence/catch-up: partition a leader with a minority,
/// let both sides accumulate entries, heal, and require every replica to
/// converge onto a log identical to the leader's, entry by entry (what the
/// copying path produced by construction before the segment store).
TEST(SharedViewExactness, DivergenceCatchUpConvergesIdenticallyAt33) {
  Cluster c(cluster::make_raft_config(33, 5));
  ASSERT_TRUE(c.await_leader(60s));
  c.sim().run_for(2s);
  const NodeId old_leader = c.current_leader();

  // Minority: the leader plus 15 followers (16 < majority of 33).
  std::vector<NodeId> minority{old_leader};
  std::vector<NodeId> majority;
  for (const NodeId id : c.server_ids()) {
    if (id == old_leader) continue;
    if (minority.size() < 16) {
      minority.push_back(id);
    } else {
      majority.push_back(id);
    }
  }
  auto set_partition = [&](bool blocked) {
    for (const NodeId a : minority) {
      for (const NodeId b : majority) {
        c.network().set_blocked(a, b, blocked);
        c.network().set_blocked(b, a, blocked);
      }
    }
  };
  set_partition(true);

  // Minority side: uncommittable appends replicate to 15 followers.
  for (int i = 0; i < 8; ++i) {
    c.node(old_leader).submit(make_cmd("stale" + std::to_string(i), "x"));
  }
  c.sim().run_for(8s);

  // Majority side elects and commits fresh entries.
  raft::Term max_term = 0;
  for (const NodeId id : majority) max_term = std::max(max_term, c.node(id).term());
  NodeId new_leader = kNoNode;
  for (const NodeId id : majority) {
    if (c.node(id).is_leader() && c.node(id).term() == max_term) new_leader = id;
  }
  ASSERT_NE(new_leader, kNoNode);
  for (int i = 0; i < 8; ++i) {
    c.node(new_leader).submit(make_cmd("fresh" + std::to_string(i), "y"));
  }
  c.sim().run_for(3s);

  set_partition(false);
  c.sim().run_for(15s);

  // Full convergence: every node's log is entry-for-entry the leader's.
  const NodeId leader = c.current_leader();
  ASSERT_NE(leader, kNoNode);
  const auto& leader_log = c.node(leader).log();
  for (const NodeId id : c.server_ids()) {
    const auto& node_log = c.node(id).log();
    ASSERT_EQ(node_log.size(), leader_log.size()) << "node " << id;
    for (std::size_t i = 0; i < leader_log.size(); ++i) {
      ASSERT_EQ(node_log[i], leader_log[i]) << "node " << id << " entry " << i + 1;
    }
    EXPECT_FALSE(c.state_machine(id).get("stale0").has_value()) << "node " << id;
    EXPECT_EQ(c.state_machine(id).get("fresh0"), "y") << "node " << id;
  }
}

}  // namespace
}  // namespace dyna
