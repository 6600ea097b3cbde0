// Raft safety invariants under a randomized nemesis.
//
// Each parameterized case runs a 5-server cluster under continuous client
// load while a nemesis randomly pauses/resumes nodes, crashes/restarts them
// and partitions/heals links. After healing and quiescence we assert the
// four classic Raft safety properties:
//   1. Election Safety — at most one leader per term
//   2. Log Matching — logs agree on every (index, term) they share
//   3. Leader Completeness / commit durability — committed entries survive
//   4. State Machine Safety — replicas apply identical sequences
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "cluster/cluster.hpp"
#include "kvstore/client.hpp"
#include "raft/observer.hpp"

namespace dyna {
namespace {

using namespace std::chrono_literals;
using cluster::Cluster;

/// Records every committed entry per node, in apply order.
class CommitTracker final : public raft::Observer {
 public:
  struct Commit {
    raft::LogIndex index;
    raft::Term term;
    std::string payload;
  };

  void on_entry_committed(NodeId node, const raft::LogEntry& entry, TimePoint) override {
    auto& seq = commits_[node];
    if (!seq.empty() && entry.index != 1) {
      // Apply order must be gapless and monotone on every replica. A jump
      // back to index 1 is a crash-restart replaying the durable log.
      ASSERT_EQ(entry.index, seq.back().index + 1) << "apply gap on node " << node;
    }
    seq.push_back({entry.index, entry.term, entry.command.payload});
  }

  [[nodiscard]] const std::map<NodeId, std::vector<Commit>>& commits() const { return commits_; }

 private:
  std::map<NodeId, std::vector<Commit>> commits_;
};

struct NemesisState {
  enum class Status { Up, Paused, Crashed };
  std::vector<Status> status;
  std::set<std::pair<NodeId, NodeId>> blocked;
};

class SafetySweep : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(SafetySweep, InvariantsHoldUnderNemesis) {
  const auto [seed, dynatune] = GetParam();
  CommitTracker tracker;
  cluster::ClusterConfig cfg = dynatune ? cluster::make_dynatune_config(5, seed)
                                        : cluster::make_raft_config(5, seed);
  cfg.observers.push_back(&tracker);
  net::LinkCondition link;
  link.rtt = 30ms;
  link.jitter = 3ms;
  link.loss = 0.01;  // background datagram loss to exercise those paths
  cfg.links = net::ConditionSchedule::constant(link);
  Cluster c(std::move(cfg));
  Rng rng(derive_seed(seed, 0x5AFE));
  ASSERT_TRUE(c.await_leader(60s));

  // Continuous client load (stopped before the final convergence check).
  kv::KvClient client(c.sim(), c.network(), c.server_ids(), c.fork_rng(0xC1));
  int key = 0;
  bool pumping = true;
  std::function<void()> pump = [&] {
    if (!pumping) return;
    client.put("key" + std::to_string(key % 40), "v" + std::to_string(key), nullptr);
    ++key;
    c.sim().schedule_after(20ms, pump);
  };
  c.sim().schedule_after(0ms, pump);

  NemesisState nem;
  nem.status.assign(c.size(), NemesisState::Status::Up);
  auto disrupted = [&] {
    std::size_t n = 0;
    for (const auto s : nem.status) {
      if (s != NemesisState::Status::Up) ++n;
    }
    return n;
  };

  // 90 simulated seconds of mayhem.
  for (int step = 0; step < 180; ++step) {
    c.sim().run_for(500ms);
    const NodeId victim = static_cast<NodeId>(rng.uniform_index(c.size()));
    const auto idx = static_cast<std::size_t>(victim);
    switch (nem.status[idx]) {
      case NemesisState::Status::Up: {
        const double dice = rng.uniform();
        if (dice < 0.25 && disrupted() < 2) {
          c.pause(victim);
          nem.status[idx] = NemesisState::Status::Paused;
        } else if (dice < 0.40 && disrupted() < 2) {
          c.crash(victim);
          nem.status[idx] = NemesisState::Status::Crashed;
        } else if (dice < 0.60) {
          // Toggle a random directed link block.
          const NodeId other = static_cast<NodeId>(rng.uniform_index(c.size()));
          if (other != victim) {
            const auto pair = std::make_pair(victim, other);
            const bool blocked = nem.blocked.contains(pair);
            c.network().set_blocked(victim, other, !blocked);
            if (blocked) {
              nem.blocked.erase(pair);
            } else {
              nem.blocked.insert(pair);
            }
          }
        }
        break;
      }
      case NemesisState::Status::Paused:
        if (rng.uniform() < 0.5) {
          c.resume(victim);
          nem.status[idx] = NemesisState::Status::Up;
        }
        break;
      case NemesisState::Status::Crashed:
        if (rng.uniform() < 0.5) {
          c.restart(victim);
          nem.status[idx] = NemesisState::Status::Up;
        }
        break;
    }
  }

  // Heal everything and quiesce.
  for (std::size_t i = 0; i < c.size(); ++i) {
    const auto id = static_cast<NodeId>(i);
    if (nem.status[i] == NemesisState::Status::Paused) c.resume(id);
    if (nem.status[i] == NemesisState::Status::Crashed) c.restart(id);
  }
  for (const auto& [a, b] : nem.blocked) c.network().set_blocked(a, b, false);
  ASSERT_TRUE(c.await_leader(120s));
  c.sim().run_for(20s);
  pumping = false;  // stop the load, then let the cluster fully quiesce
  c.sim().run_for(10s);

  // ---- 1. Election Safety ----
  std::map<raft::Term, NodeId> leader_of_term;
  for (const auto& e : c.probe().leaders()) {
    const auto it = leader_of_term.find(e.term);
    if (it != leader_of_term.end()) {
      EXPECT_EQ(it->second, e.leader) << "two leaders in term " << e.term;
    }
    leader_of_term[e.term] = e.leader;
  }

  // ---- 2. Log Matching ----
  for (const NodeId a : c.server_ids()) {
    for (const NodeId b : c.server_ids()) {
      if (a >= b) continue;
      const auto& la = c.node(a).log();
      const auto& lb = c.node(b).log();
      const std::size_t n = std::min(la.size(), lb.size());
      for (std::size_t i = n; i-- > 0;) {
        if (la[i].term == lb[i].term) {
          // Same (index, term) => identical entry AND identical prefix.
          ASSERT_EQ(la[i].command, lb[i].command) << "log mismatch at " << i + 1;
          for (std::size_t j = 0; j < i; ++j) {
            ASSERT_EQ(la[j].term, lb[j].term) << "prefix term mismatch at " << j + 1;
            ASSERT_EQ(la[j].command, lb[j].command) << "prefix mismatch at " << j + 1;
          }
          break;
        }
      }
    }
  }

  // ---- 3+4. Commit durability & State Machine Safety ----
  // If any replica ever applied entry e at index i, no replica may apply a
  // different entry at i — across the whole run, including crash-restart
  // replays.
  std::map<raft::LogIndex, std::pair<raft::Term, std::string>> applied_at;
  for (const auto& [node, seq] : tracker.commits()) {
    for (const auto& commit : seq) {
      const auto [it, inserted] =
          applied_at.try_emplace(commit.index, commit.term, commit.payload);
      if (!inserted) {
        ASSERT_EQ(it->second.first, commit.term)
            << "node " << node << " committed different term at " << commit.index;
        ASSERT_EQ(it->second.second, commit.payload)
            << "node " << node << " committed different payload at " << commit.index;
      }
    }
  }

  // Final replicas agree byte-for-byte.
  const NodeId ref = c.server_ids().front();
  for (const NodeId id : c.server_ids()) {
    EXPECT_TRUE(c.state_machine(id).same_contents(c.state_machine(ref))) << "node " << id;
    EXPECT_EQ(c.state_machine(id).revision(), c.state_machine(ref).revision()) << "node " << id;
    EXPECT_EQ(c.node(id).commit_index(), c.node(ref).commit_index()) << "node " << id;
  }

  // Liveness: the healed cluster served traffic.
  EXPECT_GT(client.completed(), 0u);
}

INSTANTIATE_TEST_SUITE_P(NemesisRuns, SafetySweep,
                         ::testing::Combine(::testing::Values(1ULL, 2ULL, 3ULL, 4ULL, 5ULL,
                                                              6ULL, 7ULL, 8ULL),
                                            ::testing::Bool()));

}  // namespace
}  // namespace dyna
