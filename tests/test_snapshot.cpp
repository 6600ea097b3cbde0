// Snapshot compaction and InstallSnapshot: log-level compaction mechanics,
// deterministic state-machine serialization, cluster-level catch-up across
// the compaction point, and exact-suffix recovery after crash/restart.
//
// The invariants under test:
//   * compact_to drops whole segments only — views handed out before
//     compaction stay valid, and the straddling run's slice bookkeeping
//     advances without touching the segment;
//   * snapshot() is deterministic: equal logical states serialize
//     byte-identically regardless of the history that produced them;
//   * a follower behind the compaction point (paused or crashed across it)
//     converges through InstallSnapshot, not full replay;
//   * restart applies exactly (snapshot_index, commit] — once;
//   * Cluster::restart over log-discarding storage is rejected loudly;
//   * crash/restart sweeps remain bit-identical across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <vector>

#include "cluster/cluster.hpp"
#include "kvstore/command.hpp"
#include "kvstore/state_machine.hpp"
#include "raft/log.hpp"
#include "scenario/runner.hpp"

namespace dyna {
namespace {

using namespace std::chrono_literals;
using cluster::Cluster;

raft::Command make_cmd(const std::string& key, const std::string& value) {
  raft::Command cmd;
  cmd.payload = kv::encode(kv::KvCommand{kv::Op::Put, key, value, {}});
  return cmd;
}

raft::LogEntry entry_of(raft::Term term, raft::LogIndex index, std::string payload) {
  raft::LogEntry e;
  e.term = term;
  e.index = index;
  e.command.payload = std::move(payload);
  return e;
}

// ---- RaftLog compaction mechanics --------------------------------------------------

TEST(LogCompaction, CompactDropsPrefixAndKeepsViewsValid) {
  raft::RaftLog log;
  for (raft::LogIndex i = 1; i <= 10; ++i) log.append(entry_of(1, i, "p" + std::to_string(i)));

  // A view over the whole log seals the tail; it must survive compaction.
  raft::EntryView whole = log.view(1, 10);
  ASSERT_EQ(whole.size(), 10u);

  log.compact_to(6, 1);
  EXPECT_EQ(log.compacted_to(), 6u);
  EXPECT_EQ(log.compacted_term(), 1u);
  EXPECT_EQ(log.first_index(), 7u);
  EXPECT_EQ(log.last_index(), 10u);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_FALSE(log.empty());
  EXPECT_EQ(log.term_at(6), 1u);  // the compaction point stays addressable
  for (raft::LogIndex i = 7; i <= 10; ++i) {
    EXPECT_EQ(log.entry(i).index, i);
    EXPECT_EQ(log.entry(i).command.payload, "p" + std::to_string(i));
  }

  // The pre-compaction view still reads the dropped prefix (its segment is
  // whole and alive — compaction never splits segments).
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(whole[i].index, i + 1);
    EXPECT_EQ(whole[i].command.payload, "p" + std::to_string(i + 1));
  }

  // A fresh view over the live suffix works and appends continue at the end.
  raft::EntryView suffix = log.view(7, 4);
  EXPECT_EQ(suffix.first_index(), 7u);
  EXPECT_EQ(suffix.last_index(), 10u);
  log.append(entry_of(2, 11, "p11"));
  EXPECT_EQ(log.back().index, 11u);
}

TEST(LogCompaction, CompactIntoOpenTailSealsAndTrims) {
  raft::RaftLog log;
  for (raft::LogIndex i = 1; i <= 5; ++i) log.append(entry_of(1, i, "t" + std::to_string(i)));
  // No views taken: everything lives in the open tail. Compacting into it
  // seals the tail and trims the straddling run's slice.
  log.compact_to(3, 1);
  EXPECT_EQ(log.first_index(), 4u);
  EXPECT_EQ(log.last_index(), 5u);
  EXPECT_EQ(log.entry(4).command.payload, "t4");
  EXPECT_EQ(log.entry(5).command.payload, "t5");
  log.append(entry_of(1, 6, "t6"));
  EXPECT_EQ(log.view(4, 3).last_index(), 6u);
}

TEST(LogCompaction, TruncateAfterCompactWithViewsOutstanding) {
  raft::RaftLog log;
  for (raft::LogIndex i = 1; i <= 8; ++i) log.append(entry_of(1, i, "x" + std::to_string(i)));
  raft::EntryView pre = log.view(3, 5);  // [3, 7], seals the tail
  log.compact_to(4, 1);

  // Conflict resolution above the snapshot line, with the view alive.
  log.truncate_from(6);
  EXPECT_EQ(log.last_index(), 5u);
  EXPECT_EQ(log.first_index(), 5u);
  EXPECT_EQ(log.entry(5).command.payload, "x5");

  // The new leader's entries overwrite the cut suffix.
  log.append(entry_of(3, 6, "y6"));
  EXPECT_EQ(log.term_at(6), 3u);
  EXPECT_EQ(log.term_at(4), 1u);  // compaction point term is remembered

  // The view still reads what it aliased at take time.
  ASSERT_EQ(pre.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(pre[i].command.payload, "x" + std::to_string(i + 3));
  }
}

TEST(LogCompaction, InstallReplacesEverything) {
  raft::RaftLog log;
  for (raft::LogIndex i = 1; i <= 6; ++i) log.append(entry_of(2, i, "old"));
  raft::EntryView keepalive = log.view(1, 6);

  log.install(100, 7);
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.compacted_to(), 100u);
  EXPECT_EQ(log.first_index(), 101u);
  EXPECT_EQ(log.last_index(), 100u);
  EXPECT_EQ(log.term_at(100), 7u);

  log.append(entry_of(7, 101, "new"));
  EXPECT_EQ(log.entry(101).command.payload, "new");
  EXPECT_EQ(keepalive.size(), 6u);  // released segments outlive the install
  EXPECT_EQ(keepalive[0].command.payload, "old");
}

TEST(LogCompaction, AssignWithDurableCompactionLine) {
  std::vector<raft::LogEntry> suffix;
  for (raft::LogIndex i = 41; i <= 45; ++i) suffix.push_back(entry_of(4, i, "s"));
  raft::RaftLog log;
  log.append(entry_of(1, 1, "stale"));  // recovery replaces whatever was here
  log.assign(40, 3, suffix);
  EXPECT_EQ(log.compacted_to(), 40u);
  EXPECT_EQ(log.compacted_term(), 3u);
  EXPECT_EQ(log.first_index(), 41u);
  EXPECT_EQ(log.last_index(), 45u);
  EXPECT_EQ(log.term_at(40), 3u);
  EXPECT_EQ(log.entry(43).index, 43u);
}

/// Randomized append/truncate/view/compact script against a reference
/// vector holding the full history. After every step the live range must
/// match the reference, and every view taken must keep matching the copy
/// that was current at take time — including views whose span was later
/// compacted away entirely.
TEST(LogCompaction, RandomizedScriptWithCompactionMatchesReference) {
  for (const std::uint64_t seed : {101ULL, 202ULL, 303ULL}) {
    Rng rng(seed);
    raft::RaftLog log;
    std::vector<raft::LogEntry> ref;  // full history, index i at ref[i-1]
    raft::LogIndex compacted = 0;
    raft::Term term = 1;

    struct TakenView {
      raft::EntryView view;
      std::vector<raft::LogEntry> copy;
    };
    std::vector<TakenView> taken;

    const auto live = [&]() -> std::size_t { return ref.size() - compacted; };

    for (int step = 0; step < 500; ++step) {
      const double dice = rng.uniform();
      if (dice < 0.40 || live() == 0) {
        const std::size_t batch = 1 + rng.uniform_index(4);
        for (std::size_t b = 0; b < batch; ++b) {
          auto e = entry_of(term, ref.size() + 1, "p" + std::to_string(step));
          ref.push_back(e);
          log.append(std::move(e));
        }
      } else if (dice < 0.55) {
        // Truncate somewhere above the snapshot line.
        const raft::LogIndex cut = compacted + 1 + rng.uniform_index(live());
        ref.resize(cut - 1);
        log.truncate_from(cut);
        ++term;
      } else if (dice < 0.75) {
        // View over a random live span.
        const raft::LogIndex first = compacted + 1 + rng.uniform_index(live());
        const std::size_t count = 1 + rng.uniform_index(ref.size() - first + 1);
        raft::EntryView v = log.view(first, count);
        std::vector<raft::LogEntry> copy(ref.begin() + static_cast<std::ptrdiff_t>(first - 1),
                                         ref.begin() +
                                             static_cast<std::ptrdiff_t>(first - 1 + count));
        ASSERT_EQ(v.size(), copy.size());
        taken.push_back({std::move(v), std::move(copy)});
      } else {
        // Compact to a random live index (a snapshot landed there).
        const raft::LogIndex c = compacted + 1 + rng.uniform_index(live());
        log.compact_to(c, ref[c - 1].term);
        compacted = c;
      }

      ASSERT_EQ(log.compacted_to(), compacted) << "step " << step;
      ASSERT_EQ(log.size(), live()) << "step " << step;
      for (raft::LogIndex i = compacted + 1; i <= ref.size(); ++i) {
        ASSERT_EQ(log.entry(i), ref[i - 1]) << "step " << step << " index " << i;
      }
      if (compacted > 0) {
        ASSERT_EQ(log.term_at(compacted), ref[compacted - 1].term) << "step " << step;
      }
    }

    for (const TakenView& t : taken) {
      ASSERT_EQ(t.view.size(), t.copy.size());
      for (std::size_t i = 0; i < t.copy.size(); ++i) {
        ASSERT_EQ(t.view[i], t.copy[i]);
      }
    }
  }
}

// ---- State-machine serialization ---------------------------------------------------

TEST(KvSnapshot, RoundTripRestoresStateAndRevision) {
  kv::KvStateMachine a;
  a.apply(kv::encode(kv::KvCommand{kv::Op::Put, "alpha", "1", {}}));
  a.apply(kv::encode(kv::KvCommand{kv::Op::Put, "beta", "2", {}}));
  a.apply(kv::encode(kv::KvCommand{kv::Op::Put, "alpha", "3", {}}));
  a.apply(kv::encode(kv::KvCommand{kv::Op::Del, "beta", "", {}}));
  const std::string blob = a.snapshot();

  kv::KvStateMachine b;
  b.apply(kv::encode(kv::KvCommand{kv::Op::Put, "junk", "x", {}}));  // overwritten
  b.restore(blob);
  EXPECT_EQ(b.revision(), a.revision());
  EXPECT_EQ(b.size(), a.size());
  EXPECT_EQ(b.get("alpha"), "3");
  EXPECT_FALSE(b.get("beta").has_value());
  EXPECT_FALSE(b.get("junk").has_value());
  // The restored machine's own snapshot is byte-identical (it is shipped to
  // other replicas and compared across them).
  EXPECT_EQ(b.snapshot(), blob);
}

TEST(KvSnapshot, EqualStatesSerializeIdenticallyWhateverTheHistory) {
  // Same logical state {a=1, b=2} at revision 4, reached through different
  // insertion/deletion orders — the store's entry order differs, the blobs
  // must not.
  kv::KvStateMachine first;
  first.apply(kv::encode(kv::KvCommand{kv::Op::Put, "a", "1", {}}));
  first.apply(kv::encode(kv::KvCommand{kv::Op::Put, "b", "2", {}}));
  first.apply(kv::encode(kv::KvCommand{kv::Op::Put, "c", "3", {}}));
  first.apply(kv::encode(kv::KvCommand{kv::Op::Del, "c", "", {}}));

  kv::KvStateMachine second;
  second.apply(kv::encode(kv::KvCommand{kv::Op::Put, "c", "9", {}}));
  second.apply(kv::encode(kv::KvCommand{kv::Op::Put, "b", "2", {}}));
  second.apply(kv::encode(kv::KvCommand{kv::Op::Del, "c", "", {}}));
  second.apply(kv::encode(kv::KvCommand{kv::Op::Put, "a", "1", {}}));

  EXPECT_EQ(first.snapshot(), second.snapshot());
}

// ---- Cluster-level compaction ------------------------------------------------------

cluster::ClusterConfig snapshot_config(std::size_t servers, std::uint64_t seed,
                                       std::size_t threshold, std::size_t trailing) {
  cluster::ClusterConfig cfg = cluster::make_raft_config(servers, seed);
  cfg.raft.snapshot_threshold = threshold;
  cfg.raft.snapshot_trailing = trailing;
  return cfg;
}

TEST(SnapshotCompaction, BoundsEveryReplicasLog) {
  Cluster c(snapshot_config(5, 21, /*threshold=*/50, /*trailing=*/10));
  ASSERT_TRUE(c.await_leader(30s));
  const NodeId leader = c.current_leader();
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(c.node(leader).submit(make_cmd("k" + std::to_string(i % 40), "v")).has_value());
    if (i % 25 == 0) c.sim().run_for(200ms);
  }
  c.sim().run_for(5s);

  EXPECT_GT(c.node(leader).snapshots_taken(), 0u);
  for (const NodeId id : c.server_ids()) {
    // Live log stays within one threshold of the trailing buffer — bounded,
    // instead of the ~300 entries an uncompacted log would hold.
    EXPECT_LE(c.node(id).log().size(), 50u + 10u) << "node " << id;
    EXPECT_GT(c.node(id).first_log_index(), 1u) << "node " << id;
    EXPECT_EQ(c.node(id).commit_index(), c.node(leader).commit_index()) << "node " << id;
    EXPECT_EQ(c.state_machine(id).revision(), c.state_machine(leader).revision());
    EXPECT_EQ(c.state_machine(id).size(), 40u) << "node " << id;
  }
}

TEST(SnapshotCompaction, CompactionOffByDefault) {
  Cluster c(cluster::make_raft_config(3, 22));
  ASSERT_TRUE(c.await_leader(30s));
  const NodeId leader = c.current_leader();
  for (int i = 0; i < 120; ++i) c.node(leader).submit(make_cmd("k" + std::to_string(i), "v"));
  c.sim().run_for(5s);
  for (const NodeId id : c.server_ids()) {
    EXPECT_EQ(c.node(id).snapshots_taken(), 0u) << "node " << id;
    EXPECT_EQ(c.node(id).first_log_index(), 1u) << "node " << id;
    EXPECT_EQ(c.node(id).snapshot_index(), 0u) << "node " << id;
  }
}

TEST(SnapshotCompaction, FarBehindFollowerCatchesUpViaInstallSnapshot) {
  Cluster c(snapshot_config(5, 23, /*threshold=*/40, /*trailing=*/8));
  ASSERT_TRUE(c.await_leader(30s));
  const NodeId leader = c.current_leader();
  const NodeId lagger = leader == 0 ? 1 : 0;
  // Isolate the lagger with dropped (not parked) traffic: on heal nothing
  // replays, so only a snapshot can bridge the compacted gap.
  for (const NodeId id : c.server_ids()) {
    if (id == lagger) continue;
    c.network().set_blocked(id, lagger, true);
    c.network().set_blocked(lagger, id, true);
  }

  // Push the leader far past the isolation point: it compacts entries the
  // lagger never saw, so plain AppendEntries can no longer bridge the gap.
  for (int i = 0; i < 200; ++i) {
    c.node(leader).submit(make_cmd("k" + std::to_string(i % 30), "v" + std::to_string(i)));
    if (i % 20 == 0) c.sim().run_for(200ms);
  }
  c.sim().run_for(3s);
  ASSERT_GT(c.node(leader).log().compacted_to(), c.node(lagger).last_log_index());

  for (const NodeId id : c.server_ids()) {
    if (id == lagger) continue;
    c.network().set_blocked(id, lagger, false);
    c.network().set_blocked(lagger, id, false);
  }
  c.sim().run_for(10s);

  EXPECT_EQ(c.node(lagger).commit_index(), c.node(leader).commit_index());
  EXPECT_EQ(c.state_machine(lagger).revision(), c.state_machine(leader).revision());
  EXPECT_EQ(c.state_machine(lagger).get("k0"), c.state_machine(leader).get("k0"));
  // The lagger holds a snapshot it never took itself: it was installed.
  EXPECT_GT(c.node(lagger).snapshot_index(), 0u);
  EXPECT_EQ(c.node(lagger).snapshots_taken(), 0u);
}

TEST(SnapshotCompaction, DurableImagesAuditCleanAtSharedIndex) {
  // One command per commit round, so every replica applies index by index
  // and compacts at the same indices. Once every replica has just
  // snapshotted, one follower is cut off and stays at the snapshot index,
  // while later writes to every key move the others' live state past their
  // durable images (which share values with it copy-on-write). The audit
  // meets each image with the cut-off replica's live state at its index.
  Cluster c(snapshot_config(5, 25, /*threshold=*/20, /*trailing=*/4));
  ASSERT_TRUE(c.await_leader(30s));
  const NodeId leader = c.current_leader();
  const auto put = [&](int i) {
    ASSERT_TRUE(c.node(leader)
                    .submit(make_cmd("k" + std::to_string(i % 9), "v" + std::to_string(i)))
                    .has_value());
    c.sim().run_for(300ms);  // a heartbeat carries the commit to every follower
  };
  const auto all_just_snapshotted = [&] {
    const auto ids = c.server_ids();
    return std::all_of(ids.begin(), ids.end(), [&](NodeId id) {
      return c.node(id).snapshot_index() > 0 &&
             c.node(id).snapshot_index() == c.node(id).last_applied();
    });
  };
  for (int i = 0; i < 100 && !all_just_snapshotted(); ++i) put(i);
  ASSERT_TRUE(all_just_snapshotted());
  const raft::LogIndex shared = c.node(leader).snapshot_index();

  const NodeId cut = leader == 0 ? 1 : 0;
  for (const NodeId id : c.server_ids()) {
    if (id == cut) continue;
    c.network().set_blocked(id, cut, true);
    c.network().set_blocked(cut, id, true);
  }
  for (int i = 0; i < 10; ++i) put(100 + i);  // every key, not enough to compact again
  c.sim().run_for(1s);

  ASSERT_EQ(c.node(cut).last_applied(), shared);
  ASSERT_TRUE(c.node(cut).running());
  for (const NodeId id : c.server_ids()) {
    if (id == cut) continue;
    EXPECT_EQ(c.node(id).snapshot_index(), shared) << "node " << id;
    EXPECT_GT(c.node(id).last_applied(), shared) << "node " << id;
  }
  EXPECT_EQ(c.audit_invariants(), 0u);
}

TEST(SnapshotCompaction, CrashedFollowerRecoversAcrossCompactionPoint) {
  Cluster c(snapshot_config(5, 24, /*threshold=*/40, /*trailing=*/8));
  ASSERT_TRUE(c.await_leader(30s));
  const NodeId leader = c.current_leader();
  const NodeId victim = leader == 0 ? 1 : 0;
  c.sim().run_for(1s);
  c.crash(victim);

  for (int i = 0; i < 200; ++i) {
    c.node(leader).submit(make_cmd("c" + std::to_string(i % 25), "v" + std::to_string(i)));
    if (i % 20 == 0) c.sim().run_for(200ms);
  }
  c.sim().run_for(3s);
  ASSERT_GT(c.node(leader).log().compacted_to(), 0u);

  c.restart(victim);
  c.sim().run_for(10s);

  EXPECT_EQ(c.node(victim).commit_index(), c.node(leader).commit_index());
  EXPECT_EQ(c.state_machine(victim).revision(), c.state_machine(leader).revision());
  EXPECT_EQ(c.state_machine(victim).size(), c.state_machine(leader).size());
  EXPECT_GT(c.node(victim).snapshot_index(), 0u);
}

/// Per-node apply ledger: every on_entry_committed lands here, in order.
class ApplyLedger final : public raft::Observer {
 public:
  void on_entry_committed(NodeId node, const raft::LogEntry& entry, TimePoint) override {
    applied_[node].push_back(entry.index);
  }
  [[nodiscard]] const std::vector<raft::LogIndex>& applied(NodeId node) {
    return applied_[node];
  }

 private:
  std::map<NodeId, std::vector<raft::LogIndex>> applied_;
};

TEST(SnapshotCompaction, RestartAppliesExactlyTheSuffixOnce) {
  ApplyLedger ledger;
  // Trailing is large enough that the leader never compacts past the
  // victim's log end while it is down — the restart recovers from the
  // victim's *own* snapshot plus normal AppendEntries catch-up.
  cluster::ClusterConfig cfg = snapshot_config(3, 25, /*threshold=*/20, /*trailing=*/50);
  cfg.observers.push_back(&ledger);
  Cluster c(cfg);
  ASSERT_TRUE(c.await_leader(30s));
  const NodeId leader = c.current_leader();
  const NodeId victim = leader == 0 ? 1 : 0;

  for (int i = 0; i < 60; ++i) {
    c.node(leader).submit(make_cmd("a" + std::to_string(i), "v"));
    if (i % 10 == 0) c.sim().run_for(200ms);
  }
  c.sim().run_for(2s);
  ASSERT_GT(c.node(victim).snapshots_taken(), 0u);  // it has its own snapshot
  c.crash(victim);

  for (int i = 0; i < 10; ++i) c.node(leader).submit(make_cmd("b" + std::to_string(i), "v"));
  c.sim().run_for(2s);

  const std::size_t applied_before = ledger.applied(victim).size();
  c.restart(victim);
  const raft::LogIndex snap = c.node(victim).snapshot_index();
  ASSERT_GT(snap, 0u);
  ASSERT_EQ(c.node(victim).last_applied(), snap);  // restored, not replayed
  c.sim().run_for(5s);

  const raft::LogIndex commit = c.node(victim).commit_index();
  ASSERT_EQ(commit, c.node(leader).commit_index());

  // Applied after restart: exactly snap+1 .. commit, each index once, in
  // order. Anything before snap came out of the snapshot blob; a replica
  // that replayed (or double-applied) any of it would diverge in revision.
  const auto& applied = ledger.applied(victim);
  ASSERT_GE(applied.size(), applied_before);
  const std::vector<raft::LogIndex> after(applied.begin() +
                                              static_cast<std::ptrdiff_t>(applied_before),
                                          applied.end());
  ASSERT_EQ(after.size(), static_cast<std::size_t>(commit - snap));
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i], snap + 1 + i) << "apply position " << i;
  }
  EXPECT_EQ(c.state_machine(victim).revision(), c.state_machine(leader).revision());
}

TEST(SnapshotCompaction, RestartOverLogDiscardingStorageThrows) {
  cluster::ClusterConfig cfg = cluster::make_raft_config(3, 26);
  cfg.durable_log = false;  // NullStorage: hard state survives, the log does not
  Cluster c(cfg);
  ASSERT_TRUE(c.await_leader(30s));
  const NodeId leader = c.current_leader();
  c.node(leader).submit(make_cmd("k", "v"));
  c.sim().run_for(1s);
  c.crash(leader);
  EXPECT_THROW(c.restart(leader), std::runtime_error);
}

// ---- Crash/restart scenarios through the sweep machinery ---------------------------

scenario::SweepSpec crash_restart_sweep(unsigned threads) {
  scenario::ScenarioSpec base;
  base.name = "crash-restart";
  base.servers = 5;
  base.topology = scenario::TopologySpec::constant(40ms, 2ms, 0.01);
  base.snapshot_threshold = 30;
  base.snapshot_trailing = 8;
  wl::RampConfig ramp;
  ramp.start_rps = 100;
  ramp.step_rps = 100;
  ramp.max_rps = 200;
  ramp.level_duration = 1s;
  base.workload = scenario::WorkloadPlan::open_loop_ramp(ramp);
  base.faults = scenario::FaultPlan::crash_restart_kills(2, 3s);

  scenario::SweepSpec sweep;
  sweep.base = std::move(base);
  sweep.sizes = {3, 5};
  sweep.seeds = 3;
  sweep.master_seed = 4242;
  sweep.threads = threads;
  return sweep;
}

TEST(SnapshotCompaction, CrashRestartSweepIsIdenticalAcrossThreadCounts) {
  const auto reference = scenario::ScenarioRunner::run_sweep(crash_restart_sweep(1));
  ASSERT_EQ(reference.size(), 6u);
  std::size_t ok = 0;
  for (const auto& r : reference) {
    EXPECT_TRUE(r.leader_elected);
    EXPECT_FALSE(r.levels.empty());
    for (const auto& f : r.failovers) ok += f.ok ? 1 : 0;
  }
  EXPECT_GT(ok, 0u);  // crashes were actually injected and survived

  for (const unsigned threads : {2u, 8u}) {
    const auto got = scenario::ScenarioRunner::run_sweep(crash_restart_sweep(threads));
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], reference[i]) << "threads=" << threads << " trial " << i;
    }
  }
}

}  // namespace
}  // namespace dyna
