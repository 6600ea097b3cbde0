// InvariantChecker self-tests: the checker must actually fire when safety is
// broken (forged observer events, corrupted log entries, forked terms,
// diverged state machines) and must stay silent on healthy histories —
// including post-restart replay, which rewinds a node's apply watermark.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "cluster/cluster.hpp"
#include "kvstore/command.hpp"
#include "kvstore/state_machine.hpp"
#include "raft/invariant_checker.hpp"
#include "test_support.hpp"

namespace dyna {
namespace {

using namespace std::chrono_literals;
using raft::InvariantChecker;
using raft::LogEntry;
using testutil::start_cluster;

LogEntry make_entry(raft::LogIndex index, raft::Term term, std::string payload) {
  LogEntry e;
  e.index = index;
  e.term = term;
  e.command.payload = std::move(payload);
  return e;
}

// ---- Streaming checks -------------------------------------------------------------

TEST(InvariantChecker, ElectionSafetyFlagsTwoLeadersInOneTerm) {
  InvariantChecker chk;
  chk.on_leader_established(1, 5, TimePoint{});
  chk.on_leader_established(1, 5, TimePoint{});  // same leader again: fine
  EXPECT_TRUE(chk.ok());
  chk.on_leader_established(2, 5, TimePoint{});  // forked term
  EXPECT_FALSE(chk.ok());
  EXPECT_EQ(chk.count(), 1u);
  chk.on_leader_established(2, 6, TimePoint{});  // new term: fine
  EXPECT_EQ(chk.count(), 1u);
}

TEST(InvariantChecker, MonotonicApplyFlagsRegression) {
  InvariantChecker chk;
  chk.on_entry_committed(1, make_entry(1, 1, "a"), TimePoint{});
  chk.on_entry_committed(1, make_entry(2, 1, "b"), TimePoint{});
  chk.on_entry_committed(1, make_entry(5, 2, "c"), TimePoint{});  // gap: fine
  EXPECT_TRUE(chk.ok());
  chk.on_entry_committed(1, make_entry(4, 2, "d"), TimePoint{});  // regression
  EXPECT_EQ(chk.count(), 1u);
}

TEST(InvariantChecker, NodeRestartRewindsWatermarkSoReplayIsClean) {
  InvariantChecker chk;
  chk.on_entry_committed(1, make_entry(1, 1, "a"), TimePoint{});
  chk.on_entry_committed(1, make_entry(2, 1, "b"), TimePoint{});
  chk.on_node_started(1, TimePoint{});  // crash + restart: applies replay from 1
  chk.on_entry_committed(1, make_entry(1, 1, "a"), TimePoint{});
  chk.on_entry_committed(1, make_entry(2, 1, "b"), TimePoint{});
  EXPECT_TRUE(chk.ok());
}

TEST(InvariantChecker, ApplyDivergenceFlagsDifferentEntryAtSameIndex) {
  InvariantChecker chk;
  chk.on_entry_committed(1, make_entry(3, 2, "x"), TimePoint{});
  chk.on_entry_committed(2, make_entry(3, 2, "x"), TimePoint{});  // agrees: fine
  EXPECT_TRUE(chk.ok());
  chk.on_entry_committed(3, make_entry(3, 2, "y"), TimePoint{});  // payload differs
  EXPECT_EQ(chk.count(), 1u);
  InvariantChecker chk2;
  chk2.on_entry_committed(1, make_entry(3, 2, "x"), TimePoint{});
  chk2.on_entry_committed(2, make_entry(3, 4, "x"), TimePoint{});  // term differs
  EXPECT_EQ(chk2.count(), 1u);
}

TEST(InvariantChecker, FingerprintCoversTermPayloadAndConfigChange) {
  const LogEntry base = make_entry(1, 3, "cmd");
  LogEntry term_diff = base;
  term_diff.term = 4;
  LogEntry payload_diff = base;
  payload_diff.command.payload = "cmd2";
  LogEntry cfg_diff = base;
  cfg_diff.command.config_change = raft::ConfigChange::AddLearner;
  cfg_diff.command.config_target = 7;
  const std::uint64_t h = InvariantChecker::fingerprint(base);
  EXPECT_NE(h, InvariantChecker::fingerprint(term_diff));
  EXPECT_NE(h, InvariantChecker::fingerprint(payload_diff));
  EXPECT_NE(h, InvariantChecker::fingerprint(cfg_diff));
  EXPECT_EQ(h & 1, 1u);  // 0 is reserved for "unset"

  // Negative config targets (kNoNode is -1) are distinct from each other and
  // from their magnitudes.
  LogEntry neg_target = cfg_diff;
  neg_target.command.config_target = -7;
  EXPECT_NE(InvariantChecker::fingerprint(cfg_diff), InvariantChecker::fingerprint(neg_target));
  LogEntry other_neg = cfg_diff;
  other_neg.command.config_target = -8;
  EXPECT_NE(InvariantChecker::fingerprint(neg_target), InvariantChecker::fingerprint(other_neg));

  // Trailing zero bytes extend the length, so they count.
  EXPECT_NE(InvariantChecker::fingerprint(make_entry(1, 3, "")),
            InvariantChecker::fingerprint(make_entry(1, 3, std::string(1, '\0'))));
  EXPECT_NE(InvariantChecker::fingerprint(make_entry(1, 3, "a")),
            InvariantChecker::fingerprint(make_entry(1, 3, std::string("a\0", 2))));
  EXPECT_NE(InvariantChecker::fingerprint(make_entry(1, 3, "abcdefgh")),
            InvariantChecker::fingerprint(make_entry(1, 3, std::string("abcdefgh\0", 9))));
}

TEST(InvariantChecker, FingerprintSeesEveryPayloadByte) {
  // Lengths 0-80 cross every lane and tail boundary of the 32-byte stride.
  // A one-bit flip in the low or high bit of any byte must change the
  // fingerprint; every variant below is a distinct payload, so all of their
  // fingerprints must be distinct too.
  std::unordered_set<std::uint64_t> seen;
  std::size_t payloads = 0;
  const auto add = [&](const std::string& payload) {
    const std::uint64_t h = InvariantChecker::fingerprint(make_entry(1, 3, payload));
    EXPECT_EQ(h & 1, 1u);
    seen.insert(h);
    ++payloads;
  };
  for (std::size_t len = 0; len <= 80; ++len) {
    std::string base(len, '\0');
    for (std::size_t i = 0; i < len; ++i) base[i] = static_cast<char>('a' + i % 23);
    add(base);
    for (std::size_t pos = 0; pos < len; ++pos) {
      for (const unsigned char flip : {0x01, 0x80}) {
        std::string changed = base;
        changed[pos] = static_cast<char>(static_cast<unsigned char>(changed[pos]) ^ flip);
        add(changed);
      }
    }
  }
  EXPECT_EQ(seen.size(), payloads);
}

// ---- One digest per payload block -------------------------------------------------

/// `len` bytes that differ from position to position.
std::string patterned(std::size_t len) {
  std::string s(len, '\0');
  for (std::size_t i = 0; i < len; ++i) s[i] = static_cast<char>('a' + (i * 7) % 23);
  return s;
}

TEST(InvariantChecker, PayloadDigestIsTheHashOfItsBytes) {
  // Inline (<= 16 B) and shared payloads alike; a copy shares the block and
  // so its cached digest.
  for (const std::size_t len : {0, 1, 16, 17, 18'000}) {
    const raft::Payload p(patterned(len));
    const raft::Payload copy = p;  // NOLINT(performance-unnecessary-copy-initialization)
    EXPECT_EQ(p.digest(), hash::digest(p.view())) << "len " << len;
    EXPECT_EQ(p.digest(), p.digest()) << "len " << len;
    EXPECT_EQ(copy.digest(), hash::digest(patterned(len))) << "len " << len;
  }
}

TEST(InvariantChecker, RebuiltPayloadFingerprintsEqualBeforeAndAfterCaching) {
  // A replica whose entry holds its own block with the same bytes (a replay,
  // a re-encoding) must agree with the original, whichever block hashes
  // first.
  for (const std::size_t len : {5, 16, 17, 200, 18'000}) {
    const LogEntry original = make_entry(7, 2, patterned(len));
    LogEntry rebuilt = original;
    rebuilt.command.payload = raft::Payload(std::string(original.command.payload.view()));
    if (len > raft::Payload::kInline) {
      ASSERT_NE(rebuilt.command.payload.data(), original.command.payload.data());
    }
    // Before: the original block has not cached its digest yet.
    const std::uint64_t from_rebuilt = InvariantChecker::fingerprint(rebuilt);
    EXPECT_EQ(from_rebuilt, InvariantChecker::fingerprint(original)) << "len " << len;
    // After: both blocks now hold a cached digest.
    EXPECT_EQ(InvariantChecker::fingerprint(original), from_rebuilt) << "len " << len;
    LogEntry rebuilt_late = original;
    rebuilt_late.command.payload = raft::Payload(std::string(original.command.payload.view()));
    EXPECT_EQ(InvariantChecker::fingerprint(rebuilt_late), from_rebuilt) << "len " << len;
  }
}

TEST(InvariantChecker, FlippedByteTripsApplyDivergenceAfterLeaderBlockCached) {
  // The leader applies a group-commit-sized entry first, which caches its
  // block's digest; followers sharing the block agree. A follower entry at
  // the same index whose bytes differ in one bit anywhere still diverges.
  const LogEntry leader = make_entry(9, 3, patterned(18'000));
  InvariantChecker chk;
  chk.on_entry_committed(0, leader, TimePoint{});
  const LogEntry shared = leader;
  chk.on_entry_committed(1, shared, TimePoint{});
  EXPECT_TRUE(chk.ok());
  std::uint64_t expected = 0;
  NodeId follower = 2;
  for (const std::size_t pos : {std::size_t{0}, std::size_t{8'999}, std::size_t{17'999}}) {
    std::string bytes(leader.command.payload.view());
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0x01);
    LogEntry bad = leader;
    bad.command.payload = std::move(bytes);
    chk.on_entry_committed(follower++, bad, TimePoint{});
    ++expected;
    ASSERT_EQ(chk.count(), expected) << "flip at " << pos;
    EXPECT_NE(chk.violations().back().what.find("apply divergence"), std::string::npos);
  }
}

// ---- End-of-trial audit helpers ---------------------------------------------------

TEST(InvariantChecker, AuditLogEntryFlagsCorruptedFollowerLog) {
  InvariantChecker chk;
  chk.on_entry_committed(1, make_entry(4, 2, "good"), TimePoint{});
  chk.audit_log_entry(2, make_entry(4, 2, "good"));
  EXPECT_TRUE(chk.ok());
  chk.audit_log_entry(3, make_entry(4, 2, "corrupt"));
  EXPECT_EQ(chk.count(), 1u);
}

TEST(InvariantChecker, AuditLeaderCoverageFlagsTruncatedLeader) {
  InvariantChecker chk;
  chk.on_entry_committed(1, make_entry(10, 2, "a"), TimePoint{});
  chk.audit_leader_coverage(2, 10);  // covers: fine
  EXPECT_TRUE(chk.ok());
  chk.audit_leader_coverage(2, 9);  // leader's log ends before a committed index
  EXPECT_EQ(chk.count(), 1u);
}

TEST(InvariantChecker, AuditAppliedStateFlagsDivergedReplicas) {
  InvariantChecker chk;
  chk.audit_applied_state(1, 7, "state-A");
  chk.audit_applied_state(2, 7, "state-A");
  chk.audit_applied_state(3, 6, "state-earlier");  // different prefix: fine
  EXPECT_TRUE(chk.ok());
  chk.audit_applied_state(4, 7, "state-B");
  EXPECT_EQ(chk.count(), 1u);
}

TEST(InvariantChecker, AuditAppliedStateFlagsImageOfAnotherIndex) {
  // A durable snapshot image must be the state after exactly its last_index
  // applies. Two replicas apply the same 8 PUTs; replica 1 froze a correct
  // image at index 7, replica 2's "image" at index 7 aliases its live state
  // (index 8), the defect a copy-on-write slip would cause.
  kv::KvStateMachine a;
  kv::KvStateMachine b;
  const auto put = [](int i) {
    return kv::encode({kv::Op::Put, "k" + std::to_string(i % 3), "v" + std::to_string(i), {}});
  };
  for (int i = 1; i <= 7; ++i) {
    a.apply(put(i));
    b.apply(put(i));
  }
  const auto image_a = a.freeze();
  a.apply(put(8));
  b.apply(put(8));
  const auto aliased = b.freeze();

  InvariantChecker chk;
  chk.audit_applied_state(1, 8, a.snapshot());
  chk.audit_applied_state(1, 7, image_a->bytes());
  chk.audit_applied_state(2, 8, b.snapshot());
  EXPECT_TRUE(chk.ok());
  chk.audit_applied_state(2, 7, aliased->bytes());
  EXPECT_EQ(chk.count(), 1u);
}

TEST(InvariantChecker, ClearResetsEverything) {
  InvariantChecker chk;
  chk.on_leader_established(1, 5, TimePoint{});
  chk.on_leader_established(2, 5, TimePoint{});
  chk.on_entry_committed(1, make_entry(1, 1, "a"), TimePoint{});
  EXPECT_FALSE(chk.ok());
  chk.clear();
  EXPECT_TRUE(chk.ok());
  EXPECT_EQ(chk.count(), 0u);
  EXPECT_EQ(chk.max_committed(), 0u);
  // A fresh term-5 leader claim after clear is not a violation.
  chk.on_leader_established(3, 5, TimePoint{});
  EXPECT_TRUE(chk.ok());
}

TEST(InvariantChecker, CountKeepsIncrementingPastStorageCap) {
  InvariantChecker chk;
  chk.on_entry_committed(1, make_entry(1, 1, "base"), TimePoint{});
  for (std::size_t i = 0; i < InvariantChecker::kMaxStored + 10; ++i) {
    chk.audit_log_entry(2, make_entry(1, 1, "corrupt" + std::to_string(i)));
  }
  EXPECT_EQ(chk.count(), InvariantChecker::kMaxStored + 10);
  EXPECT_EQ(chk.violations().size(), InvariantChecker::kMaxStored);
}

// ---- Cluster integration ----------------------------------------------------------

TEST(InvariantCluster, HealthyTrialAuditsClean) {
  auto c = start_cluster(cluster::make_raft_config(5, 17));
  for (int i = 0; i < 30; ++i) {
    const NodeId leader = c->current_leader();
    ASSERT_NE(leader, kNoNode);
    raft::Command cmd;
    cmd.payload = "put k" + std::to_string(i) + " v";
    (void)c->node(leader).submit(std::move(cmd));
    c->sim().run_for(50ms);
  }
  c->sim().run_for(2s);
  EXPECT_GT(c->checker().max_committed(), 0u);
  EXPECT_EQ(c->audit_invariants(), 0u);
  EXPECT_TRUE(c->checker().ok());
}

TEST(InvariantCluster, AuditCatchesForgedDivergenceOnRealHistory) {
  // Take a real committed history, then audit a tampered copy of one entry —
  // the end-of-trial sweep must flag it against the streaming commit table.
  auto c = start_cluster(cluster::make_raft_config(3, 23));
  const NodeId leader = c->current_leader();
  ASSERT_NE(leader, kNoNode);
  raft::Command cmd;
  cmd.payload = "put key value";
  const auto idx = c->node(leader).submit(std::move(cmd));
  ASSERT_TRUE(idx.has_value());
  c->sim().run_for(2s);
  ASSERT_GE(c->checker().max_committed(), *idx);

  LogEntry tampered;
  bool found = false;
  c->node(leader).log().for_each(*idx, *idx, [&](const LogEntry& e) {
    tampered = e;
    found = true;
  });
  ASSERT_TRUE(found);
  tampered.command.payload = "put key EVIL";
  c->checker().audit_log_entry(leader, tampered);
  EXPECT_EQ(c->checker().count(), 1u);

  // The untampered cluster state still audits clean on a fresh pass.
  c->checker().clear();
  c->sim().run_for(500ms);
  EXPECT_EQ(c->audit_invariants(), 0u);
}

TEST(InvariantCluster, AuditSkipsDeposedLeaderResumedMidElection) {
  // A leader paused past its successor's commits, then resumed while the
  // next election is in flight, is the only node in the Leader role, but at
  // a stale term. It may lack later commits; leader completeness binds only
  // a leader whose term no running node exceeds.
  auto c = start_cluster(cluster::make_raft_config(5, 31));
  const NodeId old_leader = c->current_leader();
  ASSERT_NE(old_leader, kNoNode);
  c->pause(old_leader);
  ASSERT_TRUE(c->await_leader(30s));
  const NodeId successor = c->current_leader();
  ASSERT_NE(successor, old_leader);
  for (int i = 0; i < 5; ++i) {
    raft::Command cmd;
    cmd.payload = "put k" + std::to_string(i) + " v";
    ASSERT_TRUE(c->node(successor).submit(std::move(cmd)).has_value());
  }
  c->sim().run_for(1s);
  ASSERT_LT(c->node(old_leader).last_log_index(), c->checker().max_committed());

  const raft::Term successor_term = c->node(successor).term();
  c->pause(successor);
  const auto max_running_term = [&] {
    raft::Term t = 0;
    for (const NodeId id : c->server_ids()) {
      if (auto* n = c->node_if_alive(id); n != nullptr && n->running()) t = std::max(t, n->term());
    }
    return t;
  };
  // Step event by event up to the first candidate's term bump.
  for (int i = 0; i < 100000 && max_running_term() <= successor_term; ++i) {
    ASSERT_TRUE(c->sim().step());
  }
  ASSERT_GT(max_running_term(), successor_term) << "no election started";
  ASSERT_EQ(c->current_leader(), kNoNode);
  c->resume(old_leader);
  ASSERT_EQ(c->current_leader(), old_leader);
  ASSERT_TRUE(c->node(old_leader).is_leader());
  EXPECT_EQ(c->audit_invariants(), 0u) << c->checker().violations().front().what;

  // A real coverage gap at the newest term still trips: once the election
  // settles, claim a commit beyond the new leader's log.
  c->resume(successor);
  ASSERT_TRUE(c->await_leader(30s));
  c->sim().run_for(1s);
  EXPECT_EQ(c->audit_invariants(), 0u);
  const NodeId leader = c->current_leader();
  ASSERT_NE(leader, kNoNode);
  const raft::LogIndex beyond = c->node(leader).last_log_index() + 1;
  c->checker().on_entry_committed(leader, make_entry(beyond, c->node(leader).term(), "x"),
                                  TimePoint{});
  EXPECT_EQ(c->audit_invariants(), 1u);
}

TEST(InvariantCluster, CheckerSurvivesTrialReset) {
  auto c = start_cluster(cluster::make_raft_config(3, 29));
  c->checker().on_leader_established(999, 12345, TimePoint{});
  c->checker().on_leader_established(998, 12345, TimePoint{});
  EXPECT_FALSE(c->checker().ok());
  c->reset(std::uint64_t{29});
  EXPECT_TRUE(c->checker().ok()) << "reset must clear checker state between trials";
  ASSERT_TRUE(c->await_leader(30s));
  c->sim().run_for(1s);
  EXPECT_EQ(c->audit_invariants(), 0u);
}

}  // namespace
}  // namespace dyna
