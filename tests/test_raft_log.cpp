// Log replication: commitment, catch-up, conflict resolution, client path.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>

#include "cluster/cluster.hpp"
#include "common/hash.hpp"
#include "kvstore/client.hpp"
#include "kvstore/command.hpp"
#include "kvstore/state_machine.hpp"

namespace dyna {
namespace {

using namespace std::chrono_literals;
using cluster::Cluster;

raft::Command make_cmd(const std::string& key, const std::string& value) {
  raft::Command cmd;
  cmd.payload = kv::encode(kv::KvCommand{kv::Op::Put, key, value, {}});
  return cmd;
}

TEST(Replication, SubmittedEntryCommitsEverywhere) {
  Cluster c(cluster::make_raft_config(5, 1));
  ASSERT_TRUE(c.await_leader(30s));
  const NodeId leader = c.current_leader();
  const auto index = c.node(leader).submit(make_cmd("k", "v"));
  ASSERT_TRUE(index.has_value());
  c.sim().run_for(2s);
  for (const NodeId id : c.server_ids()) {
    EXPECT_GE(c.node(id).commit_index(), *index) << "node " << id;
    EXPECT_EQ(c.state_machine(id).get("k"), "v") << "node " << id;
  }
}

TEST(Replication, NonLeaderRejectsSubmit) {
  Cluster c(cluster::make_raft_config(3, 2));
  ASSERT_TRUE(c.await_leader(30s));
  const NodeId leader = c.current_leader();
  for (const NodeId id : c.server_ids()) {
    if (id == leader) continue;
    EXPECT_FALSE(c.node(id).submit(make_cmd("a", "b")).has_value());
  }
}

TEST(Replication, NoopCommittedAtLeadershipStart) {
  Cluster c(cluster::make_raft_config(3, 3));
  ASSERT_TRUE(c.await_leader(30s));
  c.sim().run_for(2s);
  const NodeId leader = c.current_leader();
  const auto& log = c.node(leader).log();
  ASSERT_FALSE(log.empty());
  EXPECT_TRUE(log.front().command.is_noop());
  EXPECT_EQ(log.front().term, c.node(leader).term());
  EXPECT_GE(c.node(leader).commit_index(), log.front().index);
}

TEST(Replication, BatchOfEntriesReplicatesInOrder) {
  Cluster c(cluster::make_raft_config(5, 4));
  ASSERT_TRUE(c.await_leader(30s));
  const NodeId leader = c.current_leader();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(c.node(leader).submit(make_cmd("k" + std::to_string(i), "v")).has_value());
  }
  c.sim().run_for(3s);
  for (const NodeId id : c.server_ids()) {
    EXPECT_EQ(c.state_machine(id).size(), 100u) << "node " << id;
    EXPECT_EQ(c.node(id).log().size(), c.node(leader).log().size());
  }
}

TEST(Replication, PausedFollowerCatchesUpOnResume) {
  Cluster c(cluster::make_raft_config(5, 5));
  ASSERT_TRUE(c.await_leader(30s));
  const NodeId leader = c.current_leader();
  const NodeId lagger = leader == 0 ? 1 : 0;
  c.pause(lagger);
  for (int i = 0; i < 50; ++i) {
    c.node(leader).submit(make_cmd("k" + std::to_string(i), "v"));
  }
  c.sim().run_for(2s);
  EXPECT_LT(c.node(lagger).commit_index(), c.node(leader).commit_index());
  c.resume(lagger);
  c.sim().run_for(5s);
  EXPECT_EQ(c.node(lagger).commit_index(), c.node(leader).commit_index());
  EXPECT_EQ(c.state_machine(lagger).size(), 50u);
}

TEST(Replication, DivergentUncommittedEntriesAreTruncated) {
  // Partition the leader with one follower; its appends cannot commit. The
  // majority side elects a new leader and commits different entries. On heal
  // the minority's conflicting suffix must be truncated away.
  Cluster c(cluster::make_raft_config(5, 6));
  ASSERT_TRUE(c.await_leader(30s));
  c.sim().run_for(2s);
  const NodeId old_leader = c.current_leader();
  NodeId buddy = kNoNode;
  std::vector<NodeId> majority;
  for (const NodeId id : c.server_ids()) {
    if (id == old_leader) continue;
    if (buddy == kNoNode) {
      buddy = id;
    } else {
      majority.push_back(id);
    }
  }
  auto set_partition = [&](bool blocked) {
    for (const NodeId a : {old_leader, buddy}) {
      for (const NodeId b : majority) {
        c.network().set_blocked(a, b, blocked);
        c.network().set_blocked(b, a, blocked);
      }
    }
  };
  set_partition(true);

  // Minority side: uncommittable entries.
  for (int i = 0; i < 5; ++i) {
    c.node(old_leader).submit(make_cmd("stale" + std::to_string(i), "x"));
  }
  c.sim().run_for(10s);
  const auto stale_commit = c.node(old_leader).commit_index();

  // Majority side elects and commits fresh entries.
  raft::Term max_term = 0;
  for (const NodeId id : majority) max_term = std::max(max_term, c.node(id).term());
  NodeId new_leader = kNoNode;
  for (const NodeId id : majority) {
    if (c.node(id).is_leader() && c.node(id).term() == max_term) new_leader = id;
  }
  ASSERT_NE(new_leader, kNoNode);
  for (int i = 0; i < 5; ++i) {
    c.node(new_leader).submit(make_cmd("fresh" + std::to_string(i), "y"));
  }
  c.sim().run_for(3s);
  EXPECT_GT(c.node(new_leader).commit_index(), stale_commit);

  set_partition(false);
  c.sim().run_for(10s);

  // Everyone converges on the new leader's log; stale entries are gone.
  for (const NodeId id : c.server_ids()) {
    EXPECT_EQ(c.node(id).log().size(), c.node(new_leader).log().size()) << "node " << id;
    EXPECT_FALSE(c.state_machine(id).get("stale0").has_value()) << "node " << id;
    EXPECT_EQ(c.state_machine(id).get("fresh0"), "y") << "node " << id;
  }
}

TEST(ClientPath, PutAndGetThroughKvClient) {
  Cluster c(cluster::make_raft_config(3, 7));
  ASSERT_TRUE(c.await_leader(30s));
  kv::KvClient client(c.sim(), c.network(), c.server_ids(), c.fork_rng(1));

  std::string put_result, get_result;
  client.put("alpha", "42", [&](const kv::ClientResult& r) {
    ASSERT_TRUE(r.ok);
    put_result = r.value;
  });
  c.sim().run_for(3s);
  EXPECT_TRUE(put_result.rfind("OK", 0) == 0) << put_result;

  client.get("alpha", [&](const kv::ClientResult& r) {
    ASSERT_TRUE(r.ok);
    get_result = r.value;
  });
  c.sim().run_for(3s);
  EXPECT_EQ(get_result, "42");
  EXPECT_EQ(client.completed(), 2u);
}

TEST(ClientPath, ClientFollowsLeaderRedirects) {
  Cluster c(cluster::make_raft_config(5, 8));
  ASSERT_TRUE(c.await_leader(30s));
  // A fresh client starts with a random target; redirects must route it.
  for (int attempt = 0; attempt < 5; ++attempt) {
    kv::KvClient client(c.sim(), c.network(), c.server_ids(), c.fork_rng(100 + attempt));
    bool done = false;
    client.put("k" + std::to_string(attempt), "v", [&](const kv::ClientResult& r) {
      EXPECT_TRUE(r.ok);
      done = true;
    });
    c.sim().run_for(5s);
    EXPECT_TRUE(done);
  }
}

TEST(ClientPath, ClientSurvivesLeaderFailover) {
  Cluster c(cluster::make_raft_config(5, 9));
  ASSERT_TRUE(c.await_leader(30s));
  kv::KvClient client(c.sim(), c.network(), c.server_ids(), c.fork_rng(2));

  // Establish the leader as the client's target.
  bool warm = false;
  client.put("w", "1", [&](const kv::ClientResult& r) { warm = r.ok; });
  c.sim().run_for(3s);
  ASSERT_TRUE(warm);

  const NodeId old_leader = c.current_leader();
  c.pause(old_leader);
  bool done = false;
  client.put("after-failover", "2", [&](const kv::ClientResult& r) {
    EXPECT_TRUE(r.ok);
    done = true;
  });
  c.sim().run_for(30s);
  EXPECT_TRUE(done);
  EXPECT_GT(client.retries(), 0u);
  c.resume(old_leader);
}

// ---- One immutable buffer per payload ---------------------------------------------

/// Holds when some accessor of T hands out writable bytes.
template <class T>
concept WritableBytes = requires(T& p) { p.data()[0] = 'x'; } ||
                        requires(T& p) { p[0] = 'x'; } ||
                        requires(T& p) { *p.begin() = 'x'; };
static_assert(WritableBytes<std::string>);  // the probe does see a writable buffer
static_assert(!WritableBytes<raft::Payload>);
static_assert(!std::is_convertible_v<raft::Payload&, std::string&>);

TEST(Replication, EveryLogAndDurableLogHoldsTheClientsPayloadBytes) {
  // A payload is encoded once by the client: every replica's log and every
  // durable log hold those very bytes, through replication, follower
  // catch-up, and a restart that replays the durable log.
  Cluster c(cluster::make_raft_config(5, 11));
  ASSERT_TRUE(c.await_leader(30s));
  kv::KvClient client(c.sim(), c.network(), c.server_ids(), c.fork_rng(3));
  int acked = 0;
  const auto put = [&](int i) {
    client.put("k" + std::to_string(i), std::string(100, 'v'),
               [&](const kv::ClientResult& r) { acked += r.ok ? 1 : 0; });
  };
  for (int i = 0; i < 20; ++i) put(i);
  c.sim().run_for(2s);
  const NodeId victim = c.current_leader() == 0 ? 1 : 0;
  c.crash(victim);
  for (int i = 20; i < 40; ++i) put(i);
  c.sim().run_for(2s);
  c.restart(victim);
  c.sim().run_for(3s);
  ASSERT_EQ(acked, 40);

  const raft::RaftNode& leader = c.node(c.current_leader());
  std::size_t puts = 0;
  for (raft::LogIndex i = 1; i <= leader.commit_index(); ++i) {
    const raft::Payload& bytes = leader.log().entry(i).command.payload;
    if (bytes.size() <= raft::Payload::kInline) continue;  // no-ops are inline
    ++puts;
    for (const NodeId id : c.server_ids()) {
      ASSERT_GE(c.node(id).last_log_index(), i) << "node " << id;
      EXPECT_EQ(c.node(id).log().entry(i).command.payload.data(), bytes.data())
          << "node " << id << " index " << i;
      const raft::Storage& disk = c.storage(id);
      const auto durable = disk.load_log();
      const auto at = static_cast<std::size_t>(i - disk.log_start().first - 1);
      ASSERT_LT(at, durable.size()) << "node " << id;
      EXPECT_EQ(durable[at].command.payload.data(), bytes.data())
          << "node " << id << " index " << i;
    }
  }
  EXPECT_GE(puts, 40u);
}

// ---- Slices: a value is the committed bytes ---------------------------------------

/// `len` bytes that differ at every offset within 26.
std::string patterned(std::size_t len) {
  std::string s(len, '\0');
  for (std::size_t i = 0; i < len; ++i) s[i] = static_cast<char>('a' + (i * 7) % 26);
  return s;
}

/// Whether `p` points into `bytes` (an address comparison; reads nothing).
bool points_into(const char* p, std::string_view bytes) {
  return std::less_equal<>{}(bytes.data(), p) && std::less<>{}(p, bytes.data() + bytes.size());
}

TEST(Payload, SliceOfAtMostInlineBytesIsCopiedInline) {
  const raft::Payload whole(patterned(200));
  for (const std::size_t len : {0, 1, 8, 16}) {
    const std::string_view inner = whole.view().substr(50, len);
    const raft::Payload part = whole.slice(inner);
    EXPECT_EQ(part.view(), inner) << "len " << len;
    EXPECT_FALSE(points_into(part.data(), whole.view())) << "len " << len;
  }
}

TEST(Payload, LongerSliceViewsTheParentsBytes) {
  const raft::Payload whole(patterned(200));
  for (const std::size_t len : {17, 100, 199}) {
    const std::string_view inner = whole.view().substr(200 - len, len);
    const raft::Payload part = whole.slice(inner);
    EXPECT_EQ(part.data(), inner.data()) << "len " << len;
    EXPECT_EQ(part.size(), len);
    const raft::Payload copy = part;  // NOLINT(performance-unnecessary-copy-initialization)
    EXPECT_EQ(copy.data(), inner.data()) << "len " << len;
    // A slice of a slice shares the block too, unless it fits inline.
    const raft::Payload sub = part.slice(part.view().substr(1));
    EXPECT_EQ(sub.view(), inner.substr(1));
    EXPECT_EQ(sub.data() == inner.data() + 1, len - 1 > raft::Payload::kInline) << "len " << len;
  }
  EXPECT_EQ(whole.slice(whole.view()).data(), whole.data());
}

TEST(Payload, SliceOutlivesItsParent) {
  // A slice pins its block: reading it once every other handle is gone is a
  // use-after-free (which ASan reports) unless the slice holds a reference.
  const std::string bytes = patterned(300);
  raft::Payload tail;
  raft::Payload inline_part;
  {
    raft::Payload middle;
    {
      const raft::Payload whole{std::string(bytes)};
      middle = whole.slice(whole.view().substr(10, 250));
      inline_part = whole.slice(whole.view().substr(20, 12));
    }
    EXPECT_EQ(middle.view(), std::string_view(bytes).substr(10, 250));
    tail = middle.slice(middle.view().substr(150));
  }
  EXPECT_EQ(tail.view(), std::string_view(bytes).substr(160, 100));
  EXPECT_EQ(inline_part.view(), std::string_view(bytes).substr(20, 12));
  const raft::Payload moved = std::move(tail);
  EXPECT_EQ(moved.view(), std::string_view(bytes).substr(160, 100));
}

TEST(Payload, SliceDigestIsTheHashOfItsOwnBytes) {
  // Never the block's cached digest, which covers the whole block, and never
  // cached in the block either: whichever is hashed first, both stay right.
  for (const bool block_first : {true, false}) {
    const raft::Payload whole(patterned(18'000));
    const std::string_view inner = whole.view().substr(1000, 5000);
    const raft::Payload part = whole.slice(inner);
    if (block_first) {
      EXPECT_EQ(whole.digest(), hash::digest(whole.view()));
    }
    EXPECT_EQ(part.digest(), hash::digest(inner)) << "block first " << block_first;
    EXPECT_EQ(whole.digest(), hash::digest(whole.view())) << "block first " << block_first;
    EXPECT_NE(part.digest(), whole.digest());
    EXPECT_EQ(part.digest(), hash::digest(inner)) << "block first " << block_first;
    EXPECT_EQ(whole.slice(whole.view()).digest(), whole.digest());
    EXPECT_EQ(whole.slice(inner.substr(0, 16)).digest(), hash::digest(inner.substr(0, 16)));
  }
}

TEST(Payload, SliceEqualityIsByBytes) {
  const raft::Payload a(patterned(100));
  const raft::Payload b(patterned(100));  // its own block, the same bytes
  ASSERT_NE(a.data(), b.data());
  EXPECT_EQ(a.slice(a.view().substr(20, 40)), b.slice(b.view().substr(20, 40)));
  EXPECT_EQ(a.slice(a.view().substr(20, 40)), raft::Payload(a.view().substr(20, 40)));
  EXPECT_EQ(a.slice(a.view().substr(3, 5)), raft::Payload(a.view().substr(3, 5)));
  EXPECT_NE(a.slice(a.view().substr(20, 40)), a.slice(a.view().substr(21, 40)));
  EXPECT_EQ(a.slice(a.view()), b);
}

TEST(Replication, EveryReplicaStoreViewsTheCommittedFrame) {
  // A PUT value longer than Payload::kInline is stored on every replica as a
  // slice of the group-commit frame it was committed in, through a
  // follower's crash and restart, and the slice keeps the frame readable
  // after every log, in memory and on disk, has compacted past it.
  cluster::ClusterConfig cfg = cluster::make_raft_config(5, 17);
  cfg.raft.group_commit = true;
  cfg.raft.snapshot_threshold = 16;
  cfg.raft.snapshot_trailing = 4;
  ASSERT_TRUE(cfg.durable_log);
  Cluster c(std::move(cfg));
  ASSERT_TRUE(c.await_leader(30s));
  kv::KvClient client(c.sim(), c.network(), c.server_ids(), c.fork_rng(3));
  int acked = 0;
  std::map<std::string, std::string> written;
  const auto put = [&](const std::string& key, std::string value) {
    written[key] = value;
    client.put(key, std::move(value), [&](const kv::ClientResult& r) { acked += r.ok ? 1 : 0; });
  };
  for (int i = 0; i < 24; ++i) {
    put("k" + std::to_string(i), i % 4 == 0 ? "short-" + std::to_string(i)
                                            : std::string(40 + i, static_cast<char>('a' + i)));
  }
  c.sim().run_for(2s);
  ASSERT_EQ(acked, 24);

  // The committed entry each key was written by, as an address range.
  struct Frame {
    raft::LogIndex index;
    std::string_view bytes;
  };
  std::map<std::string, Frame> frame_of;
  bool batched = false;
  const NodeId leader = c.current_leader();
  const raft::RaftNode& lead = c.node(leader);
  for (raft::LogIndex i = lead.first_log_index(); i <= lead.commit_index(); ++i) {
    const std::string_view payload = lead.log().entry(i).command.payload.view();
    const auto record = [&](std::string_view command) {
      const auto cmd = kv::decode_view(command);
      if (cmd && cmd->op == kv::Op::Put) frame_of[std::string(cmd->key)] = Frame{i, payload};
    };
    if (kv::is_batch(payload)) {
      batched = true;
      ASSERT_TRUE(kv::for_each_batched(payload, record));
    } else {
      record(payload);
    }
  }
  ASSERT_EQ(frame_of.size(), 24u);
  EXPECT_TRUE(batched);
  raft::LogIndex newest = 0;
  for (const auto& [key, frame] : frame_of) newest = std::max(newest, frame.index);

  const auto expect_views = [&](const char* when) {
    for (const NodeId id : c.server_ids()) {
      const kv::KvStateMachine& sm = c.state_machine(id);
      for (const auto& [key, frame] : frame_of) {
        const auto value = sm.get(key);
        ASSERT_TRUE(value.has_value()) << when << " node " << id << " key " << key;
        EXPECT_EQ(*value, written[key]) << when << " node " << id << " key " << key;
        if (value->size() > raft::Payload::kInline) {
          EXPECT_TRUE(points_into(value->data(), frame.bytes))
              << when << " node " << id << " key " << key;
        }
      }
    }
  };
  expect_views("at commit");

  // A follower misses enough entries to need the leader's snapshot, and
  // then every log compacts far past the frames above.
  const NodeId follower = leader == 0 ? 1 : 0;
  c.crash(follower);
  for (int i = 0; i < 120; ++i) {
    if (i == 60) c.restart(follower);
    put("fill" + std::to_string(i), std::string(30, 'f'));
    c.sim().run_for(50ms);
  }
  c.sim().run_for(3s);
  ASSERT_EQ(acked, 24 + 120);
  ASSERT_EQ(c.current_leader(), leader);
  for (const NodeId id : c.server_ids()) {
    EXPECT_GT(c.node(id).first_log_index(), newest) << "node " << id;
    EXPECT_GE(c.storage(id).log_start().first, newest) << "node " << id;
  }
  expect_views("after compaction");
}

}  // namespace
}  // namespace dyna
