// KV command codec and state machine semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "kvstore/command.hpp"
#include "kvstore/state_machine.hpp"

namespace dyna::kv {
namespace {

TEST(Codec, PutRoundTrips) {
  const KvCommand cmd{Op::Put, "key", "value", {}};
  const auto decoded = decode(encode(cmd));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, cmd);
}

TEST(Codec, GetAndDelRoundTrip) {
  for (const Op op : {Op::Get, Op::Del}) {
    const KvCommand cmd{op, "some-key", {}, {}};
    const auto decoded = decode(encode(cmd));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, cmd);
  }
}

TEST(Codec, CasRoundTrips) {
  const KvCommand cmd{Op::Cas, "k", "new", "expected"};
  const auto decoded = decode(encode(cmd));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, cmd);
}

TEST(Codec, BinarySafeFields) {
  KvCommand cmd{Op::Put, std::string("k\0ey", 4), std::string("v:1:\n,\"x", 8), {}};
  const auto decoded = decode(encode(cmd));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->key, cmd.key);
  EXPECT_EQ(decoded->value, cmd.value);
}

TEST(Codec, EmptyFieldsSurvive) {
  const KvCommand cmd{Op::Put, "", "", {}};
  const auto decoded = decode(encode(cmd));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, cmd);
}

TEST(Codec, RejectsMalformedInput) {
  EXPECT_FALSE(decode("").has_value());
  EXPECT_FALSE(decode("X3:abc").has_value());       // unknown op
  EXPECT_FALSE(decode("P").has_value());            // missing fields
  EXPECT_FALSE(decode("P3:ab").has_value());        // truncated key
  EXPECT_FALSE(decode("P3:abc").has_value());       // PUT without value
  EXPECT_FALSE(decode("Pabc").has_value());         // no length prefix
  EXPECT_FALSE(decode("P3:abc2:xytrailing").has_value());  // trailing bytes
  EXPECT_FALSE(decode("P-1:a1:b").has_value());     // negative length
}

TEST(StateMachine, PutThenGet) {
  KvStateMachine sm;
  EXPECT_EQ(sm.apply(encode({Op::Put, "a", "1", {}})), "OK 1");
  EXPECT_EQ(sm.apply(encode({Op::Get, "a", {}, {}})), "1");
  EXPECT_EQ(sm.size(), 1u);
}

TEST(StateMachine, GetMissingIsNil) {
  KvStateMachine sm;
  EXPECT_EQ(sm.apply(encode({Op::Get, "nope", {}, {}})), "(nil)");
}

TEST(StateMachine, DeleteRemovesAndBumpsRevision) {
  KvStateMachine sm;
  sm.apply(encode({Op::Put, "a", "1", {}}));
  EXPECT_EQ(sm.apply(encode({Op::Del, "a", {}, {}})), "OK 2");
  EXPECT_EQ(sm.apply(encode({Op::Get, "a", {}, {}})), "(nil)");
  EXPECT_EQ(sm.apply(encode({Op::Del, "a", {}, {}})), "(nil)");  // no revision bump
  EXPECT_EQ(sm.revision(), 2u);
}

TEST(StateMachine, CasSucceedsOnlyOnMatch) {
  KvStateMachine sm;
  sm.apply(encode({Op::Put, "a", "1", {}}));
  EXPECT_EQ(sm.apply(encode({Op::Cas, "a", "2", "wrong"})), "FAIL");
  EXPECT_EQ(sm.apply(encode({Op::Get, "a", {}, {}})), "1");
  EXPECT_EQ(sm.apply(encode({Op::Cas, "a", "2", "1"})), "OK 2");
  EXPECT_EQ(sm.apply(encode({Op::Get, "a", {}, {}})), "2");
}

TEST(StateMachine, CasOnMissingKeyFails) {
  KvStateMachine sm;
  EXPECT_EQ(sm.apply(encode({Op::Cas, "ghost", "v", ""})), "FAIL");
}

TEST(StateMachine, MalformedPayloadIsError) {
  KvStateMachine sm;
  EXPECT_EQ(sm.apply("garbage"), "ERR malformed");
  EXPECT_EQ(sm.revision(), 0u);
}

TEST(StateMachine, RevisionCountsMutationsOnly) {
  KvStateMachine sm;
  sm.apply(encode({Op::Put, "a", "1", {}}));
  sm.apply(encode({Op::Get, "a", {}, {}}));
  sm.apply(encode({Op::Get, "a", {}, {}}));
  EXPECT_EQ(sm.revision(), 1u);
}

TEST(StateMachine, DeterministicReplay) {
  // Identical payload sequences must produce identical stores — the property
  // State Machine Replication rests on.
  std::vector<std::string> ops;
  for (int i = 0; i < 50; ++i) {
    ops.push_back(encode({Op::Put, "k" + std::to_string(i % 7), "v" + std::to_string(i), {}}));
    if (i % 5 == 0) ops.push_back(encode({Op::Del, "k" + std::to_string(i % 7), {}, {}}));
  }
  KvStateMachine a, b;
  for (const auto& op : ops) {
    const std::string ra = a.apply(op);
    const std::string rb = b.apply(op);
    ASSERT_EQ(ra, rb);
  }
  EXPECT_TRUE(a.same_contents(b));
  EXPECT_EQ(a.revision(), b.revision());
}

TEST(StateMachine, SnapshotMatchesGoldenBlob) {
  // Layout: <revision> then (key, value) pairs in sorted key order, every
  // field <decimal length> ':' <bytes>.
  KvStateMachine empty;
  EXPECT_EQ(empty.snapshot(), "1:0");

  KvStateMachine sm;
  sm.apply(encode({Op::Put, "b", "0123456789ab", {}}));
  sm.apply(encode({Op::Put, "a:1", "", {}}));  // separator and digits in a key, empty value
  sm.apply(encode({Op::Put, "10", "x", {}}));
  EXPECT_EQ(sm.snapshot(), "1:3" "2:10" "1:x" "3:a:1" "0:" "1:b" "12:0123456789ab");
}

TEST(StateMachine, SnapshotOrdersKeysBytewise) {
  // Keys that tie on their first 8 bytes, are prefixes of each other, hold
  // zero bytes where a shorter key ends, or carry bytes >= 0x80 (which sort
  // above ASCII, as in memcmp).
  std::vector<std::string> keys = {"abcdefgh", "abcdefghi", std::string("abcdefgh\0", 9),
                                   "ab", std::string("ab\0", 3), std::string("ab\0x", 4),
                                   "", std::string(1, '\0'), "\x80", "\xff\xff", "b",
                                   "abcdefgg\xff", "key-10", "key-9", "key-100000000"};
  KvStateMachine sm;
  for (const std::string& k : keys) sm.apply(encode({Op::Put, k, "v" + k, {}}));
  std::sort(keys.begin(), keys.end());
  std::string expected;
  detail::encode_field(expected, std::to_string(keys.size()));
  for (const std::string& k : keys) {
    detail::encode_field(expected, k);
    detail::encode_field(expected, "v" + k);
  }
  EXPECT_EQ(sm.snapshot(), expected);
}

TEST(StateMachine, SnapshotRestoreRoundTripsTenThousandKeys) {
  Rng rng(11);
  KvStateMachine a;
  for (int i = 0; i < 10000; ++i) {
    const std::size_t len = 64 + static_cast<std::size_t>(rng.uniform_index(961));
    std::string value(len, '\0');
    for (char& c : value) c = static_cast<char>(rng.uniform_index(256));
    a.apply(encode({Op::Put, "key-" + std::to_string(i), std::move(value), {}}));
  }
  const std::string blob = a.snapshot();
  KvStateMachine b;
  b.restore(blob);
  EXPECT_EQ(b.size(), 10000u);
  EXPECT_EQ(b.revision(), a.revision());
  EXPECT_TRUE(b.same_contents(a));
  EXPECT_EQ(b.snapshot(), blob);
}

// ---- Snapshot images ----------------------------------------------------------------

/// Insert keys key-0..key-(n-1) with 64-1024 byte random values.
void fill(KvStateMachine& sm, std::size_t n, Rng& rng) {
  for (std::size_t k = 0; k < n; ++k) {
    std::string value(64 + static_cast<std::size_t>(rng.uniform_index(961)), '\0');
    for (char& c : value) c = static_cast<char>(rng.uniform_index(256));
    sm.apply(encode({Op::Put, "key-" + std::to_string(k), std::move(value), {}}));
  }
}

/// The snapshot() layout of a model state, built independently of the store.
std::string serialize_model(std::uint64_t revision, const std::map<std::string, std::string>& m) {
  std::string out;
  detail::encode_field(out, std::to_string(revision));
  for (const auto& [key, value] : m) {
    detail::encode_field(out, key);
    detail::encode_field(out, value);
  }
  return out;
}

TEST(SnapshotImage, LaterWritesNeverReachTheImage) {
  // Freeze, then PUT (shorter, same length, longer), CAS and DEL every key.
  // The image keeps serializing to the snapshot taken at freeze time, and a
  // second image frozen in between keeps its own state.
  Rng rng(21);
  KvStateMachine sm;
  fill(sm, 300, rng);
  const std::string at_freeze = sm.snapshot();
  const auto image = sm.freeze();
  EXPECT_EQ(image->bytes(), at_freeze);

  for (std::size_t k = 0; k < 300; ++k) {
    const std::string key = "key-" + std::to_string(k);
    const std::string old(*sm.get(key));
    const std::string next = k % 3 == 0   ? old.substr(0, old.size() / 2)
                             : k % 3 == 1 ? std::string(old.size(), '#')
                                          : old + old + "tail";
    ASSERT_EQ(sm.apply(encode({Op::Put, key, next, {}})).substr(0, 3), "OK ");
    ASSERT_EQ(sm.get(key), next);
  }
  EXPECT_EQ(image->bytes(), at_freeze);
  const std::string after_puts = sm.snapshot();
  const auto second = sm.freeze();

  for (std::size_t k = 0; k < 300; ++k) {
    const std::string key = "key-" + std::to_string(k);
    const std::string old(*sm.get(key));
    ASSERT_EQ(sm.apply(encode({Op::Cas, key, "cas-" + key, old})).substr(0, 3), "OK ");
  }
  EXPECT_EQ(image->bytes(), at_freeze);
  EXPECT_EQ(second->bytes(), after_puts);

  for (std::size_t k = 0; k < 300; ++k) {
    ASSERT_EQ(sm.apply(encode({Op::Del, "key-" + std::to_string(k), {}, {}})).substr(0, 3), "OK ");
  }
  EXPECT_EQ(sm.size(), 0u);
  EXPECT_EQ(image->bytes(), at_freeze);
  EXPECT_EQ(image->size(), at_freeze.size());
  EXPECT_EQ(second->bytes(), after_puts);
}

TEST(SnapshotImage, SizeIsExactlyTheSerializedSize) {
  KvStateMachine empty;
  const auto none = empty.freeze();
  EXPECT_EQ(none->bytes(), "1:0");
  EXPECT_EQ(none->size(), none->bytes().size());

  KvStateMachine small;
  small.apply(encode({Op::Put, "b", "0123456789ab", {}}));
  small.apply(encode({Op::Put, "a:1", "", {}}));
  small.apply(encode({Op::Put, "10", "x", {}}));
  const auto three = small.freeze();
  EXPECT_EQ(three->bytes(), small.snapshot());
  EXPECT_EQ(three->size(), three->bytes().size());

  Rng rng(22);
  KvStateMachine big;
  fill(big, 10000, rng);
  const auto many = big.freeze();
  EXPECT_EQ(many->size(), many->bytes().size());
  EXPECT_EQ(many->bytes(), big.snapshot());
}

TEST(SnapshotImage, AdoptingAnImageEqualsRestoringItsBytes) {
  Rng rng(23);
  KvStateMachine source;
  fill(source, 2000, rng);
  for (std::size_t k = 0; k < 2000; k += 7) {
    source.apply(encode({Op::Del, "key-" + std::to_string(k), {}, {}}));
  }
  const auto image = source.freeze();
  const std::string bytes = image->bytes();

  KvStateMachine adopted;
  adopted.apply(encode({Op::Put, "junk", "x", {}}));  // replaced by the restore
  adopted.restore(*image);
  KvStateMachine decoded;
  decoded.restore(bytes);
  EXPECT_TRUE(adopted.same_contents(decoded));
  EXPECT_TRUE(decoded.same_contents(adopted));
  EXPECT_TRUE(adopted.same_contents(source));
  EXPECT_EQ(adopted.revision(), decoded.revision());
  EXPECT_EQ(adopted.snapshot(), bytes);
  EXPECT_FALSE(adopted.get("junk").has_value());

  // The same command stream gives the same results on both, and writes to
  // the adopted store (whose values the image shares) never reach the image.
  for (int i = 0; i < 5000; ++i) {
    const std::string key = "key-" + std::to_string(rng.uniform_index(2200));
    const std::uint64_t pick = rng.uniform_index(4);
    std::string cmd;
    if (pick == 0) {
      cmd = encode({Op::Put, key, "v" + std::to_string(i), {}});
    } else if (pick == 1) {
      cmd = encode({Op::Get, key, {}, {}});
    } else if (pick == 2) {
      cmd = encode({Op::Del, key, {}, {}});
    } else {
      const auto current = decoded.get(key);
      cmd = encode({Op::Cas, key, "c" + std::to_string(i),
                    current && i % 2 == 0 ? std::string(*current) : "stale"});
    }
    ASSERT_EQ(adopted.apply(cmd), decoded.apply(cmd)) << "op " << i;
  }
  EXPECT_EQ(adopted.revision(), decoded.revision());
  EXPECT_EQ(adopted.snapshot(), decoded.snapshot());
  EXPECT_EQ(image->bytes(), bytes);
}

TEST(SnapshotImage, RandomizedOpsMatchOrderedMapModel) {
  // 100k PUT/GET/DEL/CAS against a std::map model. The live key count swings
  // between growth phases (index growth from its minimum size) and
  // delete-heavy phases (backward-shift deletion in dense probe runs); keys
  // mix short ones with long shared-prefix ones. Commands are applied in
  // group-commit frames of 1-24 members, so values up to Payload::kInline
  // bytes are copied and longer ones are slices of their frame. Every frame
  // is dropped before the next image check, so from then on the store and
  // the images alone keep those bytes alive. Images frozen along the way
  // must still match the model state of their freeze point at the end.
  // Right after each freeze, every 16th key is overwritten with a shorter
  // value and then a longer one: the store must replace its value, never
  // write the bytes the image holds.
  Rng rng(24);
  Rng frame_rng(25);
  KvStateMachine sm;
  std::map<std::string, std::string> model;
  std::uint64_t revision = 0;
  std::vector<std::pair<std::shared_ptr<const KvStateMachine::Image>, std::string>> images;
  std::size_t peak = 0;
  std::size_t deletes = 0;

  std::string frame;                   // members queued for the next frame
  std::vector<std::string> want;       // the model's result for each of them
  std::vector<raft::Payload> applied;  // frames applied since the last drop
  std::size_t frame_cap = 1;
  const auto queue = [&](const KvCommand& cmd, std::string result) {
    batch_append(frame, encode(cmd));
    want.push_back(std::move(result));
  };
  const auto flush = [&]() -> ::testing::AssertionResult {
    frame_cap = 1 + static_cast<std::size_t>(frame_rng.uniform_index(24));
    if (want.empty()) return ::testing::AssertionSuccess();
    applied.emplace_back(std::exchange(frame, std::string()));
    std::vector<std::string> got;
    const bool ok = for_each_batch_result(
        sm.apply(applied.back()), [&](std::string_view r) { got.emplace_back(r); });
    if (ok && got == std::exchange(want, {})) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << "frame results differ from the model";
  };

  for (int i = 0; i < 100000; ++i) {
    const bool deleting = (i / 12500) % 2 == 1;
    const std::uint64_t id = rng.uniform_index(4000);
    const std::string key = id % 3 == 0 ? "shared-long-key-prefix/" + std::to_string(id)
                                        : "k" + std::to_string(id);
    const auto it = model.find(key);
    const std::uint64_t pick = rng.uniform_index(10);
    if (pick < (deleting ? 2u : 5u)) {
      const std::string value(static_cast<std::size_t>(rng.uniform_index(40)),
                              static_cast<char>('a' + i % 26));
      queue({Op::Put, key, value, {}}, "OK " + std::to_string(++revision));
      model[key] = value;
    } else if (pick < (deleting ? 4u : 7u)) {
      queue({Op::Get, key, {}, {}}, it == model.end() ? "(nil)" : it->second);
    } else if (pick < (deleting ? 9u : 8u)) {
      queue({Op::Del, key, {}, {}}, it == model.end() ? "(nil)" : "OK " + std::to_string(++revision));
      if (it != model.end()) {
        model.erase(it);
        ++deletes;
      }
    } else {
      const bool match = it != model.end() && rng.bernoulli(0.5);
      const std::string expected = match ? it->second : "never-stored";
      queue({Op::Cas, key, "cas" + std::to_string(i), expected},
            match ? "OK " + std::to_string(++revision) : "FAIL");
      if (match) model[key] = "cas" + std::to_string(i);
    }
    peak = std::max(peak, model.size());
    if (want.size() >= frame_cap) {
      ASSERT_TRUE(flush()) << "op " << i;
      ASSERT_EQ(sm.size(), model.size()) << "op " << i;
    }
    if (i % 10000 == 9999) {
      ASSERT_TRUE(flush()) << "op " << i;
      applied.clear();
      ASSERT_EQ(sm.snapshot(), serialize_model(revision, model)) << "op " << i;
      images.emplace_back(sm.freeze(), serialize_model(revision, model));
      std::size_t n = 0;
      for (auto& [key, value] : model) {
        if (n++ % 16 != 0) continue;
        const std::string shorter = value.substr(0, value.size() / 2);
        const std::string longer(2 * value.size() + 17, static_cast<char>('A' + n % 26));
        for (const std::string& next : {shorter, longer}) {
          queue({Op::Put, key, next, {}}, "OK " + std::to_string(++revision));
          value = next;
        }
      }
      ASSERT_TRUE(flush()) << "op " << i;
      applied.clear();
      ASSERT_EQ(images.back().first->bytes(), images.back().second) << "op " << i;
      ASSERT_EQ(sm.snapshot(), serialize_model(revision, model)) << "op " << i;
    }
  }
  ASSERT_TRUE(flush());
  applied.clear();
  EXPECT_GT(peak, 2000u);
  EXPECT_GT(deletes, 10000u);
  for (const auto& [image, expected] : images) EXPECT_EQ(image->bytes(), expected);
  for (const auto& [key, value] : model) ASSERT_EQ(sm.get(key), value);
}

/// Codec property sweep: random commands always round-trip.
class CodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecFuzz, RandomCommandsRoundTrip) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    KvCommand cmd;
    const std::uint64_t pick = rng.uniform_index(4);
    cmd.op = pick == 0 ? Op::Put : pick == 1 ? Op::Get : pick == 2 ? Op::Del : Op::Cas;
    auto rand_str = [&rng] {
      std::string s;
      const std::uint64_t len = rng.uniform_index(20);
      for (std::uint64_t j = 0; j < len; ++j) {
        s.push_back(static_cast<char>(rng.uniform_index(256)));
      }
      return s;
    };
    cmd.key = rand_str();
    if (cmd.op == Op::Put || cmd.op == Op::Cas) cmd.value = rand_str();
    if (cmd.op == Op::Cas) cmd.expected = rand_str();
    const auto decoded = decode(encode(cmd));
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(*decoded, cmd);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz, ::testing::Values(1ULL, 2ULL, 3ULL, 4ULL, 5ULL));

}  // namespace
}  // namespace dyna::kv
