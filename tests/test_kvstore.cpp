// KV command codec and state machine semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
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
  EXPECT_EQ(a.data(), b.data());
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
  EXPECT_EQ(b.data(), a.data());
  EXPECT_EQ(b.snapshot(), blob);
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
