// Fundamental Raft vocabulary: terms, log indices, roles, log entries.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/types.hpp"

namespace dyna::raft {

/// Monotonically increasing election epoch.
using Term = std::uint64_t;

/// 1-based log position; 0 means "before the first entry".
using LogIndex = std::uint64_t;

enum class Role : std::uint8_t {
  Follower,
  PreCandidate,  ///< running a pre-vote round (term not yet incremented)
  Candidate,
  Leader,
};

[[nodiscard]] constexpr std::string_view to_string(Role r) noexcept {
  switch (r) {
    case Role::Follower: return "follower";
    case Role::PreCandidate: return "pre-candidate";
    case Role::Candidate: return "candidate";
    case Role::Leader: return "leader";
  }
  return "?";
}

/// Single-server membership change carried inside a log entry. Applied when
/// the entry commits (apply-on-commit); one change may be in flight per
/// leader reign. Application is idempotent set arithmetic, so a restarted
/// node replaying its committed suffix converges to the same membership.
enum class ConfigChange : std::uint8_t {
  None = 0,
  AddVoter,    ///< target joins (or is promoted to) the voter set
  AddLearner,  ///< target joins as a non-voting learner (replicated, no vote)
  Promote,     ///< learner target becomes a voter
  Remove,      ///< target leaves the membership entirely
};

/// A command's bytes: immutable, and shared instead of copied. Payloads up
/// to kInline bytes (a GET, a short PUT) live inside the object, as
/// std::string's short-string buffer does, and never allocate. Longer ones
/// live in one heap block with a reference count; building a Payload from a
/// std::string&& adopts that string's buffer, and copying a Payload bumps
/// the count. So the bytes a client encodes are the bytes every replica's
/// log, every durable log and every in-flight message hold.
///
/// slice() makes a payload of some of those bytes. One of at most kInline
/// bytes is copied inline and pins nothing; a longer one shares the block,
/// and keeps the block alive for as long as it lives. A shared handle keeps
/// its own data pointer and length, so view() never reads the block. This
/// is how a KV store holds a PUT's value: a slice of the committed entry.
///
/// There is no mutating accessor and no write-in-place path: bytes that
/// every replica shares, written in place, would corrupt every replica the
/// same way, and the checker's apply-divergence test could not see it.
///
/// digest() is the hash::digest of the bytes. A handle that spans its whole
/// block computes it on first use and keeps it in the block, so n replicas
/// applying one block hash it once. The cached digest vouches for exactly
/// the bytes every such handle reads, because nothing can write them; a
/// replica holding different bytes holds a different block, with its own
/// digest. A slice hashes its own bytes on each call.
///
/// The count and the cached digest are not atomic. A payload and all its
/// copies and slices belong to one cluster (the client that encoded it, the
/// network, the replicas, their logs, stores and snapshot images), which
/// one thread drives at a time.
class Payload {
 public:
  static constexpr std::size_t kInline = 16;

  Payload() noexcept = default;
  /// Adopt `bytes` (its buffer, when it does not fit inline): no byte copy.
  Payload(std::string&& bytes) {  // NOLINT(google-explicit-constructor)
    if (bytes.size() <= kInline) {
      std::copy(bytes.begin(), bytes.end(), s_.bytes);
      size_ = static_cast<std::uint8_t>(bytes.size());
    } else {
      DYNA_EXPECTS(bytes.size() <= kMaxShared);
      Block* block = new Block{1, 0, std::move(bytes)};
      s_.shared = Shared{block, block->bytes.data()};
      len_ = static_cast<std::uint32_t>(block->bytes.size());
      size_ = kShared;
    }
  }
  /// Copy `bytes`.
  Payload(std::string_view bytes)  // NOLINT(google-explicit-constructor)
      : Payload(std::string(bytes)) {}
  Payload(const std::string& bytes)  // NOLINT(google-explicit-constructor)
      : Payload(std::string(bytes)) {}
  Payload(const char* bytes)  // NOLINT(google-explicit-constructor)
      : Payload(std::string(bytes)) {}

  Payload(const Payload& other) noexcept
      : s_(other.s_), size_(other.size_), len_(other.len_) {
    if (size_ == kShared) ++s_.shared.block->refs;
  }
  Payload(Payload&& other) noexcept
      : s_(other.s_), size_(std::exchange(other.size_, 0)), len_(other.len_) {}
  Payload& operator=(const Payload& other) noexcept { return *this = Payload(other); }
  /// A plain release-and-take rather than copy-and-swap: a store replaces a
  /// value this way on every PUT, and swapping the union through a
  /// temporary measurably slowed log replay.
  Payload& operator=(Payload&& other) noexcept {
    if (this == &other) return *this;
    release();
    s_ = other.s_;
    size_ = std::exchange(other.size_, 0);
    len_ = other.len_;
    return *this;
  }
  ~Payload() { release(); }

  [[nodiscard]] std::string_view view() const noexcept {
    return size_ == kShared ? std::string_view(s_.shared.data, len_)
                            : std::string_view(s_.bytes, size_);
  }
  [[nodiscard]] const char* data() const noexcept { return view().data(); }
  [[nodiscard]] std::size_t size() const noexcept { return view().size(); }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// The bytes `inner`, which must lie inside view(), as a payload: copied
  /// inline up to kInline bytes, otherwise sharing (and pinning) the block.
  [[nodiscard]] Payload slice(std::string_view inner) const {
    const std::string_view all = view();
    DYNA_EXPECTS(inner.empty() ||
                 (std::less_equal<>{}(all.data(), inner.data()) &&
                  std::less_equal<>{}(inner.data() + inner.size(), all.data() + all.size())));
    Payload out;
    if (inner.size() <= kInline) {
      std::copy(inner.begin(), inner.end(), out.s_.bytes);
      out.size_ = static_cast<std::uint8_t>(inner.size());
    } else {
      ++s_.shared.block->refs;
      out.s_.shared = Shared{s_.shared.block, inner.data()};
      out.len_ = static_cast<std::uint32_t>(inner.size());
      out.size_ = kShared;
    }
    return out;
  }

  /// hash::digest(view()): hashed once per block by the handles that span
  /// it, on each call for inline payloads and slices.
  [[nodiscard]] std::uint64_t digest() const noexcept {
    if (size_ != kShared || len_ != s_.shared.block->bytes.size()) return hash::digest(view());
    Block& b = *s_.shared.block;
    if (b.digest == 0) b.digest = hash::digest(b.bytes);
    return b.digest;
  }

  /// Byte equality; whether two payloads share a block is irrelevant.
  friend bool operator==(const Payload& a, const Payload& b) noexcept {
    return a.view() == b.view();
  }

 private:
  struct Block {
    std::uint64_t refs;
    std::uint64_t digest;  ///< 0 until first computed (a digest is never 0)
    std::string bytes;
  };
  /// A shared handle: its block, and where its bytes start inside it.
  struct Shared {
    Block* block;
    const char* data;
  };
  /// Inline bytes, or the shared handle when size_ == kShared.
  union Storage {
    char bytes[kInline];
    Shared shared;
  };
  static constexpr std::uint8_t kShared = 0xFF;
  static_assert(kInline < kShared);
  static constexpr std::size_t kMaxShared = std::numeric_limits<std::uint32_t>::max();

  void release() noexcept {
    if (size_ == kShared && --s_.shared.block->refs == 0) delete s_.shared.block;
  }

  Storage s_{};
  std::uint8_t size_ = 0;  ///< inline length, or kShared
  std::uint32_t len_ = 0;  ///< a shared handle's length (fills size_'s padding)
};
static_assert(sizeof(Payload) == Payload::kInline + 8, "len_ must ride in size_'s padding");

/// A client command as Raft sees it: opaque payload plus routing metadata so
/// the leader can answer the submitting client once the entry applies.
/// Entries with `config_change != None` are membership changes: the payload
/// stays empty and the apply hook is bypassed in favor of the node's own
/// configuration machinery.
struct Command {
  Payload payload;                ///< state-machine-specific serialization
  NodeId client = kNoNode;        ///< network endpoint to answer (if any)
  std::uint64_t client_seq = 0;   ///< client-chosen id echoed in the response
  ConfigChange config_change = ConfigChange::None;
  NodeId config_target = kNoNode;

  [[nodiscard]] bool is_noop() const noexcept {
    return payload.empty() && config_change == ConfigChange::None;
  }
  [[nodiscard]] bool is_config() const noexcept { return config_change != ConfigChange::None; }

  friend bool operator==(const Command&, const Command&) = default;
};

struct LogEntry {
  Term term = 0;
  LogIndex index = 0;
  Command command;

  friend bool operator==(const LogEntry&, const LogEntry&) = default;
};

/// A state machine's contents frozen at a snapshot line, opaque to Raft.
/// Immutable once built. Raft needs only its exact serialized size (the
/// InstallSnapshot traffic model charges it); the bytes are produced only
/// when something reads them, so freezing can be far cheaper than
/// serializing. The host that built an image is the one that restores from
/// it.
class SnapshotImage {
 public:
  SnapshotImage() = default;
  SnapshotImage(const SnapshotImage&) = delete;
  SnapshotImage& operator=(const SnapshotImage&) = delete;
  SnapshotImage(SnapshotImage&&) = delete;
  SnapshotImage& operator=(SnapshotImage&&) = delete;
  virtual ~SnapshotImage() = default;

  /// Exactly bytes().size(), without producing the bytes.
  [[nodiscard]] virtual std::size_t size() const noexcept = 0;

  /// The state-machine-specific serialization of the frozen contents.
  [[nodiscard]] virtual std::string bytes() const = 0;
};

/// A state-machine snapshot: the machine's image as of applying
/// `last_index` (whose term is `last_term`). Immutable once built; shared by
/// handle so an in-flight InstallSnapshot copy is a reference-count bump, the
/// same ownership discipline EntryView uses for log segments.
struct Snapshot {
  LogIndex last_index = 0;
  Term last_term = 0;
  std::shared_ptr<const SnapshotImage> image;
  /// Membership as of `last_index`, recorded (sorted) only once a config
  /// change has been applied; both empty means "founding membership" and
  /// keeps pre-churn snapshots byte-compatible with the legacy layout.
  std::vector<NodeId> voters;
  std::vector<NodeId> learners;
};

using SnapshotHandle = std::shared_ptr<const Snapshot>;

}  // namespace dyna::raft
