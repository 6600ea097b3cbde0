// Fundamental Raft vocabulary: terms, log indices, roles, log entries.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

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
/// There is no mutating accessor and no write-in-place path: bytes that
/// every replica shares, written in place, would corrupt every replica the
/// same way, and the checker's apply-divergence test could not see it.
///
/// digest() is the hash::digest of the bytes. A shared block computes it on
/// first use and keeps it, so n replicas applying one block hash it once.
/// The cached digest vouches for exactly the bytes every holder of that block
/// reads, because nothing can write them; a replica holding different bytes
/// holds a different block, with its own digest.
///
/// The count and the cached digest are not atomic. A payload and all its
/// copies belong to one cluster (the client that encoded it, the network,
/// the replicas, their storage), which one thread drives at a time — the
/// argument kv::SharedValue makes for snapshot images.
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
      s_.block = new Block{1, 0, std::move(bytes)};
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

  Payload(const Payload& other) noexcept : s_(other.s_), size_(other.size_) {
    if (size_ == kShared) ++s_.block->refs;
  }
  Payload(Payload&& other) noexcept : s_(other.s_), size_(std::exchange(other.size_, 0)) {}
  Payload& operator=(Payload other) noexcept {
    std::swap(s_, other.s_);
    std::swap(size_, other.size_);
    return *this;
  }
  ~Payload() {
    if (size_ == kShared && --s_.block->refs == 0) delete s_.block;
  }

  [[nodiscard]] std::string_view view() const noexcept {
    return size_ == kShared ? std::string_view(s_.block->bytes)
                            : std::string_view(s_.bytes, size_);
  }
  [[nodiscard]] const char* data() const noexcept { return view().data(); }
  [[nodiscard]] std::size_t size() const noexcept { return view().size(); }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// hash::digest(view()): hashed once per shared block, on each call inline.
  [[nodiscard]] std::uint64_t digest() const noexcept {
    if (size_ != kShared) return hash::digest(view());
    Block& b = *s_.block;
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
  /// Inline bytes, or the shared block when size_ == kShared.
  union Storage {
    char bytes[kInline];
    Block* block;
  };
  static constexpr std::uint8_t kShared = 0xFF;
  static_assert(kInline < kShared);

  Storage s_{};
  std::uint8_t size_ = 0;  ///< inline length, or kShared
};

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
