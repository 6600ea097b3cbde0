// Fundamental Raft vocabulary: terms, log indices, roles, log entries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

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

/// A client command as Raft sees it: opaque payload plus routing metadata so
/// the leader can answer the submitting client once the entry applies.
/// Entries with `config_change != None` are membership changes: the payload
/// stays empty and the apply hook is bypassed in favor of the node's own
/// configuration machinery.
struct Command {
  std::string payload;            ///< state-machine-specific serialization
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
