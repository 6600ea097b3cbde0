// Raft wire protocol, including the Dynatune measurement metadata.
//
// Dynatune's rule is to piggyback everything on existing messages: the leader
// stamps heartbeats with a sequential id, its local send timestamp, and the
// RTT it measured on the previous exchange; the follower echoes the stamp
// (so the leader can compute RTT on its own clock, immune to skew) and rides
// its freshly tuned heartbeat interval back on the response. No new message
// types are introduced — exactly as in the paper.
#pragma once

#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "common/types.hpp"
#include "raft/log.hpp"
#include "raft/types.hpp"

namespace dyna::raft {

/// Measurement metadata attached to heartbeats when network measurement is
/// enabled (Dynatune mode). Absent in baseline Raft.
struct HeartbeatMeta {
  std::uint64_t id = 0;                 ///< per (leader,follower) sequence number
  TimePoint send_ts{};                  ///< leader-local send timestamp
  std::optional<Duration> measured_rtt; ///< RTT of the previous exchange
};

struct AppendEntriesRequest {
  Term term = 0;
  NodeId leader = kNoNode;
  LogIndex prev_log_index = 0;
  Term prev_log_term = 0;
  /// Shared view into the leader's segment store: copying this message (per
  /// follower, per in-flight duplicate) bumps a reference count instead of
  /// deep-copying an entry vector. See raft/log.hpp.
  EntryView entries;
  LogIndex leader_commit = 0;
  std::optional<HeartbeatMeta> meta;  ///< present on measurement heartbeats
  /// ReadIndex barrier clock (leader's value at send; 0 = feature off). The
  /// follower echoes it so the leader can prove it was still leader when a
  /// pending read was enqueued — piggybacked on every AppendEntries, no new
  /// message type (the same discipline HeartbeatMeta follows).
  std::uint64_t read_barrier = 0;

  [[nodiscard]] bool is_heartbeat() const noexcept { return entries.empty(); }
};

struct AppendEntriesResponse {
  Term term = 0;
  bool success = false;
  bool heartbeat = false;     ///< answers an empty (heartbeat) AppendEntries
  LogIndex match_index = 0;   ///< valid when success
  LogIndex conflict_hint = 0; ///< leader backs next_index off to this on reject
  // --- Dynatune piggyback ---
  std::optional<std::uint64_t> echo_id;  ///< heartbeat id being answered
  std::optional<TimePoint> echo_send_ts; ///< leader timestamp echoed verbatim
  std::optional<Duration> tuned_heartbeat; ///< follower-computed h for this path
  std::uint64_t barrier_ack = 0;  ///< request's read_barrier echoed verbatim
};

struct PreVoteRequest {
  Term term = 0;  ///< target term: candidate's current term + 1 (not persisted)
  NodeId candidate = kNoNode;
  LogIndex last_log_index = 0;
  Term last_log_term = 0;
};

struct PreVoteResponse {
  Term term = 0;         ///< voter's current term (for candidate step-down)
  Term target_term = 0;  ///< the prospective term this grant is for
  bool granted = false;
};

struct RequestVoteRequest {
  Term term = 0;
  NodeId candidate = kNoNode;
  LogIndex last_log_index = 0;
  Term last_log_term = 0;
};

struct RequestVoteResponse {
  Term term = 0;
  bool granted = false;
};

/// Raft §7: ship a whole state-machine snapshot to a follower whose
/// next_index fell behind the leader's compaction point. The snapshot rides
/// as a shared handle — per-follower and in-flight copies bump a reference
/// count, never duplicate the image (the same discipline EntryView applies to
/// log segments). The simulator's messages arrive whole, so there is no
/// offset/done chunking.
struct InstallSnapshotRequest {
  Term term = 0;
  NodeId leader = kNoNode;
  SnapshotHandle snapshot;  ///< never null on the wire
};

struct InstallSnapshotResponse {
  Term term = 0;
  bool success = false;
  LogIndex last_index = 0;  ///< snapshot index the follower now covers
};

struct ClientRequest {
  Command command;
};

struct ClientResponse {
  bool ok = false;
  NodeId leader_hint = kNoNode;  ///< where to retry when ok == false
  std::uint64_t client_seq = 0;
  LogIndex index = 0;            ///< log position the command committed at
  std::string result;            ///< state-machine output
};

using Message = std::variant<AppendEntriesRequest, AppendEntriesResponse, PreVoteRequest,
                             PreVoteResponse, RequestVoteRequest, RequestVoteResponse,
                             InstallSnapshotRequest, InstallSnapshotResponse, ClientRequest,
                             ClientResponse>;

/// Message classes for traffic/CPU accounting.
enum class MsgKind : std::uint8_t {
  Heartbeat,
  HeartbeatResponse,
  Append,
  AppendResponse,
  PreVote,
  PreVoteResponse,
  Vote,
  VoteResponse,
  InstallSnapshot,
  InstallSnapshotResponse,
  Client,
  ClientResponse,
};

/// Rough wire sizes used for traffic accounting (bytes), one overload per
/// payload type so dispatch sites that already know the alternative (or that
/// visit for other reasons) don't pay a second variant dispatch.
[[nodiscard]] inline std::size_t approx_size(const AppendEntriesRequest& r) {
  std::size_t s = 64;
  for (const auto& e : r.entries) s += 48 + e.command.payload.size();
  return s;
}
[[nodiscard]] inline std::size_t approx_size(const AppendEntriesResponse&) { return 64; }
[[nodiscard]] inline std::size_t approx_size(const PreVoteRequest&) { return 48; }
[[nodiscard]] inline std::size_t approx_size(const PreVoteResponse&) { return 32; }
[[nodiscard]] inline std::size_t approx_size(const RequestVoteRequest&) { return 48; }
[[nodiscard]] inline std::size_t approx_size(const RequestVoteResponse&) { return 32; }
[[nodiscard]] inline std::size_t approx_size(const InstallSnapshotRequest& r) {
  return 64 + (r.snapshot && r.snapshot->image ? r.snapshot->image->size() : 0);
}
[[nodiscard]] inline std::size_t approx_size(const InstallSnapshotResponse&) { return 48; }
[[nodiscard]] inline std::size_t approx_size(const ClientRequest& r) {
  return 48 + r.command.payload.size();
}
[[nodiscard]] inline std::size_t approx_size(const ClientResponse& r) {
  return 48 + r.result.size();
}

[[nodiscard]] inline std::size_t approx_size(const Message& m) {
  return std::visit([](const auto& p) { return approx_size(p); }, m);
}

}  // namespace dyna::raft
