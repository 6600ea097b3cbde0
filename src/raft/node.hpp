// A complete Raft server: leader election with pre-vote, heartbeats, log
// replication, commitment, crash/recovery persistence — plus the Dynatune
// measurement plumbing (heartbeat ids, timestamp echoes, RTT computation)
// behind the ElectionPolicy seam.
//
// The node is driven entirely by simulator events: timer expiries and
// network deliveries. It never reads wall-clock time or global state, so a
// trial is a pure function of (config, seeds, fault schedule).
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "fault/injector.hpp"
#include "net/network.hpp"
#include "raft/config.hpp"
#include "raft/election_policy.hpp"
#include "raft/log.hpp"
#include "raft/message.hpp"
#include "raft/observer.hpp"
#include "raft/storage.hpp"
#include "sim/simulator.hpp"

namespace dyna::raft {

class RaftNode {
 public:
  /// Applies a committed entry to the host's state machine. Return value is
  /// the result string sent back to the client (leader only).
  using ApplyFn = std::function<std::string(const LogEntry&)>;

  /// Freezes the host state machine as of the entries applied so far into
  /// an immutable image (called only from the apply path, so the machine is
  /// exactly at last_applied). Wired by the cluster alongside ApplyFn.
  using SnapshotFn = std::function<std::shared_ptr<const SnapshotImage>()>;

  /// Resets the host state machine to a snapshot's image (recovery and
  /// InstallSnapshot adoption).
  using RestoreFn = std::function<void(const Snapshot&)>;

  /// Classifies a client payload as read-only (ReadIndex eligibility). The
  /// raft layer stays payload-agnostic: the host supplies the classifier.
  using ReadOnlyFn = std::function<bool(std::string_view)>;

  /// Answers a read-only payload from the host state machine (called only
  /// once the ReadIndex rule is satisfied — see drain_reads()).
  using ReadFn = std::function<std::string(std::string_view)>;

  RaftNode(NodeId id, std::vector<NodeId> peers, sim::Simulator& simulator,
           net::Network& network, RaftConfig config, std::shared_ptr<Storage> storage,
           std::unique_ptr<ElectionPolicy> policy, Rng rng);

  RaftNode(const RaftNode&) = delete;
  RaftNode& operator=(const RaftNode&) = delete;

  /// Begin operating (arm the election timer). Reloads persistent state.
  void start();

  /// Rebuild-in-place for trial reuse: return every member to its
  /// freshly-constructed value (buffer capacity kept) with a new RNG, so a
  /// subsequent start() is indistinguishable from starting a brand-new node
  /// over the same (already reset) Storage. Preconditions: the owning
  /// harness has reset the Simulator and Storage, and the policy is
  /// resettable_for_trial(). Stale timer handles are forgotten, never
  /// cancelled — after a simulator reset they could alias fresh events.
  void reset_for_trial(Rng rng);

  /// Permanently stop (crash). Timers cancelled; messages ignored. Restart
  /// by constructing a fresh node over the same Storage.
  void stop();

  /// Freeze, as if the hosting container were paused: timers hold their
  /// remaining durations, nothing is processed until resume().
  void pause();
  void resume();

  /// Entry point for all network traffic (wired up by the cluster).
  void handle_message(NodeId from, const Message& message);

  /// Submit a command (leader only). Returns the assigned log index, or
  /// nullopt when this node is not the leader.
  std::optional<LogIndex> submit(Command command);

  /// Propose a single-server membership change (leader only). At most one
  /// change may be uncommitted at a time; returns nullopt when this node is
  /// not the leader or a change is already in flight.
  std::optional<LogIndex> propose_config_change(ConfigChange kind, NodeId target);

  /// Attach a fault injector (crash points fire through it) and the callback
  /// invoked after a firing has stopped the node. The callback runs with the
  /// stack fully unwound out of raft code, but must still defer teardown of
  /// the node object to a fresh simulator event.
  void set_fault(fault::Injector* injector, std::function<void(NodeId)> on_crash) {
    fault_ = injector;
    on_crash_ = std::move(on_crash);
  }

  /// Mark this node a non-voting learner before start() (joining servers).
  void set_self_learner(bool learner) noexcept { self_learner_ = learner; }

  void set_apply(ApplyFn apply) { apply_ = std::move(apply); }
  void set_snapshot_hooks(SnapshotFn take, RestoreFn restore) {
    snapshot_fn_ = std::move(take);
    restore_ = std::move(restore);
  }
  /// Wire the ReadIndex fast path (both hooks required for it to engage).
  void set_read_hooks(ReadOnlyFn classify, ReadFn read) {
    read_only_fn_ = std::move(classify);
    read_fn_ = std::move(read);
  }
  void add_observer(Observer* observer);

  // ---- Introspection ---------------------------------------------------------

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] Role role() const noexcept { return role_; }
  [[nodiscard]] Term term() const noexcept { return term_; }
  [[nodiscard]] bool is_leader() const noexcept { return role_ == Role::Leader; }
  [[nodiscard]] NodeId leader_hint() const noexcept { return leader_; }
  [[nodiscard]] bool running() const noexcept { return running_ && !paused_; }
  [[nodiscard]] bool paused() const noexcept { return paused_; }
  [[nodiscard]] LogIndex commit_index() const noexcept { return commit_index_; }
  [[nodiscard]] LogIndex last_applied() const noexcept { return last_applied_; }
  [[nodiscard]] LogIndex last_log_index() const noexcept { return log_.last_index(); }
  [[nodiscard]] LogIndex first_log_index() const noexcept { return log_.first_index(); }
  /// Index the current snapshot covers through (0 = no snapshot).
  [[nodiscard]] LogIndex snapshot_index() const noexcept {
    return snapshot_ ? snapshot_->last_index : 0;
  }
  [[nodiscard]] std::uint64_t snapshots_taken() const noexcept { return snapshots_taken_; }
  [[nodiscard]] const RaftLog& log() const noexcept { return log_; }
  [[nodiscard]] SnapshotHandle snapshot() const noexcept { return snapshot_; }
  /// Current membership view (config-change state; see ConfigChange).
  [[nodiscard]] const std::vector<NodeId>& peers() const noexcept { return peers_; }
  [[nodiscard]] bool is_learner() const noexcept { return self_learner_; }
  /// True once a committed Remove for this node has applied.
  [[nodiscard]] bool has_left() const noexcept { return left_; }
  [[nodiscard]] std::size_t voter_count() const noexcept {
    std::size_t voters = self_learner_ || left_ ? 0 : 1;
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      if (peer_learner_[i] == 0) ++voters;
    }
    return voters;
  }
  [[nodiscard]] ElectionPolicy& policy() noexcept { return *policy_; }
  [[nodiscard]] const RaftConfig& config() const noexcept { return config_; }

  /// The currently drawn randomizedTimeout (the quantity Fig 6 plots).
  [[nodiscard]] Duration randomized_timeout() const noexcept { return randomized_timeout_; }

  /// Leader-side: last RTT measured toward `follower` (measurement mode).
  [[nodiscard]] std::optional<Duration> last_measured_rtt(NodeId follower) const;

  /// Leader-side: heartbeat interval currently in force toward `follower`.
  [[nodiscard]] Duration effective_heartbeat_interval(NodeId follower) const {
    return policy_->heartbeat_interval(follower);
  }

  // Group-commit / ReadIndex accounting (bench + leak checks).
  [[nodiscard]] std::uint64_t batches_sealed() const noexcept { return batches_sealed_; }
  [[nodiscard]] std::uint64_t batched_commands() const noexcept { return batched_commands_; }
  [[nodiscard]] std::uint64_t reads_served() const noexcept { return reads_served_; }
  [[nodiscard]] std::size_t pending_batch_commands() const noexcept { return batch_acc_.size(); }
  [[nodiscard]] std::size_t pending_batch_routes() const noexcept { return batch_routes_.size(); }
  [[nodiscard]] std::size_t pending_read_count() const noexcept { return pending_reads_.size(); }

 private:
  // ---- Role transitions ----
  void become_follower(Term term, NodeId leader);
  void start_prevote();
  void start_election();
  void become_leader();

  // ---- Timer handling ----
  void on_election_deadline();
  void reset_election_timer();
  void refresh_randomized_timeout(bool force_redraw);
  [[nodiscard]] Duration draw_randomized_timeout(Duration base) ;

  // ---- Message handlers ----
  void dispatch_message(NodeId from, const Message& message);
  void on_append_entries(NodeId from, const AppendEntriesRequest& req);
  void on_append_response(NodeId from, const AppendEntriesResponse& resp);
  void on_install_snapshot(NodeId from, const InstallSnapshotRequest& req);
  void on_install_snapshot_response(NodeId from, const InstallSnapshotResponse& resp);
  void on_prevote_request(NodeId from, const PreVoteRequest& req);
  void on_prevote_response(NodeId from, const PreVoteResponse& resp);
  void on_vote_request(NodeId from, const RequestVoteRequest& req);
  void on_vote_response(NodeId from, const RequestVoteResponse& resp);
  void on_client_request(NodeId from, const ClientRequest& req);

  // ---- Leader machinery (peer-indexed: `slot` addresses peers_[slot]) ----
  void arm_heartbeat_timers();
  void send_heartbeat(std::size_t slot);
  void broadcast_heartbeats();
  [[nodiscard]] Duration broadcast_interval() const;
  void schedule_flush();
  void flush_replication();
  void replicate_to(std::size_t slot);
  LogIndex append_leader_entry(Command command);
  void seal_batch();
  void drain_reads();
  void send_read_probes();
  void fail_pending_client_work();
  void send_install_snapshot(std::size_t slot);
  void maybe_advance_commit();
  void apply_committed();
  void maybe_take_snapshot();

  // ---- Helpers ----
  void persist_hard_state();
  void persist_append(std::span<const LogEntry> entries);
  [[nodiscard]] bool log_up_to_date(LogIndex their_index, Term their_term) const;
  [[nodiscard]] Term term_at(LogIndex index) const;
  /// Quorum over the VOTER set (learners replicate but never count).
  [[nodiscard]] std::size_t majority() const noexcept { return voter_count() / 2 + 1; }
  [[nodiscard]] bool heard_from_leader_recently() const;
  void send(NodeId to, Message message, net::Transport transport, MsgKind kind);
  void notify_role_change(Role from, Role to);

  // ---- Membership (single-server changes, applied on commit) ----
  void apply_config_change(const LogEntry& entry);
  void add_peer(NodeId peer, bool learner);
  void remove_peer(NodeId peer);
  void rebuild_peer_slots();
  /// Adopt an explicit membership (snapshot restore / install). No-op when it
  /// matches the current view, so legacy trials take identical paths.
  void install_membership(const std::vector<NodeId>& voters,
                          const std::vector<NodeId>& learners);
  /// Re-arm leader replication timers after the peer set changed (the
  /// per-follower timer lambdas capture slots, which just moved).
  void rebuild_leader_timers();

  // ---- Fault injection ----
  /// Fires the named crash point when the injector decides this visit dies.
  void crash_point(fault::CrashPoint p) {
    if (fault_ != nullptr && fault_->visit(p)) throw fault::CrashSignal{};
  }
  /// Wraps an entry point (message delivery, timer callback, submit): a
  /// CrashSignal unwinding out of `f` stops the node and reports the crash.
  /// Zero overhead when no injector is attached; nested guards don't catch,
  /// so the unwind always reaches the outermost entry point.
  template <typename F>
  void with_crash_guard(F&& f) {
    if (fault_ == nullptr || guard_depth_ > 0) {
      f();
      return;
    }
    ++guard_depth_;
    struct Depth {
      int& d;
      ~Depth() { --d; }
    } depth{guard_depth_};
    try {
      f();
    } catch (const fault::CrashSignal&) {
      stop();
      if (on_crash_) on_crash_(id_);
    }
  }

  /// Everything the leader tracks per follower, in one dense vector parallel
  /// to peers_ (slot i describes peers_[i]). Replaces six node-keyed
  /// std::maps: heartbeat fan-out and response handling are O(n) array walks
  /// with no allocation and no red-black-tree pointer chasing.
  struct PeerState {
    LogIndex next_index = 0;
    LogIndex match_index = 0;
    std::uint64_t next_heartbeat_id = 0;    ///< measurement sequence (Dynatune)
    Duration last_rtt{0};
    bool has_rtt = false;
    TimePoint last_sent = kNever;           ///< heartbeat suppression watermark
    std::uint64_t acked_barrier = 0;        ///< highest ReadIndex barrier echoed back
    std::unique_ptr<sim::Timer> heartbeat_timer;  ///< per-follower mode only
    Duration frozen_heartbeat_remaining{0};       ///< pause() bookkeeping
    bool heartbeat_frozen = false;
  };

  /// Dense slot of `peer` in peers_ / peer_state_, or -1 for strangers.
  [[nodiscard]] int peer_slot(NodeId peer) const noexcept {
    const auto i = static_cast<std::size_t>(peer);
    return peer >= 0 && i < peer_slot_.size() ? peer_slot_[i] : -1;
  }

  // ---- Identity / wiring ----
  NodeId id_;
  std::vector<NodeId> peers_;
  std::vector<int> peer_slot_;  ///< NodeId -> index into peers_/peer_state_
  std::vector<std::uint8_t> peer_learner_;  ///< slot-parallel to peers_: 1 = learner
  std::vector<NodeId> founding_peers_;      ///< construction-time peer set (trial reset)
  sim::Simulator* sim_;
  net::Network* net_;
  RaftConfig config_;
  std::shared_ptr<Storage> storage_;
  std::unique_ptr<ElectionPolicy> policy_;
  Rng rng_;
  ApplyFn apply_;
  SnapshotFn snapshot_fn_;
  RestoreFn restore_;
  std::vector<Observer*> observers_;

  // ---- Persistent state (mirrored in storage_) ----
  Term term_ = 0;
  NodeId voted_for_ = kNoNode;
  RaftLog log_;  ///< segment store; entry i+1 lives at log_[i]
  SnapshotHandle snapshot_;  ///< current snapshot (mirrored in storage_)
  std::uint64_t snapshots_taken_ = 0;  ///< snapshots this node built itself

  // ---- Volatile state ----
  Role role_ = Role::Follower;
  NodeId leader_ = kNoNode;
  LogIndex commit_index_ = 0;
  LogIndex last_applied_ = 0;
  bool running_ = false;
  bool paused_ = false;

  // ---- Membership state ----
  bool self_learner_ = false;        ///< this node is a non-voting learner
  bool left_ = false;                ///< a committed Remove for this node applied
  bool membership_changed_ = false;  ///< any config entry applied this trial
  LogIndex pending_config_ = 0;      ///< index of the in-flight change (leader)

  // ---- Fault injection ----
  fault::Injector* fault_ = nullptr;
  std::function<void(NodeId)> on_crash_;
  int guard_depth_ = 0;

  // Election timing.
  sim::Timer election_timer_;
  Duration randomized_timeout_{};
  Duration randomized_base_{};  // Et used for the current draw
  TimePoint last_leader_contact_ = kSimEpoch;

  // Pre-vote state. Grants accumulate per *target term* across retry rounds
  // (etcd semantics): a grant answering an earlier round still counts as long
  // as the prospective term is unchanged — essential for elections to ignite
  // when the RTT exceeds the election timeout.
  Term prevote_target_ = 0;
  std::set<NodeId> prevote_grants_;

  // Candidate state.
  std::set<NodeId> vote_grants_;

  // Leader state: one dense PeerState per follower (slot-parallel to peers_),
  // including measurement plumbing, suppression watermarks, per-follower
  // heartbeat timers and their pause()-frozen remainders.
  std::vector<PeerState> peer_state_;
  std::unique_ptr<sim::Timer> broadcast_timer_;  // broadcast mode
  bool flush_scheduled_ = false;
  /// The pending flush event (valid iff flush_scheduled_). stop() must cancel
  /// it: a crash can destroy this node while the event is in flight, and the
  /// lambda captures `this`.
  sim::EventId flush_event_ = sim::kInvalidEvent;
  std::vector<LogIndex> match_scratch_;  ///< maybe_advance_commit, reused

  // ---- Group commit (leader only; config_.group_commit) ----
  // Commands accepted within a batch_delay window accumulate here, then seal
  // into ONE multi-command log entry. The route deque remembers, per sealed
  // batch entry, which (client, seq) each member result fans back out to —
  // routes and commits are both FIFO in index order, so the front route
  // always describes the next batch entry to apply. Admission is pipelined:
  // batch N+1 accumulates while batch N is still replicating.
  struct PendingCommand {
    std::string payload;
    NodeId client = kNoNode;
    std::uint64_t client_seq = 0;
  };
  struct BatchRoute {
    LogIndex index = 0;
    std::vector<std::pair<NodeId, std::uint64_t>> members;  ///< (client, seq)
  };
  std::vector<PendingCommand> batch_acc_;
  std::size_t batch_acc_bytes_ = 0;  ///< frame bytes batch_acc_ would seal to
  std::deque<BatchRoute> batch_routes_;
  std::uint64_t batches_sealed_ = 0;    ///< multi-command frames only
  std::uint64_t batched_commands_ = 0;  ///< members of those frames

  // ---- ReadIndex fast path (leader only; config_.read_index) ----
  // A pending read remembers the commit index at admission and a barrier
  // ticket; it completes once a quorum has echoed a barrier >= the ticket
  // (leadership confirmed after admission) and the state machine has applied
  // through the remembered index. FIFO: reads never overtake each other.
  struct PendingRead {
    std::uint64_t barrier = 0;
    LogIndex read_index = 0;
    std::string payload;
    NodeId client = kNoNode;
    std::uint64_t client_seq = 0;
  };
  std::deque<PendingRead> pending_reads_;
  std::uint64_t barrier_clock_ = 0;  ///< monotone; stamped on every AppendEntries
  std::uint64_t reads_served_ = 0;
  ReadOnlyFn read_only_fn_;
  ReadFn read_fn_;

  // Pause bookkeeping for the node-wide timers.
  std::optional<Duration> frozen_election_remaining_;
  std::optional<Duration> frozen_broadcast_remaining_;
};

}  // namespace dyna::raft
