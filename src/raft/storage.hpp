// Persistent state interface.
//
// Raft requires currentTerm, votedFor and the log to survive crashes. The
// cluster harness keeps one Storage per server across crash/restart cycles;
// a restarted node reloads from it. The in-memory implementation is exact
// (the experiments do not model disk latency — the paper ran on unthrottled
// NVMe and its results are network-bound).
//
// The durable log owns no payload bytes. A LogEntry's payload is a
// raft::Payload, so appending an entry here, replaying it through
// load_log() and handing it back to the node's segment store all share the
// one immutable buffer the client encoded; what the storage keeps per
// entry is its term, index, routing fields and a reference.
#pragma once

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "raft/types.hpp"

namespace dyna::raft {

class Storage {
 public:
  virtual ~Storage() = default;

  virtual void save_hard_state(Term term, NodeId voted_for) = 0;
  [[nodiscard]] virtual std::pair<Term, NodeId> load_hard_state() const = 0;

  /// Append entries at the end of the durable log.
  virtual void append(std::span<const LogEntry> entries) = 0;

  /// Remove all entries with index >= first_removed.
  virtual void truncate_from(LogIndex first_removed) = 0;

  /// Read-only view of the durable log, valid until the next mutation of
  /// this Storage. Recovery copies it into the node's segment store once —
  /// the interface itself never forces a copy (a node with a large log used
  /// to pay a full vector copy here on every restart). With an active
  /// snapshot the view is the suffix starting at log_start().first + 1.
  [[nodiscard]] virtual std::span<const LogEntry> load_log() const = 0;

  /// Persist the state-machine snapshot alongside hard state. The
  /// handle is shared, not copied — the durable snapshot is the same
  /// immutable object the node (and any in-flight InstallSnapshot) holds.
  virtual void save_snapshot(SnapshotHandle snapshot) { (void)snapshot; }

  /// Last persisted snapshot, or nullptr. Recovery restores the state
  /// machine from it and replays only the log suffix behind it.
  [[nodiscard]] virtual SnapshotHandle load_snapshot() const { return nullptr; }

  /// Drop durable entries with index <= c (term of entry c is term_c): the
  /// persisted snapshot covers them. load_log() afterwards starts at c + 1.
  virtual void compact_log_to(LogIndex c, Term term_c) { (void)c; (void)term_c; }

  /// Replace the whole durable log with an empty suffix starting after
  /// (s, term_s) — the InstallSnapshot wipe when the local log conflicts
  /// with the leader's snapshot.
  virtual void reset_log(LogIndex s, Term term_s) { (void)s; (void)term_s; }

  /// (compacted-through index, its term) of the durable log; (0, 0) while
  /// uncompacted. load_log() entries are contiguous from first + 1.
  [[nodiscard]] virtual std::pair<LogIndex, Term> log_start() const { return {0, 0}; }

  /// Whether the log (and snapshot) actually survive a crash/restart cycle.
  /// Cluster::restart refuses to revive a node whose storage discards the
  /// log — that would silently resurrect it with committed entries missing.
  [[nodiscard]] virtual bool durable_log() const { return false; }

  /// Wipe everything — the disk of a brand-new deployment. Distinct from
  /// crash/restart (which persists): this is the trial-reuse path, where one
  /// Storage object serves consecutive independent trials and must keep its
  /// buffer capacity while dropping all content.
  virtual void reset_for_trial() = 0;
};

/// Storage that persists hard state but discards the log. For workloads that
/// never exercise crash-recovery (e.g. the throughput benchmarks) this halves
/// the memory footprint of long runs. Restarting a node over NullStorage
/// would yield an empty log, so Cluster::restart rejects it (durable_log()
/// stays false, as do the snapshot defaults inherited from Storage).
class NullStorage final : public Storage {
 public:
  void save_hard_state(Term term, NodeId voted_for) override {
    term_ = term;
    voted_for_ = voted_for;
  }

  [[nodiscard]] std::pair<Term, NodeId> load_hard_state() const override {
    return {term_, voted_for_};
  }

  void append(std::span<const LogEntry>) override {}
  void truncate_from(LogIndex) override {}
  [[nodiscard]] std::span<const LogEntry> load_log() const override { return {}; }

  void reset_for_trial() override {
    term_ = 0;
    voted_for_ = kNoNode;
  }

 private:
  Term term_ = 0;
  NodeId voted_for_ = kNoNode;
};

class MemoryStorage final : public Storage {
 public:
  void save_hard_state(Term term, NodeId voted_for) override {
    term_ = term;
    voted_for_ = voted_for;
  }

  [[nodiscard]] std::pair<Term, NodeId> load_hard_state() const override {
    return {term_, voted_for_};
  }

  /// Copies each entry's metadata and shares its payload (a count bump).
  void append(std::span<const LogEntry> entries) override {
    for (const auto& e : entries) {
      DYNA_EXPECTS(e.index == start_.first + log_.size() + 1);  // contiguous suffix
      log_.push_back(e);
    }
  }

  void truncate_from(LogIndex first_removed) override {
    DYNA_EXPECTS(first_removed > start_.first);
    if (first_removed <= start_.first + log_.size()) {
      log_.resize(static_cast<std::size_t>(first_removed - start_.first - 1));
    }
  }

  [[nodiscard]] std::span<const LogEntry> load_log() const override { return log_; }

  void save_snapshot(SnapshotHandle snapshot) override { snapshot_ = std::move(snapshot); }

  [[nodiscard]] SnapshotHandle load_snapshot() const override { return snapshot_; }

  void compact_log_to(LogIndex c, Term term_c) override {
    DYNA_EXPECTS(c >= start_.first && c <= start_.first + log_.size());
    log_.erase(log_.begin(), log_.begin() + static_cast<std::ptrdiff_t>(c - start_.first));
    start_ = {c, term_c};
  }

  void reset_log(LogIndex s, Term term_s) override {
    log_.clear();
    start_ = {s, term_s};
  }

  [[nodiscard]] std::pair<LogIndex, Term> log_start() const override { return start_; }

  [[nodiscard]] bool durable_log() const override { return true; }

  void reset_for_trial() override {
    term_ = 0;
    voted_for_ = kNoNode;
    log_.clear();  // capacity survives for the next trial's log
    start_ = {0, 0};
    snapshot_.reset();  // snapshot images must not leak into the next trial
  }

 private:
  Term term_ = 0;
  NodeId voted_for_ = kNoNode;
  std::vector<LogEntry> log_;  ///< suffix [start_.first + 1, ...]
  std::pair<LogIndex, Term> start_{0, 0};  ///< durable compaction line
  SnapshotHandle snapshot_;
};

}  // namespace dyna::raft
