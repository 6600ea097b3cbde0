// Always-on Raft safety invariant checker.
//
// A passive Observer attached by the Cluster to every node in every trial
// (tests, benches, and the sweep substrate alike), plus an end-of-trial deep
// audit driven by the harness. Violations are recorded, never thrown: a trial
// that breaks safety still completes and reports, so sweeps can count
// violations across thousands of trials.
//
// Streaming checks (per observer event, O(1) amortized):
//   * Election safety — at most one leader per term.
//   * Log matching / leader completeness witness — the first node to apply
//     index i registers fingerprint(term, command) in a commit table; every
//     later apply of i (any node, including post-restart replay) must match.
//   * Monotonic commit/apply — each node's applied indices are strictly
//     increasing between (re)starts.
//
// End-of-trial audit (O(total live log), run by Cluster::audit_invariants):
//   * Every entry still in any node's log at a committed index must match the
//     commit table (log matching across the cluster's final state).
//   * The current leader's log+snapshot must cover every committed index
//     (leader completeness).
//   * Replicas with equal last_applied must have byte-identical state-machine
//     serializations, and so must a durable snapshot image and any replica
//     state at the image's index (applied-prefix equality). Serializations
//     are compared by their hash::digest, not stored.
//
// The fingerprint is the four-lane mix of common/hash.hpp seeded by term,
// config-change kind, config target and the payload's digest (which covers
// its length and every byte); the low bit is forced to 1 so 0 means
// "unset". A divergent commit escaping detection needs a 63-bit collision.
// Every replica's fingerprint reads the digest of the block it holds itself.
// Blocks are immutable and a block computes its digest once, from its own
// bytes, so replicas sharing the leader's block hash it once between them,
// while a replica holding other bytes (a bad copy or replay) holds another
// block and shows up as an apply divergence.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/types.hpp"
#include "raft/observer.hpp"
#include "raft/types.hpp"

namespace dyna::raft {

class InvariantChecker final : public Observer {
 public:
  struct Violation {
    std::string what;
  };

  /// Cap on stored violation descriptions (the count keeps incrementing).
  static constexpr std::size_t kMaxStored = 32;

  // ---- Streaming checks (Observer) ----

  void on_leader_established(NodeId leader, Term term, TimePoint when) override {
    const auto slot = static_cast<std::size_t>(term);
    if (leader_by_term_.size() <= slot) leader_by_term_.resize(slot + 1, kNoNode);
    NodeId& known = leader_by_term_[slot];
    if (known == kNoNode) {
      known = leader;
    } else if (known != leader) {
      record("election safety: term " + std::to_string(term) + " has leaders " +
             std::to_string(known) + " and " + std::to_string(leader) + " at " +
             std::to_string(to_ms(when)) + "ms");
    }
  }

  void on_node_started(NodeId node, TimePoint /*when*/) override { watermark(node) = 0; }

  void on_entry_committed(NodeId node, const LogEntry& entry, TimePoint when) override {
    // Monotonic apply: strictly increasing between (re)starts. Gaps are fine
    // (snapshot install jumps the watermark forward).
    LogIndex& mark = watermark(node);
    if (entry.index <= mark) {
      record("monotonic apply: node " + std::to_string(node) + " applied index " +
             std::to_string(entry.index) + " after " + std::to_string(mark) + " at " +
             std::to_string(to_ms(when)) + "ms");
    } else {
      mark = entry.index;
    }
    check_against_table(node, entry, "apply divergence");
    if (entry.index > max_committed_) max_committed_ = entry.index;
  }

  // ---- End-of-trial audit helpers (driven by Cluster::audit_invariants) ----

  /// Audit one log entry of a node's final state against the commit table.
  void audit_log_entry(NodeId node, const LogEntry& entry) {
    check_against_table(node, entry, "log divergence");
  }

  /// Leader completeness: the leader's reachable history (snapshot floor +
  /// log tail) must cover every index some replica applied.
  void audit_leader_coverage(NodeId leader, LogIndex last_log_index) {
    if (last_log_index < max_committed_) {
      record("leader completeness: leader " + std::to_string(leader) + " log ends at " +
             std::to_string(last_log_index) + " but index " + std::to_string(max_committed_) +
             " was applied somewhere");
    }
  }

  /// Applied-prefix equality: replicas at the same last_applied must agree on
  /// the serialized state machine. Only a 64-bit digest of the first
  /// serialization seen at each index is kept, so the audit holds no copies.
  void audit_applied_state(NodeId node, LogIndex last_applied, std::string_view serialized) {
    const std::uint64_t digest = hash::digest(serialized);
    const auto [it, inserted] = state_by_applied_.try_emplace(last_applied, node, digest);
    if (!inserted && it->second.second != digest) {
      record("applied-prefix equality: nodes " + std::to_string(it->second.first) + " and " +
             std::to_string(node) + " diverge at last_applied " + std::to_string(last_applied));
    }
  }

  // ---- Results ----

  [[nodiscard]] bool ok() const noexcept { return count_ == 0; }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] const std::vector<Violation>& violations() const noexcept { return violations_; }
  [[nodiscard]] LogIndex max_committed() const noexcept { return max_committed_; }

  /// Wipe all trial state (called by the cluster between trials).
  void clear() {
    leader_by_term_.clear();
    applied_watermark_.clear();
    committed_.clear();
    state_by_applied_.clear();
    violations_.clear();
    count_ = 0;
    max_committed_ = 0;
  }

  /// 64-bit fingerprint of a log entry's identity (exposed for tests).
  [[nodiscard]] static std::uint64_t fingerprint(const LogEntry& entry) noexcept {
    using hash::kPrime1;
    using hash::kPrime2;
    using hash::round;
    const auto target = static_cast<std::int64_t>(entry.command.config_target);
    // Each identity field seeds its own lane. A round is a bijection of its
    // input word and of the running lane, so changing one field, or the
    // payload's digest, always changes the fingerprint.
    return hash::hash_bytes(
        {round(kPrime1 + kPrime2, static_cast<std::uint64_t>(entry.term)),
         round(kPrime2, static_cast<std::uint64_t>(entry.command.config_change)),
         round(0, static_cast<std::uint64_t>(target)),
         round(0 - kPrime1, entry.command.payload.digest())},
        {});
  }

 private:
  /// The node's apply watermark (0 until it applies anything).
  [[nodiscard]] LogIndex& watermark(NodeId node) {
    DYNA_EXPECTS(node >= 0);
    const auto slot = static_cast<std::size_t>(node);
    if (applied_watermark_.size() <= slot) applied_watermark_.resize(slot + 1, 0);
    return applied_watermark_[slot];
  }

  void check_against_table(NodeId node, const LogEntry& entry, const char* kind) {
    if (entry.index == 0) return;
    const std::size_t slot = static_cast<std::size_t>(entry.index);
    if (committed_.size() <= slot) committed_.resize(slot + 1, 0);
    const std::uint64_t h = fingerprint(entry);
    if (committed_[slot] == 0) {
      committed_[slot] = h;
    } else if (committed_[slot] != h) {
      record(std::string(kind) + ": node " + std::to_string(node) + " holds a different entry at " +
             "committed index " + std::to_string(entry.index) + " (term " +
             std::to_string(entry.term) + ")");
    }
  }

  void record(std::string what) {
    ++count_;
    if (violations_.size() < kMaxStored) violations_.push_back(Violation{std::move(what)});
  }

  /// Term-indexed leader of each term; kNoNode = none seen. Terms and node
  /// ids are small and dense, so plain vectors index them.
  std::vector<NodeId> leader_by_term_;
  /// NodeId-indexed highest index each node applied since its last start.
  std::vector<LogIndex> applied_watermark_;
  /// Index-keyed fingerprints of applied entries; 0 = unset.
  std::vector<std::uint64_t> committed_;
  /// Digest of the first serialized state audited at each last_applied.
  std::unordered_map<LogIndex, std::pair<NodeId, std::uint64_t>> state_by_applied_;
  std::vector<Violation> violations_;
  std::uint64_t count_ = 0;
  LogIndex max_committed_ = 0;
};

}  // namespace dyna::raft
