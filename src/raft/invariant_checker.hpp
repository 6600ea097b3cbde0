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
//     are compared by a 64-bit digest over the same lanes, not stored.
//
// The fingerprint is a 64-bit word-at-a-time hash over (term, config-change
// kind and target, payload length, every payload byte): four independent
// lanes read the payload as 8-byte words (a 1-7 byte tail is zero-padded),
// then one final mix; the low bit is forced to 1 so 0 means "unset". A
// divergent commit escaping detection needs a 63-bit collision. Every
// replica hashes the bytes it holds itself, so a fault in copying or
// replaying an entry shows up as an apply divergence.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

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
    const auto [it, inserted] = leader_by_term_.emplace(term, leader);
    if (!inserted && it->second != leader) {
      record("election safety: term " + std::to_string(term) + " has leaders " +
             std::to_string(it->second) + " and " + std::to_string(leader) + " at " +
             std::to_string(to_ms(when)) + "ms");
    }
  }

  void on_node_started(NodeId node, TimePoint /*when*/) override {
    applied_watermark_[node] = 0;
  }

  void on_entry_committed(NodeId node, const LogEntry& entry, TimePoint when) override {
    // Monotonic apply: strictly increasing between (re)starts. Gaps are fine
    // (snapshot install jumps the watermark forward).
    auto& mark = applied_watermark_[node];
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
    const std::uint64_t digest = hash_bytes(
        {kPrime1 + kPrime2, kPrime2, 0, round(0 - kPrime1, serialized.size())}, serialized);
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
    const std::string& payload = entry.command.payload;
    const auto target = static_cast<std::int64_t>(entry.command.config_target);
    // Each identity field seeds its own lane. A round is a bijection of its
    // input word and of the running lane, so changing one field, or one
    // payload word at a fixed length, always changes the fingerprint.
    return hash_bytes({round(kPrime1 + kPrime2, static_cast<std::uint64_t>(entry.term)),
                       round(kPrime2, static_cast<std::uint64_t>(entry.command.config_change)),
                       round(0, static_cast<std::uint64_t>(target)),
                       round(0 - kPrime1, static_cast<std::uint64_t>(payload.size()))},
                      payload);
  }

 private:
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

  /// Fold `bytes` into four seeded lanes as 8-byte words (a 1-7 byte tail is
  /// zero-padded), then mix the lanes down to one word with the low bit set.
  /// The caller seeds a lane with the length, which tells "a" from "a\0".
  [[nodiscard]] static std::uint64_t hash_bytes(std::array<std::uint64_t, 4> lane,
                                                std::string_view bytes) noexcept {
    const char* p = bytes.data();
    const std::size_t n = bytes.size();
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
      lane[0] = round(lane[0], load_word(p + i));
      lane[1] = round(lane[1], load_word(p + i + 8));
      lane[2] = round(lane[2], load_word(p + i + 16));
      lane[3] = round(lane[3], load_word(p + i + 24));
    }
    std::size_t k = 0;
    for (; i + 8 <= n; i += 8) {
      lane[k] = round(lane[k], load_word(p + i));
      ++k;
    }
    if (i < n) {
      std::uint64_t tail = 0;
      std::memcpy(&tail, p + i, n - i);
      lane[k] = round(lane[k], tail);
    }
    std::uint64_t h = std::rotl(lane[0], 1) + std::rotl(lane[1], 7) + std::rotl(lane[2], 12) +
                      std::rotl(lane[3], 18);
    h ^= h >> 33;
    h *= kPrime2;
    h ^= h >> 29;
    h *= kPrime3;
    h ^= h >> 32;
    return h | 1;
  }

  static constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
  static constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
  static constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;

  [[nodiscard]] static std::uint64_t round(std::uint64_t lane, std::uint64_t word) noexcept {
    return std::rotl(lane + word * kPrime2, 31) * kPrime1;
  }

  /// Native-endian 8-byte load; memcpy keeps it free of alignment and
  /// aliasing assumptions (fingerprints are only compared in-process).
  [[nodiscard]] static std::uint64_t load_word(const char* p) noexcept {
    std::uint64_t w;
    std::memcpy(&w, p, sizeof w);
    return w;
  }

  std::unordered_map<Term, NodeId> leader_by_term_;
  std::unordered_map<NodeId, LogIndex> applied_watermark_;
  /// Index-keyed fingerprints of applied entries; 0 = unset.
  std::vector<std::uint64_t> committed_;
  /// Digest of the first serialized state audited at each last_applied.
  std::unordered_map<LogIndex, std::pair<NodeId, std::uint64_t>> state_by_applied_;
  std::vector<Violation> violations_;
  std::uint64_t count_ = 0;
  LogIndex max_committed_ = 0;
};

}  // namespace dyna::raft
