// Outside-in tracing for the benchmark driver.
//
// Nothing here touches the simulator's sources: every number comes from a
// public seam. Passive observers ride ClusterConfig::observers, a decorator
// wraps ClusterConfig::policy_factory, and the driver times its own calls into
// Cluster / ScenarioRunner / ClosedLoopPool with the Span accumulators below.
// Counts are pure functions of the seed; times are wall clock with the
// calibrated cost of the clock reads themselves subtracted.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "cluster/cluster.hpp"
#include "dynatune/policy.hpp"
#include "raft/election_policy.hpp"
#include "raft/invariant_checker.hpp"
#include "raft/observer.hpp"

namespace perfbench {

using namespace dyna;

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median duration of an empty timed region (two back-to-back clock reads):
/// what every Span::add() over-reports per call.
[[nodiscard]] inline double calibrate_clock_ns() {
  constexpr int kSamples = 20001;
  std::vector<std::int64_t> d(kSamples);
  for (auto& x : d) {
    const std::int64_t t0 = now_ns();
    x = now_ns() - t0;
  }
  std::nth_element(d.begin(), d.begin() + kSamples / 2, d.end());
  return static_cast<double>(d[kSamples / 2]);
}

/// Calls into one seam and the wall time they took.
struct Span {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;

  void add(std::int64_t d) noexcept {
    ++calls;
    ns += d;
  }
  void merge(const Span& o) noexcept {
    calls += o.calls;
    ns += o.ns;
  }
  /// Self time with the clock-read cost removed, clamped at zero.
  [[nodiscard]] double self_ns(double clock_ns) const noexcept {
    return std::max(0.0, static_cast<double>(ns) - static_cast<double>(calls) * clock_ns);
  }
  [[nodiscard]] double mean_us(double clock_ns) const noexcept {
    return calls == 0 ? 0.0 : self_ns(clock_ns) / static_cast<double>(calls) / 1e3;
  }
};

inline constexpr std::size_t kMsgKinds =
    static_cast<std::size_t>(raft::MsgKind::ClientResponse) + 1;

/// Everything one traced pass records. Integer counts merge exactly, so a
/// multi-worker pass sums to the same totals in any completion order.
struct LayerCounters {
  std::uint64_t units = 0;  ///< trials, kills or client ops
  std::uint64_t sim_events = 0;
  std::int64_t sim_ns = 0;  ///< simulated time covered
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t datagrams_lost = 0;
  std::array<std::uint64_t, kMsgKinds> kind_msgs{};
  std::array<std::uint64_t, kMsgKinds> kind_bytes{};
  std::uint64_t entries_committed = 0;  ///< apply events, summed over replicas
  std::uint64_t elections = 0;          ///< transitions into Candidate
  std::uint64_t election_timeouts = 0;
  std::uint64_t retunes = 0;
  std::uint64_t batches_sealed = 0;
  std::uint64_t batched_commands = 0;
  std::uint64_t reads_served = 0;
  std::uint64_t snapshots_taken = 0;
  std::uint64_t checker_violations = 0;  ///< the duplicate checker's count

  Span policy;  ///< DynatunePolicy calls (decorator)
  Span checker; ///< duplicate InvariantChecker events
  Span materialize, reset, await_leader, run_on, audit, pool_run, snapshot;
  std::int64_t busy_ns = 0;  ///< wall time this worker spent inside units of work

  void merge(const LayerCounters& o) {
    units += o.units;
    sim_events += o.sim_events;
    sim_ns += o.sim_ns;
    msgs_sent += o.msgs_sent;
    bytes_sent += o.bytes_sent;
    datagrams_lost += o.datagrams_lost;
    for (std::size_t k = 0; k < kMsgKinds; ++k) {
      kind_msgs[k] += o.kind_msgs[k];
      kind_bytes[k] += o.kind_bytes[k];
    }
    entries_committed += o.entries_committed;
    elections += o.elections;
    election_timeouts += o.election_timeouts;
    retunes += o.retunes;
    batches_sealed += o.batches_sealed;
    batched_commands += o.batched_commands;
    reads_served += o.reads_served;
    snapshots_taken += o.snapshots_taken;
    checker_violations += o.checker_violations;
    for (auto [dst, src] : {std::pair{&policy, &o.policy}, {&checker, &o.checker},
                            {&materialize, &o.materialize}, {&reset, &o.reset},
                            {&await_leader, &o.await_leader}, {&run_on, &o.run_on},
                            {&audit, &o.audit}, {&pool_run, &o.pool_run},
                            {&snapshot, &o.snapshot}}) {
      dst->merge(*src);
    }
    busy_ns += o.busy_ns;
  }
};

/// Time one call into a seam.
template <typename Fn>
decltype(auto) timed(Span& span, Fn&& fn) {
  const std::int64_t t0 = now_ns();
  if constexpr (std::is_void_v<std::invoke_result_t<Fn>>) {
    fn();
    span.add(now_ns() - t0);
  } else {
    decltype(auto) out = fn();
    span.add(now_ns() - t0);
    return out;
  }
}

/// Passive counter of the Raft layer's observable work.
class TraceObserver final : public raft::Observer {
 public:
  explicit TraceObserver(LayerCounters& c) : c_(&c) {}

  void on_role_change(NodeId, raft::Role, raft::Role to, raft::Term, TimePoint) override {
    if (to == raft::Role::Candidate) ++c_->elections;
  }
  void on_election_timeout(NodeId, raft::Term, TimePoint) override { ++c_->election_timeouts; }
  void on_entry_committed(NodeId, const raft::LogEntry&, TimePoint) override {
    ++c_->entries_committed;
  }
  void on_message_sent(NodeId, NodeId, raft::MsgKind kind, std::size_t bytes,
                       TimePoint) override {
    const auto k = static_cast<std::size_t>(kind);
    ++c_->kind_msgs[k];
    c_->kind_bytes[k] += bytes;
  }
  void on_params_tuned(NodeId, Duration, Duration, TimePoint) override { ++c_->retunes; }

 private:
  LayerCounters* c_;
};

/// A second raft::InvariantChecker per consensus group, timed per event. The
/// cluster's own checker does the same work on every node, so this span is
/// the checker's cost in the untraced run too.
class TimedChecker final : public raft::Observer {
 public:
  TimedChecker(LayerCounters& c, std::size_t group_size) : c_(&c), group_size_(group_size) {}

  /// Trial boundary: bank the violation count and start a fresh table.
  void clear() {
    for (auto& k : checkers_) {
      c_->checker_violations += k.count();
      k.clear();
    }
  }

  void on_leader_established(NodeId leader, raft::Term term, TimePoint when) override {
    raft::InvariantChecker& k = group(leader);
    timed(c_->checker, [&] { k.on_leader_established(leader, term, when); });
  }
  void on_node_started(NodeId node, TimePoint when) override {
    raft::InvariantChecker& k = group(node);
    timed(c_->checker, [&] { k.on_node_started(node, when); });
  }
  void on_entry_committed(NodeId node, const raft::LogEntry& entry, TimePoint when) override {
    raft::InvariantChecker& k = group(node);
    timed(c_->checker, [&] { k.on_entry_committed(node, entry, when); });
  }

 private:
  raft::InvariantChecker& group(NodeId node) {
    const std::size_t g = static_cast<std::size_t>(node) / group_size_;
    if (g >= checkers_.size()) checkers_.resize(g + 1);
    return checkers_[g];
  }

  LayerCounters* c_;
  std::size_t group_size_;
  std::vector<raft::InvariantChecker> checkers_;
};

/// Decorator timing every call into a DynatunePolicy. Forwarding is exact,
/// including the trial-reuse contract, so traced results equal untraced ones.
class TimedPolicy final : public raft::ElectionPolicy {
 public:
  TimedPolicy(std::unique_ptr<raft::ElectionPolicy> inner, Span& span)
      : inner_(std::move(inner)), span_(&span) {}

  [[nodiscard]] Duration election_timeout() const override {
    return timed(*span_, [&] { return inner_->election_timeout(); });
  }
  [[nodiscard]] Duration heartbeat_interval(NodeId follower) const override {
    return timed(*span_, [&] { return inner_->heartbeat_interval(follower); });
  }
  std::optional<Duration> on_heartbeat_meta(NodeId leader, const raft::HeartbeatMeta& meta,
                                            TimePoint now) override {
    return timed(*span_, [&] { return inner_->on_heartbeat_meta(leader, meta, now); });
  }
  void on_tuned_heartbeat(NodeId follower, Duration h) override {
    timed(*span_, [&] { inner_->on_tuned_heartbeat(follower, h); });
  }
  void on_election_timeout() override {
    timed(*span_, [&] { inner_->on_election_timeout(); });
  }
  void on_leader_changed(NodeId leader, raft::Term term) override {
    timed(*span_, [&] { inner_->on_leader_changed(leader, term); });
  }
  void on_became_leader() override {
    timed(*span_, [&] { inner_->on_became_leader(); });
  }
  [[nodiscard]] bool resettable_for_trial() const override {
    return inner_->resettable_for_trial();
  }
  void reset_for_trial() override { inner_->reset_for_trial(); }

 private:
  std::unique_ptr<raft::ElectionPolicy> inner_;
  Span* span_;
};

/// Per-worker tracing kit: the counters and the observers that feed them.
struct Tracer {
  explicit Tracer(std::size_t group_size) : observer(counters), checker(counters, group_size) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Attach the observers and the policy decorator to a cluster config.
  void instrument(cluster::ClusterConfig& cfg) {
    cfg.observers.push_back(&observer);
    cfg.observers.push_back(&checker);
    // An unset factory means the cluster's default StaticPolicy: nothing to time.
    if (!cfg.policy_factory) return;
    cfg.policy_factory = [inner = std::move(cfg.policy_factory),
                          span = &counters.policy](NodeId id) {
      std::unique_ptr<raft::ElectionPolicy> p = inner(id);
      if (dynamic_cast<dt::DynatunePolicy*>(p.get()) == nullptr) return p;
      return std::unique_ptr<raft::ElectionPolicy>(
          std::make_unique<TimedPolicy>(std::move(p), *span));
    };
  }

  /// Fold a finished cluster's substrate counters in (before any reset).
  void collect(cluster::Cluster& c, bool owns_substrate = true) {
    if (owns_substrate) collect_substrate(c.sim(), c.network());
    for (const NodeId id : c.server_ids()) {
      if (raft::RaftNode* n = c.node_if_alive(id); n != nullptr) {
        counters.batches_sealed += n->batches_sealed();
        counters.batched_commands += n->batched_commands();
        counters.reads_served += n->reads_served();
        counters.snapshots_taken += n->snapshots_taken();
      }
    }
  }

  void collect_substrate(sim::Simulator& sim, net::Network& net) {
    counters.sim_events += sim.executed();
    counters.sim_ns += sim.now().time_since_epoch().count();
    for (NodeId id = 0; id < static_cast<NodeId>(net.node_count()); ++id) {
      const net::NodeTraffic& t = net.traffic(id);
      counters.msgs_sent += t.sent;
      counters.bytes_sent += t.sent_bytes;
      counters.datagrams_lost += t.lost;
    }
  }

  LayerCounters counters;
  TraceObserver observer;
  TimedChecker checker;
};

}  // namespace perfbench
