// Block-diagonal link-table equivalence: the new net::Network (tiled layout,
// sparse cross-pair promotion, epoch-stamped lazy reset) must be
// observationally indistinguishable from the dense reference implementation
// it replaced — delivery traces, traffic counters, conditions, pause/park
// semantics, FIFO watermarks, stream state and partition flags, across
// multi-trial reset reuse.
//
// The reference below (`denseref::Network`) is a verbatim copy of the dense
// implementation as it stood before the block-diagonal change: a flat
// node_count*node_count table re-strided on every add_node, with an eager
// O(n^2) reset_for_trial. Both implementations are driven through the same
// seeded randomized scripts (sends on both transports, link-schedule
// overrides, directional blocks, isolate, pauses with parked reliable
// traffic, mid-flight resets) and must produce bit-identical observable
// behaviour — in dense single-tile mode AND in grouped mode with
// cross-group client traffic exercising the sparse path.
//
// Also pinned here: the layout unit contract (add_nodes batch ids,
// link_table_bytes accounting, const reads never promote, reset drops
// promoted pairs, the 32-bit epoch wrap hard-clear) and the grouped-mode
// reset geometry precondition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/condition.hpp"
#include "net/message.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "test_support.hpp"

namespace dyna::denseref {

using net::ConditionSchedule;
using net::Handler;
using net::LinkCondition;
using net::Message;
using net::NodeTraffic;
using net::Transport;

// ---- Verbatim dense reference (pre-block-diagonal net::Network) ---------------------

class Network {
 public:
  using Config = net::Network::Config;  // knobs unchanged across the rewrite

  Network(sim::Simulator& simulator, Rng rng, Config config)
      : sim_(&simulator), rng_(std::move(rng)), config_(config) {}

  Network(sim::Simulator& simulator, Rng rng)
      : Network(simulator, std::move(rng), Config{}) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  NodeId add_node(Handler handler = nullptr) {
    nodes_.push_back(NodeState{});
    nodes_.back().handler = std::move(handler);
    grow_links();
    return static_cast<NodeId>(nodes_.size() - 1);
  }

  void set_handler(NodeId node, Handler handler) {
    state(node).handler = std::move(handler);
  }

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }

  void reset_for_trial(Rng rng, std::size_t node_count);

  void set_default_schedule(ConditionSchedule schedule) {
    default_schedule_ = std::move(schedule);
  }

  void set_link_schedule(NodeId from, NodeId to, ConditionSchedule schedule) {
    DYNA_EXPECTS(valid(from) && valid(to));
    link(from, to).override_schedule =
        std::make_unique<ConditionSchedule>(std::move(schedule));
  }

  [[nodiscard]] const LinkCondition& condition(NodeId from, NodeId to) const {
    return schedule_for(link(from, to)).at(sim_->now());
  }

  void send(NodeId from, NodeId to, Message payload, Transport transport,
            std::size_t bytes = 256);

  void set_paused(NodeId node, bool paused);

  [[nodiscard]] bool paused(NodeId node) const { return state(node).paused; }

  void set_blocked(NodeId from, NodeId to, bool blocked) {
    DYNA_EXPECTS(valid(from) && valid(to));
    link(from, to).blocked = blocked;
  }

  [[nodiscard]] bool link_blocked(NodeId from, NodeId to) const {
    return link(from, to).blocked;
  }

  void isolate(NodeId node, bool isolated) {
    for (NodeId other = 0; other < static_cast<NodeId>(nodes_.size()); ++other) {
      if (other == node) continue;
      set_blocked(node, other, isolated);
      set_blocked(other, node, isolated);
    }
  }

  [[nodiscard]] const NodeTraffic& traffic(NodeId node) const { return state(node).traffic; }

  [[nodiscard]] Duration stall_penalty(NodeId node, TimePoint t);

 private:
  struct StallWindow {
    TimePoint start = kNever;
    TimePoint end = kSimEpoch;
  };

  void roll_stall(StallWindow& window);

  struct NodeState {
    Handler handler;
    bool paused = false;
    std::deque<std::pair<NodeId, Message>> parked;
    NodeTraffic traffic;
    StallWindow stall;
  };

  struct StreamState {
    Duration last_rtt{0};
    TimePoint last_send = kNever;
    TimePoint turbulent_until = kSimEpoch;
  };

  struct Link {
    std::unique_ptr<ConditionSchedule> override_schedule;
    TimePoint reliable_last_delivery = kSimEpoch;
    StreamState stream;
    bool blocked = false;
  };

  [[nodiscard]] bool valid(NodeId n) const noexcept {
    return n >= 0 && static_cast<std::size_t>(n) < nodes_.size();
  }

  NodeState& state(NodeId n) {
    DYNA_EXPECTS(valid(n));
    return nodes_[static_cast<std::size_t>(n)];
  }

  const NodeState& state(NodeId n) const {
    DYNA_EXPECTS(valid(n));
    return nodes_[static_cast<std::size_t>(n)];
  }

  Link& link(NodeId from, NodeId to) {
    DYNA_EXPECTS(valid(from) && valid(to));
    return links_[static_cast<std::size_t>(from) * nodes_.size() +
                  static_cast<std::size_t>(to)];
  }

  [[nodiscard]] const Link& link(NodeId from, NodeId to) const {
    DYNA_EXPECTS(valid(from) && valid(to));
    return links_[static_cast<std::size_t>(from) * nodes_.size() +
                  static_cast<std::size_t>(to)];
  }

  void grow_links();

  [[nodiscard]] const ConditionSchedule& schedule_for(const Link& l) const {
    return l.override_schedule != nullptr ? *l.override_schedule : default_schedule_;
  }

  [[nodiscard]] Duration sample_one_way_delay(const LinkCondition& cond);

  void deliver(NodeId from, NodeId to, const Message& payload, Transport transport,
               std::size_t bytes);

  void schedule_delivery(Link& l, NodeId from, NodeId to, Message&& payload,
                         Transport transport, std::size_t bytes, Duration delay);

  std::uint32_t arena_acquire(Message&& payload);
  Message arena_release(std::uint32_t slot);

  sim::Simulator* sim_;
  Rng rng_;
  Config config_;
  ConditionSchedule default_schedule_{};
  std::vector<NodeState> nodes_;
  std::vector<Link> links_;  ///< dense n*n, indexed from*n+to

  std::vector<Message> arena_;
  std::vector<std::uint32_t> arena_free_;
};

Duration Network::sample_one_way_delay(const LinkCondition& cond) {
  const double half_rtt_ms = to_ms(cond.rtt) / 2.0;
  const double jitter_ms = to_ms(cond.jitter);
  double delay_ms = half_rtt_ms;
  if (jitter_ms > 0.0) delay_ms += rng_.normal(0.0, jitter_ms);
  delay_ms += rng_.uniform(0.0, 0.1);
  delay_ms = std::max(delay_ms, std::max(0.05 * half_rtt_ms, 0.01));
  return from_ms(delay_ms);
}

Duration Network::stall_penalty(NodeId node, TimePoint t) {
  if (config_.stall.mean_interval <= Duration{0}) return Duration{0};
  StallWindow& w = state(node).stall;
  if (w.start == kNever) {
    w.start = kSimEpoch;
    w.end = kSimEpoch;
    roll_stall(w);
  }
  while (w.end <= t) roll_stall(w);
  return t >= w.start ? w.end - t : Duration{0};
}

void Network::roll_stall(StallWindow& w) {
  const double gap_sec = rng_.exponential(1.0 / to_sec(config_.stall.mean_interval));
  w.start = w.end + from_ms(gap_sec * 1000.0);
  const double dur_ms =
      config_.stall.duration_median_ms * std::exp(config_.stall.duration_sigma * rng_.normal());
  w.end = w.start + from_ms(dur_ms);
}

void Network::reset_for_trial(Rng rng, std::size_t node_count) {
  DYNA_EXPECTS(node_count >= 1);
  rng_ = std::move(rng);
  const bool resized = node_count != nodes_.size();
  nodes_.resize(node_count);
  for (NodeState& n : nodes_) {
    n.paused = false;
    n.parked.clear();
    n.traffic = NodeTraffic{};
    n.stall = StallWindow{};
  }
  if (resized) {
    links_.clear();
    links_.resize(node_count * node_count);
  } else {
    for (Link& l : links_) {
      l.override_schedule.reset();
      l.reliable_last_delivery = kSimEpoch;
      l.stream = StreamState{};
      l.blocked = false;
    }
  }
  arena_.clear();
  arena_free_.clear();
}

void Network::grow_links() {
  const std::size_t n = nodes_.size();
  const std::size_t old_n = n - 1;
  std::vector<Link> grown(n * n);
  for (std::size_t from = 0; from < old_n; ++from) {
    for (std::size_t to = 0; to < old_n; ++to) {
      grown[from * n + to] = std::move(links_[from * old_n + to]);
    }
  }
  links_ = std::move(grown);
}

std::uint32_t Network::arena_acquire(Message&& payload) {
  std::uint32_t slot;
  if (!arena_free_.empty()) {
    slot = arena_free_.back();
    arena_free_.pop_back();
    arena_[slot] = std::move(payload);
  } else {
    slot = static_cast<std::uint32_t>(arena_.size());
    arena_.push_back(std::move(payload));
  }
  return slot;
}

Message Network::arena_release(std::uint32_t slot) {
  Message out = std::move(arena_[slot]);
  arena_[slot].reset();
  arena_free_.push_back(slot);
  return out;
}

void Network::send(NodeId from, NodeId to, Message payload, Transport transport,
                   std::size_t bytes) {
  DYNA_EXPECTS(valid(from) && valid(to));
  DYNA_EXPECTS(from != to);

  NodeState& src = state(from);
  src.traffic.sent += 1;
  src.traffic.sent_bytes += bytes;

  Link& l = link(from, to);
  if (l.blocked) return;

  const LinkCondition cond = schedule_for(l).at(sim_->now());
  Duration delay = sample_one_way_delay(cond);
  delay += stall_penalty(from, sim_->now());
  delay += stall_penalty(to, sim_->now() + delay);

  if (transport == Transport::Datagram) {
    if (rng_.bernoulli(cond.loss)) {
      state(to).traffic.lost += 1;
      return;
    }
    const bool duplicated = rng_.bernoulli(cond.duplicate);
    if (duplicated) {
      schedule_delivery(l, from, to, Message(payload), transport, bytes, delay);
      schedule_delivery(l, from, to, std::move(payload), transport, bytes,
                        sample_one_way_delay(cond));
    } else {
      schedule_delivery(l, from, to, std::move(payload), transport, bytes, delay);
    }
    return;
  }

  int retransmits = 0;
  while (retransmits < config_.max_retransmits && rng_.bernoulli(cond.loss)) {
    ++retransmits;
    delay += cond.rtt + config_.retransmit_penalty;
  }

  if (config_.tcp_turbulence) {
    StreamState& st = l.stream;
    const bool jumped = st.last_rtt > Duration{0} &&
                        to_ms(cond.rtt) > to_ms(st.last_rtt) * (1.0 + config_.turbulence_threshold);
    const Duration activity_window =
        std::max(st.last_rtt * 4, Duration(std::chrono::milliseconds(250)));
    const bool was_active = st.last_send != kNever && sim_->now() - st.last_send <= activity_window;
    if (jumped && was_active) {
      st.turbulent_until =
          sim_->now() + from_ms(to_ms(cond.rtt) * config_.turbulence_duration_rtts);
    }
    st.last_rtt = cond.rtt;
    st.last_send = sim_->now();
    if (sim_->now() < st.turbulent_until) {
      delay += st.turbulent_until - sim_->now();
    }
  }

  schedule_delivery(l, from, to, std::move(payload), transport, bytes, delay);
}

void Network::schedule_delivery(Link& l, NodeId from, NodeId to, Message&& payload,
                                Transport transport, std::size_t bytes, Duration delay) {
  TimePoint when = sim_->now() + delay;
  if (transport == Transport::Reliable) {
    TimePoint& last = l.reliable_last_delivery;
    when = std::max(when, last + Duration{1});
    last = when;
  }
  const std::uint32_t slot = arena_acquire(std::move(payload));
  const auto nbytes = static_cast<std::uint32_t>(bytes);
  sim_->schedule_at(when, [this, from, to, slot, transport, nbytes] {
    const Message msg = arena_release(slot);
    deliver(from, to, msg, transport, nbytes);
  });
}

void Network::deliver(NodeId from, NodeId to, const Message& payload, Transport transport,
                      std::size_t bytes) {
  NodeState& dst = state(to);
  if (dst.paused) {
    if (transport == Transport::Datagram) {
      dst.traffic.dropped_paused += 1;
      return;
    }
    dst.parked.emplace_back(from, payload);
    return;
  }
  dst.traffic.received += 1;
  dst.traffic.received_bytes += bytes;
  if (dst.handler) dst.handler(from, payload);
}

void Network::set_paused(NodeId node, bool paused) {
  NodeState& st = state(node);
  if (st.paused == paused) return;
  st.paused = paused;
  if (!paused && !st.parked.empty()) {
    auto parked = std::move(st.parked);
    st.parked.clear();
    for (auto& [from, payload] : parked) {
      const std::uint32_t slot = arena_acquire(std::move(payload));
      sim_->schedule_after(Duration{0}, [this, from = from, node, slot] {
        const Message msg = arena_release(slot);
        deliver(from, node, msg, Transport::Reliable, 0);
      });
    }
  }
}

}  // namespace dyna::denseref

namespace dyna {
namespace {

using namespace std::chrono_literals;
using testutil::constant_link;

/// Full delivery trace: (receiver, payload id, delivery time).
using NetTrace = std::vector<std::tuple<NodeId, int, TimePoint>>;

/// One harness instantiation: Simulator + network (either implementation) +
/// delivery recorder. `Grouped` selects the block-diagonal layout on the new
/// Network; the reference has no such mode and always runs dense.
template <class Net>
struct Harness {
  sim::Simulator sim;
  Net net;
  NetTrace trace;

  Harness(std::uint64_t net_seed, std::size_t group_size, std::size_t groups,
          std::size_t clients)
      : net(sim, Rng(net_seed)) {
    if constexpr (std::is_same_v<Net, net::Network>) {
      if (groups > 1) net.configure_groups(group_size, groups);
    }
    add_endpoints(group_size * groups + clients);
  }

  void add_endpoints(std::size_t count) {
    while (net.node_count() < count) hook(net.add_node(nullptr));
  }

  void hook(NodeId id) {
    net.set_handler(id, [this, id](NodeId /*from*/, const net::Message& p) {
      ASSERT_NE(p.test(), nullptr);
      trace.emplace_back(id, static_cast<int>(p.test()->value), sim.now());
    });
  }
};

/// Drive one network through a seeded randomized script. Every decision
/// comes from the script rng (independent of the network's internal jitter
/// stream), so two implementations fed the same seed execute the same call
/// sequence — and must then draw identically from their own rngs.
template <class H>
void run_random_script(H& h, std::uint64_t seed, int rounds) {
  Rng script(seed);
  const auto n = static_cast<std::size_t>(h.net.node_count());
  auto pick_pair = [&](NodeId& from, NodeId& to) {
    from = static_cast<NodeId>(script.uniform_index(n));
    do {
      to = static_cast<NodeId>(script.uniform_index(n));
    } while (to == from);
  };
  int payload = 0;
  h.net.set_default_schedule(constant_link(40ms, 2ms, 0.02));
  for (int round = 0; round < rounds; ++round) {
    NodeId from{};
    NodeId to{};
    const double dice = script.uniform(0.0, 1.0);
    if (dice < 0.55) {
      pick_pair(from, to);
      const auto transport =
          script.bernoulli(0.5) ? net::Transport::Datagram : net::Transport::Reliable;
      h.net.send(from, to, net::TestPayload{payload++}, transport, 64);
    } else if (dice < 0.70) {
      // Hammer one directed pair with a reliable burst: FIFO watermarks and
      // stream state must behave identically (incl. cross-tile pairs).
      pick_pair(from, to);
      for (int k = 0; k < 4; ++k) {
        h.net.send(from, to, net::TestPayload{payload++}, net::Transport::Reliable, 128);
      }
    } else if (dice < 0.78) {
      pick_pair(from, to);
      h.net.set_blocked(from, to, script.bernoulli(0.6));
    } else if (dice < 0.86) {
      pick_pair(from, to);
      const double rtt_ms = script.uniform(5.0, 120.0);
      const double loss = script.bernoulli(0.3) ? 0.2 : 0.0;
      h.net.set_link_schedule(from, to, constant_link(from_ms(rtt_ms), 1ms, loss));
    } else if (dice < 0.92) {
      const auto node = static_cast<NodeId>(script.uniform_index(n));
      h.net.set_paused(node, script.bernoulli(0.5));
    } else if (dice < 0.95) {
      const auto node = static_cast<NodeId>(script.uniform_index(n));
      h.net.isolate(node, script.bernoulli(0.7));
    } else {
      h.sim.run_for(from_ms(script.uniform(1.0, 30.0)));
    }
  }
  // Unpause everyone so parked reliable traffic flushes, then drain.
  for (std::size_t i = 0; i < n; ++i) h.net.set_paused(static_cast<NodeId>(i), false);
  h.sim.run_all();
}

template <class A, class B>
void expect_observably_equal(A& a, B& b) {
  EXPECT_EQ(a.trace, b.trace);
  ASSERT_EQ(a.net.node_count(), b.net.node_count());
  const auto n = static_cast<NodeId>(a.net.node_count());
  for (NodeId id = 0; id < n; ++id) {
    EXPECT_EQ(a.net.traffic(id).sent, b.net.traffic(id).sent) << "node " << id;
    EXPECT_EQ(a.net.traffic(id).received, b.net.traffic(id).received) << "node " << id;
    EXPECT_EQ(a.net.traffic(id).sent_bytes, b.net.traffic(id).sent_bytes) << "node " << id;
    EXPECT_EQ(a.net.traffic(id).received_bytes, b.net.traffic(id).received_bytes);
    EXPECT_EQ(a.net.traffic(id).lost, b.net.traffic(id).lost) << "node " << id;
    EXPECT_EQ(a.net.traffic(id).dropped_paused, b.net.traffic(id).dropped_paused);
    EXPECT_EQ(a.net.paused(id), b.net.paused(id)) << "node " << id;
  }
  for (NodeId from = 0; from < n; ++from) {
    for (NodeId to = 0; to < n; ++to) {
      if (from == to) continue;
      EXPECT_EQ(a.net.condition(from, to).rtt, b.net.condition(from, to).rtt)
          << from << "->" << to;
      EXPECT_EQ(a.net.condition(from, to).loss, b.net.condition(from, to).loss);
      EXPECT_EQ(a.net.link_blocked(from, to), b.net.link_blocked(from, to))
          << from << "->" << to;
    }
  }
}

// ---- Randomized equivalence: dense single-tile mode --------------------------------

TEST(NetEquivalence, DenseModeMatchesDenseReference) {
  for (const std::uint64_t seed : {11u, 23u, 57u}) {
    Harness<denseref::Network> ref(seed, 12, 1, 0);
    Harness<net::Network> got(seed, 12, 1, 0);
    run_random_script(ref, 1000 + seed, 300);
    run_random_script(got, 1000 + seed, 300);
    expect_observably_equal(ref, got);
  }
}

// ---- Randomized equivalence: grouped mode with cross-group clients -----------------

TEST(NetEquivalence, GroupedModeMatchesDenseReference) {
  // 3 groups of 4 servers + 3 client endpoints beyond the tiled region.
  // Every cross-tile pair the script touches (client traffic, cross-group
  // blocks/overrides, isolate sweeps) takes the sparse-promotion path in
  // the new layout and the plain dense path in the reference.
  for (const std::uint64_t seed : {5u, 31u, 83u}) {
    Harness<denseref::Network> ref(seed, 4, 1, 15 - 4);  // dense: plain 15 nodes
    Harness<net::Network> got(seed, 4, 3, 3);            // tiled 12 + 3 clients
    ASSERT_EQ(ref.net.node_count(), got.net.node_count());
    run_random_script(ref, 2000 + seed, 400);
    run_random_script(got, 2000 + seed, 400);
    expect_observably_equal(ref, got);
    EXPECT_GT(got.net.cross_link_count(), 0u)
        << "script never exercised the sparse cross-pair path";
  }
}

TEST(NetEquivalence, GroupedModeMultiTrialResetMatchesDenseReference) {
  // Dirty both implementations, reset both back to the tiled region (client
  // endpoints drop, as in the sharded sweep contract), re-add clients, run a
  // different script. The epoch-stamped lazy reset must be observationally
  // identical to the reference's eager O(n^2) walk — repeatedly.
  Harness<denseref::Network> ref(9, 4, 1, 11);  // dense: plain 15 nodes
  Harness<net::Network> got(9, 4, 3, 3);        // tiled 12 + 3 clients
  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    run_random_script(ref, 3000 + trial, 250);
    run_random_script(got, 3000 + trial, 250);
    expect_observably_equal(ref, got);
    ref.sim.reset();
    got.sim.reset();
    ref.net.reset_for_trial(Rng(500 + trial), 12);
    got.net.reset_for_trial(Rng(500 + trial), 12);
    ref.trace.clear();
    got.trace.clear();
    // Client endpoints re-register after every reset, like KvClients do.
    ref.add_endpoints(15);
    got.add_endpoints(15);
    // Tiled servers keep their handlers across the reset; re-hook anyway to
    // mirror what the reference needs (its table was rebuilt) — handler
    // identity is not part of the observable contract.
    for (NodeId id = 0; id < 12; ++id) {
      ref.hook(id);
      got.hook(id);
    }
  }
}

// ---- Layout unit contract ----------------------------------------------------------

TEST(BlockDiagonalLayout, AddNodesBatchIsContiguous) {
  sim::Simulator sim;
  net::Network net(sim, Rng(1));
  EXPECT_EQ(net.add_nodes(5), 0);
  EXPECT_EQ(net.add_nodes(3), 5);
  EXPECT_EQ(net.add_node(), 8);
  EXPECT_EQ(net.node_count(), 9u);
}

TEST(BlockDiagonalLayout, LinkTableBytesIsTilesPlusPromotedPairs) {
  sim::Simulator sim;
  net::Network net(sim, Rng(1));
  net.configure_groups(5, 8);
  net.add_nodes(40);
  const std::size_t tiles_only = net.link_table_bytes();
  // 8 tiles of 5x5 links, nothing promoted.
  EXPECT_EQ(net.cross_link_count(), 0u);
  EXPECT_LT(tiles_only, net::Network::dense_link_table_bytes(40));
  EXPECT_EQ(net::Network::dense_link_table_bytes(40) / tiles_only, 8u);

  // A mutating cross-group touch promotes exactly one sparse entry.
  net.set_blocked(0, 7, true);
  EXPECT_EQ(net.cross_link_count(), 1u);
  EXPECT_GT(net.link_table_bytes(), tiles_only);
  EXPECT_TRUE(net.link_blocked(0, 7));

  // Reset drops promoted pairs: absence IS the freshly-built state.
  net.reset_for_trial(Rng(2), 40);
  EXPECT_EQ(net.cross_link_count(), 0u);
  EXPECT_EQ(net.link_table_bytes(), tiles_only);
  EXPECT_FALSE(net.link_blocked(0, 7));
}

TEST(BlockDiagonalLayout, ConstReadsNeverPromoteCrossPairs) {
  sim::Simulator sim;
  net::Network net(sim, Rng(1));
  net.configure_groups(3, 4);
  net.add_nodes(12);
  const net::Network& cnet = net;
  // Cross-group const reads see the shared stateless default entry.
  EXPECT_FALSE(cnet.link_blocked(0, 3));
  EXPECT_EQ(cnet.condition(0, 3).rtt, net::LinkCondition{}.rtt);
  EXPECT_EQ(net.cross_link_count(), 0u);
  // In-group reads hit the tile; still nothing promoted.
  EXPECT_FALSE(cnet.link_blocked(0, 1));
  EXPECT_EQ(net.cross_link_count(), 0u);
}

TEST(BlockDiagonalLayout, EpochWrapHardClearsStaleStamps) {
  sim::Simulator sim;
  net::Network net(sim, Rng(1));
  net.configure_groups(3, 2);
  net.add_nodes(6);
  net.set_blocked(0, 1, true);   // tile state at the pre-wrap epoch
  net.set_blocked(0, 3, true);   // promoted cross pair
  net.set_trial_epoch_for_test(0xFFFFFFFFu);
  // This reset wraps the 32-bit epoch: the wrap path must hard-clear every
  // tile cell so stamps from the previous period cannot alias live epochs.
  net.reset_for_trial(Rng(2), 6);
  EXPECT_FALSE(net.link_blocked(0, 1));
  EXPECT_FALSE(net.link_blocked(0, 3));
  EXPECT_EQ(net.cross_link_count(), 0u);
  // And the network still behaves: state set after the wrap sticks.
  net.set_blocked(0, 1, true);
  EXPECT_TRUE(net.link_blocked(0, 1));
  net.reset_for_trial(Rng(3), 6);
  EXPECT_FALSE(net.link_blocked(0, 1));
}

TEST(BlockDiagonalLayout, GroupedResetRequiresTiledGeometry) {
  // In grouped mode the tiled geometry is fixed for the network's lifetime;
  // a reset to any other node count is a geometry change, which must rebuild
  // the Network (ShardedCluster::reset does) — the precondition aborts.
  ASSERT_DEATH(
      {
        sim::Simulator sim;
        net::Network net(sim, Rng(1));
        net.configure_groups(3, 2);
        net.add_nodes(6);
        net.reset_for_trial(Rng(2), 9);
      },
      "precondition");
}

TEST(BlockDiagonalLayout, DenseModeGeometricGrowthPreservesState) {
  // Incremental add_node doubles the stride instead of re-striding per add;
  // existing per-pair state must survive every growth step.
  sim::Simulator sim;
  net::Network net(sim, Rng(1));
  net.add_node();
  net.add_node();
  net.set_blocked(0, 1, true);
  net.set_link_schedule(1, 0, constant_link(70ms));
  for (int i = 0; i < 10; ++i) net.add_node();
  EXPECT_TRUE(net.link_blocked(0, 1));
  EXPECT_EQ(net.condition(1, 0).rtt, 70ms);
  EXPECT_FALSE(net.link_blocked(0, 11));
}

}  // namespace
}  // namespace dyna
