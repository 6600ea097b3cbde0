#include "net/network.hpp"

#include <algorithm>
#include <cmath>

namespace dyna::net {

Duration Network::sample_one_way_delay(const LinkCondition& cond) {
  const double half_rtt_ms = to_ms(cond.rtt) / 2.0;
  // Jitter applies per direction; treat the configured jitter as the stddev
  // of the one-way perturbation (tc netem's `delay <d> <jitter>` semantics).
  const double jitter_ms = to_ms(cond.jitter);
  double delay_ms = half_rtt_ms;
  if (jitter_ms > 0.0) delay_ms += rng_.normal(0.0, jitter_ms);
  // OS/NIC noise floor: even a perfectly shaped link wobbles by tens of
  // microseconds. This breaks pathological event ties and keeps measured
  // RTT variance strictly positive (as on any real system).
  delay_ms += rng_.uniform(0.0, 0.1);
  // Physical floor: never faster than 5% of the nominal path, never negative.
  delay_ms = std::max(delay_ms, std::max(0.05 * half_rtt_ms, 0.01));
  return from_ms(delay_ms);
}

Duration Network::stall_penalty(NodeId node, TimePoint t) {
  if (config_.stall.mean_interval <= Duration{0}) return Duration{0};
  StallWindow& w = state(node).stall;
  if (w.start == kNever) {
    // Lazily seed the renewal process on first use.
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

void Network::configure_groups(std::size_t group_size, std::size_t groups) {
  DYNA_EXPECTS(nodes_.empty());
  DYNA_EXPECTS(group_size >= 1 && groups >= 1);
  group_size_ = group_size;
  group_count_ = groups;
  // One group_size^2 tile per group, allocated up front (the geometry is
  // fixed); the stamp-based lazy reset means we never walk this again.
  links_.clear();
  links_.resize(groups * group_size * group_size);
  cross_.clear();
}

NodeId Network::add_nodes(std::size_t count) {
  DYNA_EXPECTS(count >= 1);
  const std::size_t old_count = nodes_.size();
  const auto first = static_cast<NodeId>(old_count);
  nodes_.resize(old_count + count);
  // Grouped mode: the tiles already exist and ids beyond the tiled region
  // (client endpoints) take the sparse cross-pair path — no table growth.
  if (group_size_ == 0) grow_dense(old_count);
  return first;
}

void Network::grow_dense(std::size_t old_count) {
  const std::size_t n = nodes_.size();
  if (n <= stride_) return;  // still fits the current stride
  // Batched construction from empty allocates the exact final stride (the
  // committed link_table_bytes references are n^2 * sizeof(Link)); from a
  // live table the stride doubles so k incremental add_node calls re-stride
  // O(log k) times instead of k.
  const std::size_t new_stride = old_count == 0 ? n : std::max(n, stride_ * 2);
  std::vector<Link> grown(new_stride * new_stride);
  for (std::size_t from = 0; from < old_count; ++from) {
    for (std::size_t to = 0; to < old_count; ++to) {
      grown[from * new_stride + to] = std::move(links_[from * stride_ + to]);
    }
  }
  links_ = std::move(grown);
  stride_ = new_stride;
}

void Network::hard_reset_links() {
  for (Link& l : links_) {
    l.override_schedule.reset();
    l.reliable_last_delivery = kSimEpoch;
    l.stream = StreamState{};
    l.blocked = false;
    l.epoch = trial_epoch_;
  }
}

void Network::reset_for_trial(Rng rng, std::size_t node_count) {
  DYNA_EXPECTS(node_count >= 1);
  // A grouped table's geometry is fixed for the Network's lifetime: handlers
  // installed on it capture the id->group stride, so a geometry change must
  // rebuild the Network (shard::ShardedCluster::reset does exactly that).
  // Resetting back to the tiled region drops client endpoints, as in dense
  // mode.
  DYNA_EXPECTS(group_size_ == 0 || node_count == group_count_ * group_size_);
  rng_ = std::move(rng);
  nodes_.resize(node_count);
  for (NodeState& n : nodes_) {
    n.paused = false;
    n.parked.clear();
    n.traffic = NodeTraffic{};
    n.stall = StallWindow{};
  }
  if (group_size_ == 0 && node_count > stride_) {
    // Bigger cluster than the table has ever held: re-stride from scratch
    // (Link is move-only, so a fresh dense table is simpler than salvaging
    // the old stride).
    links_.clear();
    links_.resize(node_count * node_count);
    stride_ = node_count;
  }
  // Lazy link reset: bump the trial epoch instead of walking the table; a
  // Link with a stale stamp rewinds on first touch (refresh()). Touched
  // cross-tile pairs are simply dropped — an absent entry *is* the
  // freshly-built state. On 32-bit wrap the stamps from the previous epoch
  // period could alias new epochs, so that one reset in 2^32 walks the
  // table eagerly.
  cross_.clear();
  if (++trial_epoch_ == 0) {
    trial_epoch_ = 1;
    hard_reset_links();
  }
  // In-flight payloads whose delivery events died with the simulator reset.
  arena_.clear();
  arena_free_.clear();
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
  if (l.blocked) return;  // partitioned: vanishes

  const LinkCondition cond = schedule_for(l).at(sim_->now());
  Duration delay = sample_one_way_delay(cond);
  // A stalled sender's packet leaves when the stall ends; a stalled receiver
  // processes it when its own stall ends.
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
      // The duplicate takes an independent path through the network.
      schedule_delivery(l, from, to, std::move(payload), transport, bytes,
                        sample_one_way_delay(cond));
    } else {
      schedule_delivery(l, from, to, std::move(payload), transport, bytes, delay);
    }
    return;
  }

  // Reliable: loss becomes retransmission delay; delivery is FIFO per pair.
  int retransmits = 0;
  while (retransmits < config_.max_retransmits && rng_.bernoulli(cond.loss)) {
    ++retransmits;
    delay += cond.rtt + config_.retransmit_penalty;
  }

  if (config_.tcp_turbulence) {
    // Detect an abrupt RTT upshift on this stream: the sender's RTO was
    // computed for the old RTT, so segments in flight look lost and the
    // head of the in-order stream thrashes through retransmit backoff for a
    // few new-RTT periods. Everything sent inside the window is blocked
    // behind it and departs when the stream recovers.
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
    // Enforce FIFO per directed pair: a message never overtakes its
    // predecessor on the same stream.
    TimePoint& last = l.reliable_last_delivery;
    when = std::max(when, last + Duration{1});
    last = when;
  }
  // The payload parks in the arena; the event closure is a few scalars and
  // stays inside InlineFn's inline buffer — no allocation on this path.
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
    // Flush parked reliable traffic in arrival order, "now".
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

}  // namespace dyna::net
