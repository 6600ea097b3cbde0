#include "cluster/cluster.hpp"

#include <algorithm>
#include <stdexcept>

#include "dynatune/policy.hpp"
#include "raft/storage.hpp"

namespace dyna::cluster {

Cluster::Cluster(ClusterConfig config) : cfg_(std::move(config)) {
  DYNA_EXPECTS(cfg_.servers >= 1);
  DYNA_EXPECTS((cfg_.shared_sim == nullptr) == (cfg_.shared_net == nullptr));
  DYNA_EXPECTS(cfg_.shared_sim != nullptr || cfg_.node_base == 0);

  if (cfg_.shared_sim != nullptr) {
    sim_ = cfg_.shared_sim;
    net_ = cfg_.shared_net;
  } else {
    owned_sim_ = std::make_unique<sim::Simulator>();
    sim_ = owned_sim_.get();
    Rng master(cfg_.seed);
    owned_net_ = std::make_unique<net::Network>(*sim_, master.fork(1), cfg_.transport);
    net_ = owned_net_.get();
    net_->set_default_schedule(cfg_.links);
  }

  if (cfg_.perf_cost) {
    perf_ = std::make_unique<PerfModel>(*cfg_.perf_cost, cfg_.perf_bin);
  }

  if (!cfg_.policy_factory) {
    const Duration et = cfg_.raft.election_timeout;
    const Duration h = cfg_.raft.heartbeat_interval;
    cfg_.policy_factory = [et, h](NodeId) {
      return std::make_unique<raft::StaticPolicy>(et, h);
    };
  }

  storages_.resize(cfg_.servers);
  state_machines_.resize(cfg_.servers);
  nodes_.resize(cfg_.servers);
  service_.resize(cfg_.servers);
  roster_.resize(cfg_.servers);
  for (std::size_t i = 0; i < cfg_.servers; ++i) {
    roster_[i] = cfg_.node_base + static_cast<NodeId>(i);
  }
  if (cfg_.fault) {
    DYNA_EXPECTS(cfg_.durable_log);  // a crash must be restartable
    for (std::size_t i = 0; i < cfg_.servers; ++i) arm_injector(i);
  }

  // Owned substrate: ids 0..servers-1. Shared substrate: the owner
  // constructs groups in node_base order, so the batch lands exactly on this
  // group's slice of the id space. One add_nodes() call = one link-table
  // growth for the whole group instead of an O(n^2) re-stride per server.
  const NodeId first_id = net_->add_nodes(cfg_.servers);
  DYNA_ASSERT(first_id == cfg_.node_base);
  for (std::size_t i = 0; i < cfg_.servers; ++i) {
    if (cfg_.durable_log) {
      storages_[i] = std::make_shared<raft::MemoryStorage>();
    } else {
      storages_[i] = std::make_shared<raft::NullStorage>();
    }
    service_[i] = std::make_unique<ServiceQueue>(*sim_);
    service_[i]->configure_group(group_model());
  }
  for (std::size_t i = 0; i < cfg_.servers; ++i) {
    build_node(cfg_.node_base + static_cast<NodeId>(i));
  }
}

GroupCostModel Cluster::group_model() const {
  GroupCostModel m;
  m.per_round = cfg_.round_service_time;
  m.per_command = cfg_.command_service_time;
  m.max_commands = std::max<std::size_t>(1, cfg_.raft.max_batch_commands);
  m.coalesce = cfg_.raft.group_commit;
  return m;
}

void Cluster::reset(ClusterConfig config) {
  reset_begin(std::move(config));
  reset_substrate();
  reset_finish();
}

void Cluster::reset(std::uint64_t seed) {
  reset_begin(seed);
  reset_substrate();
  reset_finish();
}

void Cluster::reset_begin(ClusterConfig config) {
  // Substrate wiring is fixed at construction; a reconfigure reset must
  // re-state it verbatim (shard::ShardedCluster::group_config does).
  DYNA_EXPECTS(config.shared_sim == (owns_substrate() ? nullptr : sim_));
  DYNA_EXPECTS(config.shared_net == (owns_substrate() ? nullptr : net_));
  DYNA_EXPECTS(owns_substrate() ? config.node_base == 0
                                : (config.node_base == cfg_.node_base &&
                                   config.servers == cfg_.servers));
  cfg_ = std::move(config);
  pending_reconfigure_ = true;
  teardown_nodes();
}

void Cluster::reset_begin(std::uint64_t seed) {
  cfg_.seed = seed;
  pending_reconfigure_ = false;
  teardown_nodes();
}

void Cluster::teardown_nodes() {
  DYNA_EXPECTS(cfg_.servers >= 1);

  // Node objects survive the reset only when their wiring is provably
  // unchanged: same config (seed-only reset), same observer set (a perf
  // model is rebuilt per trial, which moves the observer pointer), and a
  // policy that knows how to reset itself. Everything else rebuilds.
  const bool rebuild_nodes = pending_reconfigure_ || nodes_.size() != cfg_.servers ||
                             cfg_.perf_cost.has_value();

  // Nodes to be rebuilt are destroyed first: their timer destructors cancel
  // against the *old* simulator state. Destroying them after the reset could
  // cancel fresh events whose (slot, generation) collides with a stale id.
  // Kept nodes still hold stale timer handles across the reset — harmless,
  // because reset_for_trial() forgets them without cancelling.
  for (auto& n : nodes_) {
    if (n != nullptr && (rebuild_nodes || !n->policy().resettable_for_trial())) {
      n.reset();
    }
  }

  // Servers added mid-trial (dynamic membership) exist only for that trial.
  // Their nodes/queues hold timer handles against the *old* simulator, so
  // the extra slots are destroyed here, before the substrate reset; the
  // network itself drops ids >= servers in its own reset_for_trial.
  if (nodes_.size() > cfg_.servers) {
    nodes_.resize(cfg_.servers);
    storages_.resize(cfg_.servers);
    state_machines_.resize(cfg_.servers);
    service_.resize(cfg_.servers);
  }
  if (injectors_.size() > cfg_.servers) injectors_.resize(cfg_.servers);
  roster_.resize(cfg_.servers);
  for (std::size_t i = 0; i < cfg_.servers; ++i) {
    roster_[i] = cfg_.node_base + static_cast<NodeId>(i);  // un-tombstone
  }
}

void Cluster::reset_substrate() {
  DYNA_EXPECTS(owns_substrate());
  sim_->reset();

  Rng master(cfg_.seed);  // same stream derivation as the constructor
  if (pending_reconfigure_) {
    net_->reset_for_trial(master.fork(1), cfg_.servers, cfg_.transport);
    net_->set_default_schedule(cfg_.links);
  } else {
    net_->reset_for_trial(master.fork(1), cfg_.servers);
  }
}

void Cluster::reset_finish() {
  probe_.clear();
  checker_.clear();
  if (cfg_.fault) {
    DYNA_EXPECTS(cfg_.durable_log);
    for (std::size_t i = 0; i < cfg_.servers; ++i) arm_injector(i);
  } else {
    injectors_.clear();
  }

  if (pending_reconfigure_ && !cfg_.policy_factory) {
    const Duration et = cfg_.raft.election_timeout;
    const Duration h = cfg_.raft.heartbeat_interval;
    cfg_.policy_factory = [et, h](NodeId) {
      return std::make_unique<raft::StaticPolicy>(et, h);
    };
  }

  // The perf model accumulates per-trial counters: rebuild whenever enabled.
  perf_.reset();
  if (cfg_.perf_cost) {
    perf_ = std::make_unique<PerfModel>(*cfg_.perf_cost, cfg_.perf_bin);
  }

  storages_.resize(cfg_.servers);
  state_machines_.resize(cfg_.servers);
  nodes_.resize(cfg_.servers);
  service_.resize(cfg_.servers);

  for (std::size_t i = 0; i < cfg_.servers; ++i) {
    const bool have_durable =
        dynamic_cast<raft::MemoryStorage*>(storages_[i].get()) != nullptr;
    if (storages_[i] == nullptr || cfg_.durable_log != have_durable) {
      if (cfg_.durable_log) {
        storages_[i] = std::make_shared<raft::MemoryStorage>();
      } else {
        storages_[i] = std::make_shared<raft::NullStorage>();
      }
    } else {
      storages_[i]->reset_for_trial();  // keeps the log buffer capacity
    }
    if (service_[i] == nullptr) {
      service_[i] = std::make_unique<ServiceQueue>(*sim_);
    } else {
      service_[i]->reset_for_trial();
    }
    service_[i]->configure_group(group_model());
  }

  for (std::size_t i = 0; i < cfg_.servers; ++i) {
    if (nodes_[i] != nullptr) {
      // In-place path: fresh state machine, node rewound to construction
      // state with the same RNG derivation the constructor would use.
      state_machines_[i]->reset_for_trial();
      nodes_[i]->reset_for_trial(
          Rng(derive_seed(cfg_.seed, 0x1000 + static_cast<std::uint64_t>(i))));
      nodes_[i]->start();
    } else {
      build_node(cfg_.node_base + static_cast<NodeId>(i));
    }
  }
}

std::vector<NodeId> Cluster::server_ids() const {
  std::vector<NodeId> ids;
  ids.reserve(roster_.size());
  for (const NodeId id : roster_) {
    if (id != kNoNode) ids.push_back(id);
  }
  return ids;
}

std::size_t Cluster::index_of(NodeId id) const {
  // Founding servers sit at their id-derived slot; servers added mid-trial
  // occupy the appended slots (scanned — there are at most a handful).
  if (id >= cfg_.node_base) {
    const std::size_t idx = static_cast<std::size_t>(id - cfg_.node_base);
    if (idx < cfg_.servers) {
      DYNA_EXPECTS(idx < roster_.size() && roster_[idx] == id);
      return idx;
    }
  }
  for (std::size_t i = cfg_.servers; i < roster_.size(); ++i) {
    if (roster_[i] == id) return i;
  }
  DYNA_EXPECTS(!"unknown or removed server id");
  return 0;
}

void Cluster::arm_injector(std::size_t idx) {
  if (!cfg_.fault) return;
  if (injectors_.size() <= idx) injectors_.resize(idx + 1);
  if (injectors_[idx] == nullptr || !(injectors_[idx]->config() == *cfg_.fault)) {
    injectors_[idx] = std::make_unique<fault::Injector>(*cfg_.fault);
  }
  injectors_[idx]->arm(derive_seed(cfg_.seed, 0xFA017 + static_cast<std::uint64_t>(idx)));
}

void Cluster::build_node(NodeId id, bool as_learner) {
  const std::size_t idx = index_of(id);
  std::vector<NodeId> peers;
  for (const NodeId pid : roster_) {
    if (pid != kNoNode && pid != id) peers.push_back(pid);
  }

  // Fresh state machine: on restart the node's start() restores it from the
  // persisted snapshot (if any) and replays only the log suffix behind it.
  state_machines_[idx] = std::make_unique<kv::KvStateMachine>();

  // Streams derive from the *local* index so a shared-substrate group's rng
  // story depends only on (group seed, slot) — and matches the in-place
  // reset path above, which also derives by index.
  Rng node_rng(derive_seed(cfg_.seed, 0x1000 + static_cast<std::uint64_t>(idx)));
  auto node = std::make_unique<raft::RaftNode>(id, std::move(peers), *sim_, *net_, cfg_.raft,
                                               storages_[idx], cfg_.policy_factory(id),
                                               std::move(node_rng));
  node->set_apply([this, idx](const raft::LogEntry& entry) {
    return state_machines_[idx]->apply(entry.command.payload);
  });
  // Snapshots carry the state machine's frozen image; restore adopts it.
  // Every image in this cluster was frozen by one of its own KV replicas.
  node->set_snapshot_hooks([this, idx] { return state_machines_[idx]->freeze(); },
                           [this, idx](const raft::Snapshot& snap) {
                             const auto* image =
                                 dynamic_cast<const kv::KvStateMachine::Image*>(snap.image.get());
                             DYNA_EXPECTS(image != nullptr);
                             state_machines_[idx]->restore(*image);
                           });
  // ReadIndex wiring (engages only when raft.read_index is set): the kv
  // layer classifies reads, and a served read queries the state machine
  // directly — apply_one, since a lone GET is never a batch frame.
  node->set_read_hooks(
      [](std::string_view payload) { return kv::is_read_only(payload); },
      [this, idx](std::string_view payload) { return state_machines_[idx]->apply_one(payload); });
  node->add_observer(&probe_);
  node->add_observer(&checker_);
  if (perf_) node->add_observer(perf_.get());
  for (raft::Observer* o : cfg_.observers) node->add_observer(o);
  node->set_self_learner(as_learner);
  if (cfg_.fault) {
    // The on-crash hook runs with the stack still inside RaftNode code (the
    // CrashSignal unwound to the node's entry-point guard), so the teardown
    // — and the later restart — are deferred to fresh simulator events. The
    // (slot, id) binding is stable within a trial; the guards make both
    // events no-ops if driver code crashed/removed the node in between.
    node->set_fault(injectors_[idx].get(), [this, idx, id](NodeId) {
      sim_->schedule_after(Duration{0}, [this, idx, id] {
        if (idx >= roster_.size() || roster_[idx] != id || nodes_[idx] == nullptr) return;
        crash(id);
        sim_->schedule_after(cfg_.fault->restart_delay, [this, idx, id] {
          if (idx >= roster_.size() || roster_[idx] != id || nodes_[idx] != nullptr) return;
          restart(id);
        });
      });
    });
  }
  nodes_[idx] = std::move(node);

  // The handler closure only captures stable identity (this cluster, this
  // index) and reads the config through `this`, so one installation serves
  // every trial of a reused substrate — no per-trial std::function rebuild.
  if (!net_->has_handler(id)) {
    net_->set_handler(id, [this, id, idx](NodeId from, const net::Message& payload) {
      raft::RaftNode* n = nodes_[idx].get();
      if (n == nullptr || !n->running()) return;
      const raft::Message* msg = payload.raft();
      if (msg == nullptr) return;
      if (std::holds_alternative<raft::ClientRequest>(*msg) &&
          (cfg_.grouped_service() || cfg_.request_service_time > Duration{0})) {
        auto deliver = [this, idx, from, m = *msg] {
          raft::RaftNode* alive = nodes_[idx].get();
          if (alive != nullptr && alive->running()) alive->handle_message(from, m);
        };
        if (cfg_.grouped_service()) {
          // Batch-aware CPU: a ReadIndex-eligible read never joins a log
          // round — it pays only the per-command cost (the fast path is the
          // point). Everything else shares grouped rounds.
          const auto& payload = std::get<raft::ClientRequest>(*msg).command.payload;
          if (cfg_.raft.read_index && kv::is_read_only(payload)) {
            service_[idx]->enqueue(cfg_.command_service_time, std::move(deliver));
          } else {
            service_[idx]->enqueue_command(std::move(deliver));
          }
          return;
        }
        // Client requests pass through the CPU before reaching consensus.
        service_[idx]->enqueue(service_time_for(id), std::move(deliver));
        return;
      }
      n->handle_message(from, *msg);
    });
  }

  nodes_[idx]->start();
}

Duration Cluster::service_time_for(NodeId /*id*/) const { return cfg_.request_service_time; }

raft::RaftNode& Cluster::node(NodeId id) {
  auto* n = node_if_alive(id);
  DYNA_EXPECTS(n != nullptr);
  return *n;
}

raft::RaftNode* Cluster::node_if_alive(NodeId id) { return nodes_[index_of(id)].get(); }

kv::KvStateMachine& Cluster::state_machine(NodeId id) {
  return *state_machines_[index_of(id)];
}

ServiceQueue& Cluster::service_queue(NodeId id) { return *service_[index_of(id)]; }

NodeId Cluster::current_leader() const {
  NodeId best = kNoNode;
  raft::Term best_term = 0;
  for (const auto& n : nodes_) {
    if (n && n->running() && n->is_leader() && n->term() >= best_term) {
      best = n->id();
      best_term = n->term();
    }
  }
  return best;
}

bool Cluster::await_leader(Duration timeout) {
  const TimePoint deadline = sim_->now() + timeout;
  // current_leader() walks every node. Between two polls its answer can only
  // change if some node changed role, and the probe observes every role
  // change — so recompute only when the probe's event count moves. (Nothing
  // can pause/crash a node *during* this loop; those faults are injected by
  // driver code between sim advances.) Poll schedule and result are
  // identical to the plain loop, which is what keeps traces bit-identical.
  std::size_t seen = probe_.role_changes().size();
  NodeId leader = current_leader();
  while (sim_->now() < deadline) {
    if (leader != kNoNode) return true;
    sim_->run_for(std::chrono::milliseconds(10));
    const std::size_t changes = probe_.role_changes().size();
    if (changes != seen) {
      seen = changes;
      leader = current_leader();
    }
  }
  return leader != kNoNode;
}

Duration Cluster::randomized_timeout_kth(std::size_t k) const {
  DYNA_EXPECTS(k >= 1 && k <= cfg_.servers);
  std::vector<Duration> values;
  values.reserve(cfg_.servers);
  for (const auto& n : nodes_) {
    if (n && n->running()) {
      values.push_back(n->randomized_timeout());
    } else {
      values.push_back(Duration::max());
    }
  }
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   values.end());
  return values[k - 1];
}

void Cluster::pause(NodeId id) {
  node(id).pause();
  net_->set_paused(id, true);
}

void Cluster::resume(NodeId id) {
  net_->set_paused(id, false);
  node(id).resume();
}

void Cluster::crash(NodeId id) {
  const std::size_t idx = index_of(id);
  if (nodes_[idx]) {
    nodes_[idx]->stop();
    nodes_[idx].reset();
  }
  net_->set_paused(id, false);  // a dead endpoint just drops traffic
}

void Cluster::restart(NodeId id) {
  const std::size_t idx = index_of(id);
  DYNA_EXPECTS(nodes_[idx] == nullptr);
  if (!storages_[idx]->durable_log()) {
    // Reviving a node over log-discarding storage would bring it back with an
    // empty log — committed entries silently missing, a safety violation that
    // used to surface only as divergence much later.
    throw std::runtime_error("Cluster::restart(" + std::to_string(id) +
                             "): storage discards the log (durable_log=false); set "
                             "ClusterConfig::durable_log=true for crash/restart scenarios");
  }
  build_node(id);
}

NodeId Cluster::add_server(bool as_learner) {
  DYNA_EXPECTS(owns_substrate());  // shared-substrate geometry is fixed
  if (!cfg_.durable_log) {
    throw std::runtime_error(
        "Cluster::add_server: joining servers catch up from durable state; set "
        "ClusterConfig::durable_log=true for membership-change scenarios");
  }
  // The network hands out the next endpoint id; it need not be dense with the
  // server roster (workload clients claim endpoints too). index_of resolves
  // appended servers by roster scan, never by id arithmetic.
  const NodeId id = net_->add_node(nullptr);
  const std::size_t idx = roster_.size();
  roster_.push_back(id);
  storages_.push_back(std::make_shared<raft::MemoryStorage>());
  state_machines_.emplace_back();
  nodes_.emplace_back();
  auto queue = std::make_unique<ServiceQueue>(*sim_);
  queue->configure_group(group_model());
  service_.push_back(std::move(queue));
  if (cfg_.fault) arm_injector(idx);
  build_node(id, as_learner);
  return id;
}

void Cluster::finalize_removal(NodeId id) {
  const std::size_t idx = index_of(id);
  if (nodes_[idx] != nullptr) {
    nodes_[idx]->stop();
    nodes_[idx].reset();
  }
  net_->set_paused(id, false);
  roster_[idx] = kNoNode;  // slot survives (handlers capture idx), id is gone
}

std::optional<raft::LogIndex> Cluster::propose_config_change(raft::ConfigChange kind,
                                                             NodeId target) {
  const NodeId leader = current_leader();
  if (leader == kNoNode) return std::nullopt;
  return nodes_[index_of(leader)]->propose_config_change(kind, target);
}

bool Cluster::await_applied(raft::LogIndex index, Duration timeout) {
  const TimePoint deadline = sim_->now() + timeout;
  const auto applied = [this, index] {
    const NodeId leader = current_leader();
    if (leader == kNoNode) return false;
    raft::RaftNode* n = nodes_[index_of(leader)].get();
    return n != nullptr && n->last_applied() >= index;
  };
  while (sim_->now() < deadline) {
    if (applied()) return true;
    sim_->run_for(std::chrono::milliseconds(10));
  }
  return applied();
}

std::uint64_t Cluster::audit_invariants() {
  // Log matching across final state: every entry a node still holds at a
  // committed index must match the commit table built while applying.
  for (std::size_t i = 0; i < roster_.size(); ++i) {
    const NodeId id = roster_[i];
    raft::RaftNode* n = id == kNoNode ? nullptr : nodes_[i].get();
    if (n == nullptr) continue;
    const raft::LogIndex lo = std::max<raft::LogIndex>(n->first_log_index(), 1);
    const raft::LogIndex hi = std::min(n->commit_index(), n->last_log_index());
    if (lo <= hi) {
      n->log().for_each(lo, hi,
                        [&](const raft::LogEntry& e) { checker_.audit_log_entry(id, e); });
    }
  }
  // Leader completeness holds for the leader of the newest term only. A
  // deposed leader that resumes mid-election still holds the Leader role at
  // a stale term, and may legitimately lack entries committed after it.
  raft::Term max_term = 0;
  for (const auto& n : nodes_) {
    if (n && n->running()) max_term = std::max(max_term, n->term());
  }
  const NodeId leader = current_leader();
  if (leader != kNoNode) {
    const raft::RaftNode& l = *nodes_[index_of(leader)];
    if (l.term() == max_term) checker_.audit_leader_coverage(leader, l.last_log_index());
  }
  for (std::size_t i = 0; i < roster_.size(); ++i) {
    const NodeId id = roster_[i];
    raft::RaftNode* n = id == kNoNode ? nullptr : nodes_[i].get();
    if (n == nullptr || !n->running()) continue;
    checker_.audit_applied_state(id, n->last_applied(), state_machines_[i]->snapshot());
    // The durable snapshot is the state after exactly last_index applies,
    // so it must equal any replica's state at that index: an image that
    // aliases live state is caught wherever its index meets another's.
    if (const raft::SnapshotHandle snap = n->snapshot(); snap && snap->image) {
      checker_.audit_applied_state(id, snap->last_index, snap->image->bytes());
    }
  }
  return checker_.count();
}

fault::Injector* Cluster::injector(NodeId id) {
  const std::size_t idx = index_of(id);
  return idx < injectors_.size() ? injectors_[idx].get() : nullptr;
}

std::uint64_t Cluster::fault_firings() const {
  std::uint64_t total = 0;
  for (const auto& inj : injectors_) {
    if (inj) total += inj->fired();
  }
  return total;
}

bool service_available(Cluster& cluster) {
  raft::Term max_term = 0;
  for (const NodeId id : cluster.server_ids()) {
    if (auto* n = cluster.node_if_alive(id); n != nullptr && n->running()) {
      max_term = std::max(max_term, n->term());
    }
  }
  for (const NodeId id : cluster.server_ids()) {
    if (auto* n = cluster.node_if_alive(id);
        n != nullptr && n->running() && n->is_leader() && n->term() == max_term) {
      return true;
    }
  }
  return false;
}

// ---- Variant factories --------------------------------------------------------------

ClusterConfig make_raft_config(std::size_t servers, std::uint64_t seed) {
  ClusterConfig c;
  c.servers = servers;
  c.seed = seed;
  c.raft = raft::RaftConfig::etcd_default();
  c.name = "Raft";
  return c;
}

ClusterConfig make_raft_low_config(std::size_t servers, std::uint64_t seed) {
  ClusterConfig c;
  c.servers = servers;
  c.seed = seed;
  c.raft = raft::RaftConfig::raft_low();
  c.name = "Raft-Low";
  return c;
}

ClusterConfig make_dynatune_config(std::size_t servers, std::uint64_t seed,
                                   dt::DynatuneConfig dt) {
  ClusterConfig c;
  c.servers = servers;
  c.seed = seed;
  c.raft = raft::RaftConfig::dynatune();
  c.raft.election_timeout = dt.default_election_timeout;
  c.raft.heartbeat_interval = dt.default_heartbeat;
  c.policy_factory = [dt](NodeId) { return std::make_unique<dt::DynatunePolicy>(dt); };
  c.name = "Dynatune";
  return c;
}

ClusterConfig make_fixk_config(std::size_t servers, std::uint64_t seed, int k,
                               dt::DynatuneConfig dt) {
  dt.fixed_k = k;
  ClusterConfig c = make_dynatune_config(servers, seed, dt);
  c.name = "Fix-K";
  return c;
}

}  // namespace dyna::cluster
