// Microbenchmarks (google-benchmark) for the hot paths of the library:
// estimator updates, the tuning formulas, event-queue churn, network send,
// the commit-path byte work (checker fingerprint, KV snapshot and freeze,
// KV apply), and a full Raft heartbeat round trip.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "kvstore/command.hpp"
#include "kvstore/state_machine.hpp"
#include "dynatune/loss_estimator.hpp"
#include "dynatune/rtt_estimator.hpp"
#include "dynatune/tuning.hpp"
#include "net/network.hpp"
#include "raft/invariant_checker.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace dyna;
using namespace std::chrono_literals;

void BM_RttEstimatorRecord(benchmark::State& state) {
  dt::RttEstimator est(static_cast<std::size_t>(state.range(0)));
  Rng rng(1);
  for (auto _ : state) {
    est.record(from_ms(100.0 + rng.normal(0.0, 5.0)));
    benchmark::DoNotOptimize(est.count());
  }
}
BENCHMARK(BM_RttEstimatorRecord)->Arg(10)->Arg(100)->Arg(1000);

void BM_RttEstimatorStats(benchmark::State& state) {
  dt::RttEstimator est(static_cast<std::size_t>(state.range(0)));
  Rng rng(1);
  for (int i = 0; i < state.range(0); ++i) est.record(from_ms(100.0 + rng.normal(0.0, 5.0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.mean_ms());
    benchmark::DoNotOptimize(est.stddev_ms());
  }
}
BENCHMARK(BM_RttEstimatorStats)->Arg(10)->Arg(100)->Arg(1000);

void BM_SlidingWindowAddStats(benchmark::State& state) {
  // The Dynatune per-heartbeat pattern: record one sample, read mean and
  // stddev. Incremental stats keep this O(1) regardless of window size.
  SlidingWindow w(static_cast<std::size_t>(state.range(0)));
  Rng rng(1);
  for (auto _ : state) {
    w.add(100.0 + rng.normal(0.0, 5.0));
    benchmark::DoNotOptimize(w.mean());
    benchmark::DoNotOptimize(w.stddev());
  }
}
BENCHMARK(BM_SlidingWindowAddStats)->Arg(10)->Arg(100)->Arg(1000);

void BM_LossEstimatorRecord(benchmark::State& state) {
  dt::LossEstimator est(1000);
  std::uint64_t id = 0;
  for (auto _ : state) {
    est.record(++id);
    benchmark::DoNotOptimize(est.loss_rate());
  }
}
BENCHMARK(BM_LossEstimatorRecord);

void BM_TuningFormulas(benchmark::State& state) {
  dt::DynatuneConfig cfg;
  double p = 0.0;
  for (auto _ : state) {
    p += 0.001;
    if (p >= 0.9) p = 0.0;
    const Duration et = dt::compute_election_timeout(100.0, 7.5, cfg);
    const int k = dt::compute_k(p, cfg.delivery_target, cfg.min_heartbeats_per_timeout,
                                cfg.max_heartbeats_per_timeout);
    benchmark::DoNotOptimize(dt::compute_heartbeat_interval(et, k, cfg));
  }
}
BENCHMARK(BM_TuningFormulas);

void BM_EventQueueScheduleFire(benchmark::State& state) {
  sim::Simulator sim;
  std::uint64_t fired = 0;
  for (auto _ : state) {
    sim.schedule_after(1ms, [&fired] { ++fired; });
    sim.step();
  }
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventQueueScheduleFire);

void BM_EventQueueDeepSchedule(benchmark::State& state) {
  // Scheduling into a queue that already holds many pending events.
  sim::Simulator sim;
  for (int i = 0; i < state.range(0); ++i) {
    sim.schedule_after(std::chrono::seconds(3600 + i), [] {});
  }
  for (auto _ : state) {
    const auto id = sim.schedule_after(1h, [] {});
    sim.cancel(id);
  }
}
BENCHMARK(BM_EventQueueDeepSchedule)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_EventChurnSchedCancel(benchmark::State& state) {
  // Timer re-arm churn against a deep backlog (1e6 pending at Arg(1000000)):
  // schedule two deadlines, cancel the near one, fire the far one — the
  // pattern Raft nodes execute on every heartbeat. The step() at the end
  // also drains the cancelled entry, so the queue is at steady state across
  // iterations. The backlog sits ~11 simulated years out: the timed loop
  // advances the clock 20 ms per iteration and must never reach it.
  sim::Simulator sim;
  for (int i = 0; i < state.range(0); ++i) {
    sim.schedule_after(std::chrono::hours(100000) + std::chrono::milliseconds(i), [] {});
  }
  std::uint64_t cancelled = 0;
  for (auto _ : state) {
    const auto a = sim.schedule_after(10ms, [] {});
    sim.schedule_after(20ms, [] {});
    cancelled += sim.cancel(a) ? 1 : 0;
    sim.step();
  }
  benchmark::DoNotOptimize(cancelled);
}
BENCHMARK(BM_EventChurnSchedCancel)->Arg(1000000);

void BM_EventChurnSchedStep(benchmark::State& state) {
  // schedule+fire churn against a deep backlog: every iteration schedules a
  // near event and steps it to completion while 1e6 far events sit below
  // (far enough — ~11 simulated years — that the loop can never reach them).
  sim::Simulator sim;
  for (int i = 0; i < state.range(0); ++i) {
    sim.schedule_after(std::chrono::hours(100000) + std::chrono::milliseconds(i), [] {});
  }
  std::uint64_t fired = 0;
  for (auto _ : state) {
    sim.schedule_after(1ms, [&fired] { ++fired; });
    sim.step();
  }
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventChurnSchedStep)->Arg(1000000);

void BM_NetworkSendDeliver(benchmark::State& state) {
  sim::Simulator sim;
  net::Network net(sim, Rng(7));
  std::uint64_t delivered = 0;
  const NodeId a = net.add_node();
  const NodeId b = net.add_node([&delivered](NodeId, const net::Message&) { ++delivered; });
  (void)a;
  for (auto _ : state) {
    net.send(0, b, net::TestPayload{42}, net::Transport::Datagram, 64);
    sim.run_all();
  }
  benchmark::DoNotOptimize(delivered);
}
BENCHMARK(BM_NetworkSendDeliver);

void BM_NetworkSendDatagram(benchmark::State& state) {
  // Pure send+deliver cost on the lossy path, batched so the event queue sees
  // realistic in-flight depth (64 messages across a 5-node full mesh).
  sim::Simulator sim;
  net::Network net(sim, Rng(7));
  std::uint64_t delivered = 0;
  std::vector<NodeId> nodes;
  for (int i = 0; i < 5; ++i) {
    nodes.push_back(net.add_node([&delivered](NodeId, const net::Message&) { ++delivered; }));
  }
  for (auto _ : state) {
    for (int k = 0; k < 64; ++k) {
      const NodeId from = nodes[static_cast<std::size_t>(k) % nodes.size()];
      const NodeId to = nodes[static_cast<std::size_t>(k + 1) % nodes.size()];
      net.send(from, to, net::TestPayload{42}, net::Transport::Datagram, 64);
    }
    sim.run_all();
  }
  state.SetItemsProcessed(state.iterations() * 64);
  benchmark::DoNotOptimize(delivered);
}
BENCHMARK(BM_NetworkSendDatagram);

void BM_NetworkSendReliable(benchmark::State& state) {
  // Reliable path: FIFO enforcement + retransmit model + turbulence tracking.
  sim::Simulator sim;
  net::Network net(sim, Rng(7));
  std::uint64_t delivered = 0;
  std::vector<NodeId> nodes;
  for (int i = 0; i < 5; ++i) {
    nodes.push_back(net.add_node([&delivered](NodeId, const net::Message&) { ++delivered; }));
  }
  net::LinkCondition cond;
  cond.rtt = 10ms;
  cond.loss = 0.01;
  net.set_default_schedule(net::ConditionSchedule::constant(cond));
  for (auto _ : state) {
    for (int k = 0; k < 64; ++k) {
      const NodeId from = nodes[static_cast<std::size_t>(k) % nodes.size()];
      const NodeId to = nodes[static_cast<std::size_t>(k + 1) % nodes.size()];
      net.send(from, to, net::TestPayload{42}, net::Transport::Reliable, 256);
    }
    sim.run_all();
  }
  state.SetItemsProcessed(state.iterations() * 64);
  benchmark::DoNotOptimize(delivered);
}
BENCHMARK(BM_NetworkSendReliable);

void BM_LinkLookup(benchmark::State& state) {
  // Per-send link resolution: the one table access on the send hot path.
  // Arg(0) selects the layout/pair class: 0 = dense single tile (classic
  // unsharded network), 1 = block-diagonal in-group (tile hit), 2 =
  // block-diagonal cross-group (sparse side table, steady state after the
  // pair's first touch promoted it). The three must stay within the same
  // order of magnitude — the block-diagonal layout may not tax unsharded
  // call sites, and a promoted cross pair may not fall off a cliff.
  constexpr std::size_t kGroupSize = 33;
  constexpr std::size_t kGroups = 8;
  const int mode = static_cast<int>(state.range(0));
  sim::Simulator sim;
  net::Network net(sim, Rng(7));
  if (mode != 0) net.configure_groups(kGroupSize, kGroups);
  net.add_nodes(kGroupSize * kGroups);
  NodeId from = 0;
  NodeId to = 1;
  if (mode == 2) {
    to = static_cast<NodeId>(kGroupSize);  // next group over
    net.set_blocked(from, to, false);      // promote into the sparse table
  }
  bool acc = false;
  for (auto _ : state) {
    acc ^= net.link_blocked(from, to);
    benchmark::DoNotOptimize(acc);
  }
  state.SetLabel(mode == 0 ? "dense" : mode == 1 ? "tile" : "cross");
}
BENCHMARK(BM_LinkLookup)->Arg(0)->Arg(1)->Arg(2);

void BM_NetworkResetForTrial(benchmark::State& state) {
  // Per-trial substrate reset at sweep scale: groups of 33 at 5/32/64
  // groups = 165/1056/2112 total nodes. The epoch-stamped lazy reset is
  // O(nodes + touched cross-pairs) — doubling the node count must roughly
  // double this, never quadruple it (the old dense walk cleared all
  // (k*n)^2 links). Each iteration touches one in-tile link per group plus
  // one cross pair first, so the stamp path has live state to retire.
  constexpr std::size_t kGroupSize = 33;
  const auto groups = static_cast<std::size_t>(state.range(0));
  const std::size_t total = kGroupSize * groups;
  sim::Simulator sim;
  net::Network net(sim, Rng(7));
  net.configure_groups(kGroupSize, groups);
  net.add_nodes(total);
  std::uint64_t trial = 0;
  for (auto _ : state) {
    for (std::size_t g = 0; g < groups; ++g) {
      net.set_blocked(static_cast<NodeId>(g * kGroupSize),
                      static_cast<NodeId>(g * kGroupSize + 1), true);
    }
    net.set_blocked(0, static_cast<NodeId>(kGroupSize), true);
    net.reset_for_trial(Rng(++trial), total);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(total));
}
BENCHMARK(BM_NetworkResetForTrial)->Arg(5)->Arg(32)->Arg(64);

/// A PUT with a 64-1024 byte value, as the closed-loop write workloads send.
std::string random_put(Rng& rng, std::size_t key) {
  std::string value(64 + static_cast<std::size_t>(rng.uniform_index(961)), '\0');
  for (char& c : value) c = static_cast<char>('a' + rng.uniform_index(26));
  return kv::encode({kv::Op::Put, "key-" + std::to_string(key), std::move(value), {}});
}

void BM_InvariantCheckerApply(benchmark::State& state) {
  // The checker's per-commit work: 5 replicas each apply one group-commit
  // entry of 32 PUTs (~18 KB), and every replica fingerprints the bytes it
  // holds against the commit table.
  constexpr int kReplicas = 5;
  Rng rng(3);
  raft::LogEntry entry;
  entry.term = 2;
  for (std::size_t i = 0; i < 32; ++i) kv::batch_append(entry.command.payload, random_put(rng, i));
  raft::InvariantChecker chk;
  for (auto _ : state) {
    ++entry.index;
    for (NodeId node = 0; node < kReplicas; ++node) chk.on_entry_committed(node, entry, {});
  }
  if (!chk.ok()) state.SkipWithError("checker flagged a healthy history");
  state.SetBytesProcessed(state.iterations() * kReplicas *
                          static_cast<std::int64_t>(entry.command.payload.size()));
}
BENCHMARK(BM_InvariantCheckerApply);

void BM_KvSnapshot(benchmark::State& state) {
  // Serializing a 10k-key store (64-1024 byte values, ~5.5 MB), as every
  // snapshot compaction on the write path does.
  Rng rng(5);
  kv::KvStateMachine sm;
  for (std::size_t k = 0; k < 10000; ++k) sm.apply(random_put(rng, k));
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string blob = sm.snapshot();
    bytes = blob.size();
    benchmark::DoNotOptimize(blob.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_KvSnapshot)->Unit(benchmark::kMillisecond);

void BM_KvFreeze(benchmark::State& state) {
  // Freezing the BM_KvSnapshot store into a snapshot image (and dropping
  // it), as every compaction does: copies the entry vector and shares the
  // values, no value bytes copied.
  Rng rng(5);
  kv::KvStateMachine sm;
  for (std::size_t k = 0; k < 10000; ++k) sm.apply(random_put(rng, k));
  for (auto _ : state) {
    const auto image = sm.freeze();
    benchmark::DoNotOptimize(image.get());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(sm.size()));
}
BENCHMARK(BM_KvFreeze)->Unit(benchmark::kMicrosecond);

void BM_KvApplyPut(benchmark::State& state) {
  // Steady-state apply of one group-commit frame of 32 PUTs (64-1024 byte
  // values) on a 10k-key store: every key exists, so each PUT is an index
  // lookup plus a value overwrite. Cycles through 64 prebuilt frames.
  Rng rng(7);
  kv::KvStateMachine sm;
  for (std::size_t k = 0; k < 10000; ++k) sm.apply(random_put(rng, k));
  std::vector<std::string> frames(64);
  for (std::string& frame : frames) {
    for (int i = 0; i < 32; ++i) kv::batch_append(frame, random_put(rng, rng.uniform_index(10000)));
  }
  std::size_t next = 0;
  for (auto _ : state) {
    const std::string results = sm.apply(frames[next]);
    benchmark::DoNotOptimize(results.data());
    next = (next + 1) % frames.size();
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_KvApplyPut);

void BM_ClusterHeartbeatSecond(benchmark::State& state) {
  // One simulated second of idle n-server cluster traffic (heartbeats,
  // responses, timers) per iteration. The n=65 rows are the scaling rows:
  // leader fan-out and response handling must stay O(n) array walks.
  const bool dynatune = state.range(0) != 0;
  const auto n = static_cast<std::size_t>(state.range(1));
  cluster::ClusterConfig cfg = dynatune ? cluster::make_dynatune_config(n, 11)
                                        : cluster::make_raft_config(n, 11);
  cluster::Cluster c(std::move(cfg));
  c.await_leader(30s);
  for (auto _ : state) {
    c.sim().run_for(1s);
  }
  state.SetLabel(dynatune ? "dynatune" : "raft");
}
BENCHMARK(BM_ClusterHeartbeatSecond)
    ->Args({0, 5})
    ->Args({1, 5})
    ->Args({0, 65})
    ->Args({1, 65});

void BM_ClusterReplicationSecond(benchmark::State& state) {
  // One simulated second of steady replication fan-out: a paced stream
  // submits 256-byte PUTs (over a bounded 256-key working set) in 8-command
  // bursts, 320 commands/s, so each batch flush ships a multi-entry
  // AppendEntries to every follower and every replica decodes and applies
  // every commit. This is the path the shared-log view keeps copy-free:
  // one suffix materialization per broadcast round, segment adoption on the
  // follower side, zero-copy command decode in the state machine.
  const auto n = static_cast<std::size_t>(state.range(0));
  cluster::ClusterConfig cfg = cluster::make_raft_config(n, 11);
  cfg.durable_log = false;
  cluster::Cluster c(std::move(cfg));
  c.await_leader(30s);
  std::vector<std::string> payloads;
  payloads.reserve(256);
  for (int k = 0; k < 256; ++k) {
    payloads.push_back(
        kv::encode({kv::Op::Put, "key-" + std::to_string(k), std::string(256, 'x'), {}}));
  }
  std::uint64_t seq = 0;
  std::function<void()> burst = [&] {
    if (const NodeId leader = c.current_leader(); leader != kNoNode) {
      if (auto* node = c.node_if_alive(leader); node != nullptr && node->running()) {
        for (int i = 0; i < 8; ++i) {
          raft::Command cmd;
          cmd.payload = payloads[seq++ % payloads.size()];
          (void)node->submit(std::move(cmd));
        }
      }
    }
    c.sim().schedule_after(25ms, [&burst] { burst(); });
  };
  c.sim().schedule_after(25ms, [&burst] { burst(); });
  for (auto _ : state) {
    c.sim().run_for(1s);
  }
  state.SetItemsProcessed(state.iterations() * 320);
}
BENCHMARK(BM_ClusterReplicationSecond)->Arg(5)->Arg(15)->Arg(33)->Arg(65);

}  // namespace

BENCHMARK_MAIN();
