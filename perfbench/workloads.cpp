#include "workloads.hpp"

#include <algorithm>
#include <limits>

#include "common/stats.hpp"
#include "parallel/trial_runner.hpp"
#include "scenario/runner.hpp"
#include "workload/closed_loop.hpp"

namespace perfbench {

namespace {

using namespace std::chrono_literals;
using scenario::ScenarioResult;
using scenario::ScenarioRunner;
using scenario::ScenarioSpec;
using scenario::SweepSpec;
using scenario::Variant;

[[nodiscard]] double since_s(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

/// Stream ids keep the four workloads' inputs independent at one seed.
constexpr std::uint64_t kElectionStream = 0xE1EC7;
constexpr std::uint64_t kFailoverStream = 0xFA110;
constexpr std::uint64_t kKvWriteStream = 0x6B7701;
constexpr std::uint64_t kKvReadStream = 0x6B7702;

/// The closed-loop pool's rng stream inside ScenarioRunner::run_on; driving
/// the pool with the same stream keeps the driver's path and the runner's
/// path on one trace (check() compares them).
constexpr std::uint64_t kPoolStream = 0xC10D;

/// Node ids of a single-group cluster never reach this, so every event lands
/// in one duplicate checker.
constexpr std::size_t kOneGroup = std::size_t{1} << 30;

// ---- Sweep workloads: election_sweep, failover -----------------------------------

/// A grid of short trials run through ScenarioRunner::run_sweep. The traced
/// repetition replays the sweep executor's schedule by hand — worker-local
/// clusters, materialize at a cell change, Cluster::reset(seed) within a
/// cell — so the wrappers never push the sweep off the seed-only reset path.
class SweepWorkload final : public Workload {
 public:
  SweepWorkload(SweepSpec sweep, bool failover)
      : sweep_(std::move(sweep)), failover_(failover) {}

  [[nodiscard]] Names names() const override {
    return failover_ ? Names{"kills", "kills_per_s"} : Names{"trials", "trials_per_s"};
  }
  [[nodiscard]] unsigned threads() const override { return sweep_.threads; }

  [[nodiscard]] double setup_s() override {
    // One substrate per grid cell, elected and (failover) settled.
    const std::int64_t t0 = now_ns();
    for (const Cell& cell : cells()) {
      ScenarioSpec spec = cell_spec(cell, ScenarioRunner::sweep_seed(sweep_, 0));
      auto c = ScenarioRunner::materialize(spec);
      if (!c->await_leader(spec.await_leader)) fail("setup: no leader elected");
      if (failover_) c->sim().run_for(spec.faults.settle);
    }
    return since_s(t0);
  }

  [[nodiscard]] RepResult run(bool traced) override {
    RepResult rep;
    std::vector<ScenarioResult> results;
    if (traced) {
      results = traced_sweep(rep);
    } else {
      const std::int64_t t0 = now_ns();
      results = ScenarioRunner::run_sweep(sweep_);
      rep.wall_s = since_s(t0);
    }
    compare(results, traced ? "traced sweep" : "sweep");
    for (const ScenarioResult& r : results) {
      if (failover_) {
        rep.units += sweep_.base.faults.kills;
        rep.failed += sweep_.base.faults.kills -
                      static_cast<std::uint64_t>(std::count_if(
                          r.failovers.begin(), r.failovers.end(),
                          [](const scenario::FailoverSample& s) { return s.ok; }));
      } else {
        ++rep.units;
        if (!r.leader_elected) ++rep.failed;
      }
    }
    return rep;
  }

  void check() override {
    // A subset of the grid through fresh and reused substrates: both must
    // match each other and the measured repetitions' results.
    SweepSpec subset = sweep_;
    subset.seeds = std::min<std::size_t>(sweep_.seeds, failover_ ? 2 : 20);
    subset.reuse_substrate = false;
    const std::vector<ScenarioResult> fresh = ScenarioRunner::run_sweep(subset);
    subset.reuse_substrate = true;
    const std::vector<ScenarioResult> reused = ScenarioRunner::run_sweep(subset);
    if (fresh != reused) fail("reused-substrate sweep diverged from fresh construction");
    for (std::size_t i = 0; i < reused.size() && !first_.empty(); ++i) {
      const std::size_t cell = i / subset.seeds;
      if (!(reused[i] == first_[cell * sweep_.seeds + i % subset.seeds])) {
        fail("subset sweep trial " + std::to_string(i) + " differs from the full sweep");
        break;
      }
    }
  }

  void outcome(Metrics& e2e, Metrics& named, Metrics& layers) const override {
    if (failover_) {
      failover_outcome(e2e, named, layers);
    } else {
      election_outcome(e2e, named, layers);
    }
  }

 private:
  struct Cell {
    Variant variant;
    std::size_t servers;
  };

  /// The sweep's enumeration: variant-major, then size (as run_sweep).
  [[nodiscard]] std::vector<Cell> cells() const {
    const std::vector<std::size_t> sizes =
        sweep_.sizes.empty() ? std::vector<std::size_t>{sweep_.base.servers} : sweep_.sizes;
    std::vector<Cell> out;
    for (const Variant v : sweep_.variants) {
      for (const std::size_t n : sizes) out.push_back({v, n});
    }
    return out;
  }

  [[nodiscard]] ScenarioSpec cell_spec(const Cell& cell, std::uint64_t seed) const {
    ScenarioSpec spec = sweep_.base;
    spec.variant = cell.variant;
    spec.servers = cell.servers;
    spec.seed = seed;
    return spec;
  }

  std::vector<ScenarioResult> traced_sweep(RepResult& rep) {
    struct Worker {
      // The tracer outlives the cluster whose nodes point at its observers.
      std::unique_ptr<Tracer> tracer = std::make_unique<Tracer>(kOneGroup);
      std::size_t cell = std::numeric_limits<std::size_t>::max();
      ScenarioSpec spec;
      std::unique_ptr<cluster::Cluster> cluster;
    };
    const std::vector<Cell> grid = cells();
    const std::size_t seeds = sweep_.seeds;
    std::vector<Worker> workers(sweep_.threads);
    std::vector<ScenarioResult> results(grid.size() * seeds);

    const std::int64_t t0 = now_ns();
    par::for_trials(
        results.size(), sweep_.master_seed,
        [&](std::size_t i, std::uint64_t /*derived*/) {
          const std::int64_t start = now_ns();
          Worker& w = workers[static_cast<std::size_t>(par::ThreadPool::current_worker())];
          LayerCounters& lc = w.tracer->counters;
          const std::size_t cell = i / seeds;
          const std::uint64_t seed = ScenarioRunner::sweep_seed(sweep_, i % seeds);
          w.tracer->checker.clear();
          if (w.cell != cell) {
            w.cluster.reset();
            w.spec = cell_spec(grid[cell], seed);
            w.cell = cell;
            w.cluster = timed(lc.materialize, [&] { return ScenarioRunner::materialize(w.spec); });
            cluster::ClusterConfig cfg = w.cluster->config();
            w.tracer->instrument(cfg);
            w.cluster->reset(std::move(cfg));
          } else {
            w.spec.seed = seed;
            timed(lc.reset, [&] { w.cluster->reset(seed); });
          }
          cluster::Cluster& c = *w.cluster;
          const bool elected =
              timed(lc.await_leader, [&] { return c.await_leader(w.spec.await_leader); });
          // run_on awaits the leader again; with one present that returns at
          // once. Without one, a zero horizon keeps the simulated timeline
          // exactly the untraced run's.
          std::optional<ScenarioSpec> no_wait;
          if (!elected) {
            no_wait = w.spec;
            no_wait->await_leader = Duration{0};
          }
          const ScenarioSpec& spec = no_wait ? *no_wait : w.spec;
          results[i] = timed(lc.run_on, [&] { return ScenarioRunner::run_on(c, spec); });
          timed(lc.audit, [&] { (void)c.audit_invariants(); });
          w.tracer->collect(c);
          lc.units += failover_ ? sweep_.base.faults.kills : 1;
          lc.busy_ns += now_ns() - start;
        },
        sweep_.threads);
    rep.wall_s = since_s(t0);

    LayerCounters total;
    for (Worker& w : workers) {
      w.tracer->checker.clear();  // banks the last trial's violations
      total.merge(w.tracer->counters);
      rep.units_per_worker.push_back(w.tracer->counters.units);
      w.cluster.reset();
    }
    if (total.checker_violations != 0) fail("duplicate invariant checker reported violations");
    rep.layers = total;
    return results;
  }

  void compare(const std::vector<ScenarioResult>& got, const char* path) {
    if (first_.empty()) {
      first_ = got;
      for (const ScenarioResult& r : got) {
        if (r.invariant_violations != 0) {
          fail("invariant violations in trial seed " + std::to_string(r.seed));
          break;
        }
      }
    } else if (got != first_) {
      fail(std::string(path) + " results differ from the first repetition");
    }
  }

  void election_outcome(Metrics& e2e, Metrics& named, Metrics& layers) const {
    // Trials are variant-major; each variant spans sizes x seeds results.
    const std::size_t per_variant = sweep_.seeds * sweep_.sizes.size();
    std::vector<double> elect_ms;
    std::vector<double> raft_ms, dyna_ms;
    for (std::size_t i = 0; i < first_.size(); ++i) {
      const ScenarioResult& r = first_[i];
      if (!r.leader_elected) continue;
      const double ms = r.sim_seconds * 1000.0;
      elect_ms.push_back(ms);
      const Variant v = sweep_.variants[i / per_variant];
      if (v == Variant::Raft) raft_ms.push_back(ms);
      if (v == Variant::Dynatune) dyna_ms.push_back(ms);
    }
    const Summary s = Summary::of(elect_ms);
    const double ok = static_cast<double>(elect_ms.size()) / static_cast<double>(first_.size());
    e2e["ok_share"] = {ok, "share"};
    e2e["unit_ms_mean"] = {s.mean, "ms"};
    e2e["unit_ms_p99"] = {s.p99, "ms"};
    named["failed_share"] = {1.0 - ok, "share"};
    named["elect_ms_p50"] = {s.p50, "ms"};
    named["elect_ms_p99"] = {s.p99, "ms"};
    layers["scenario.elect_ms_p50"] = {s.p50, "ms"};
    const double raft_mean = Summary::of(raft_ms).mean;
    layers["scenario.elect_reduction_pct"] = {
        raft_mean > 0.0 ? 100.0 * (1.0 - Summary::of(dyna_ms).mean / raft_mean) : 0.0, "%"};
  }

  void failover_outcome(Metrics& e2e, Metrics& named, Metrics& layers) const {
    // Results are variant-major: Raft's trials, then Dynatune's, same seeds.
    const auto half = static_cast<std::ptrdiff_t>(first_.size() / 2);
    const std::vector<ScenarioResult> raft_results(first_.begin(), first_.begin() + half);
    const std::vector<ScenarioResult> dyna_results(first_.begin() + half, first_.end());
    const scenario::FailoverStats r =
        scenario::summarize_failovers(scenario::collect_failovers(raft_results));
    const scenario::FailoverStats d =
        scenario::summarize_failovers(scenario::collect_failovers(dyna_results));
    const double kills = static_cast<double>(first_.size() * sweep_.base.faults.kills);
    const double ok = static_cast<double>(r.ots.count + d.ots.count) / kills;
    const double detect_red = 100.0 * (1.0 - d.detection.mean / r.detection.mean);
    const double ots_red = 100.0 * (1.0 - d.ots.mean / r.ots.mean);
    e2e["ok_share"] = {ok, "share"};
    e2e["unit_ms_mean"] = {d.ots.mean, "ms"};
    e2e["unit_ms_p99"] = {d.ots.p99, "ms"};
    named["failed_share"] = {1.0 - ok, "share"};
    named["detect_ms_p50"] = {d.detection.p50, "ms"};
    named["ots_ms_p50"] = {d.ots.p50, "ms"};
    named["ots_ms_p99"] = {d.ots.p99, "ms"};
    named["detect_reduction_pct"] = {detect_red, "%"};
    named["ots_reduction_pct"] = {ots_red, "%"};
    layers["scenario.detect_ms_p50"] = {d.detection.p50, "ms"};
    layers["scenario.ots_ms_p50"] = {d.ots.p50, "ms"};
    layers["scenario.detect_reduction_pct"] = {detect_red, "%"};
    layers["scenario.ots_reduction_pct"] = {ots_red, "%"};
  }

  SweepSpec sweep_;
  bool failover_;
  std::vector<ScenarioResult> first_;
};

// ---- Closed-loop KV workloads: kv_write, kv_read_sharded -------------------------

/// One closed-loop client pool on one deployment (a single group, or k
/// shards on one substrate). The driver takes the same steps as
/// ScenarioRunner::run_on — await leader(s), warm up, run the pool on the
/// runner's rng stream, audit — so the pool run can be timed on its own;
/// check() proves the two paths produce the same result.
class KvWorkload final : public Workload {
 public:
  KvWorkload(ScenarioSpec spec, bool with_baseline)
      : spec_(std::move(spec)), with_baseline_(with_baseline) {}

  [[nodiscard]] Names names() const override { return {"ops", "ops_per_wall_s"}; }
  [[nodiscard]] unsigned threads() const override { return 1; }

  [[nodiscard]] double setup_s() override {
    Tracer unused(spec_.servers);
    const std::int64_t t0 = now_ns();
    if (sharded()) {
      (void)deploy_sharded(false, unused);
    } else {
      (void)deploy_single(false, unused);
    }
    return since_s(t0);
  }

  [[nodiscard]] RepResult run(bool traced) override {
    Tracer tracer(spec_.servers);  // one duplicate checker per shard
    LayerCounters& lc = tracer.counters;
    Run out;
    if (sharded()) {
      run_sharded(traced, tracer, out);
    } else {
      run_single(traced, tracer, out);
    }
    lc.units = out.mix.completed + out.mix.failed;
    lc.busy_ns = static_cast<std::int64_t>(out.pool_wall_s * 1e9);
    tracer.checker.clear();
    if (lc.checker_violations != 0) fail("duplicate invariant checker reported violations");
    if (out.violations != 0) fail("invariant violations after the pool run");

    if (!first_) {
      first_ = out;
    } else if (!(out.mix == first_->mix) || out.per_shard != first_->per_shard) {
      fail(std::string(traced ? "traced" : "untraced") +
           " pool run differs from the first repetition");
    }
    if (traced) {
      if (!snapshot_bytes_) {
        snapshot_bytes_ = out.snapshot_bytes;
      } else if (*snapshot_bytes_ != out.snapshot_bytes) {
        fail("leader snapshot size differs between traced repetitions");
      }
    }

    RepResult rep;
    rep.units = lc.units;
    rep.failed = out.mix.failed;
    rep.wall_s = out.pool_wall_s;
    if (traced) {
      rep.layers = lc;
      rep.units_per_worker = {lc.units};
    }
    return rep;
  }

  void check() override {
    // The runner's own whole-run path must reproduce the driver's pool run.
    const ScenarioResult r = ScenarioRunner::run(spec_);
    if (!r.leader_elected) fail("ScenarioRunner::run elected no leader");
    if (r.invariant_violations != 0) fail("ScenarioRunner::run reported invariant violations");
    if (r.mix.size() != 1 || !first_ || !(r.mix.front() == first_->mix)) {
      fail("ScenarioRunner::run pool result differs from the driver's pool run");
    }
  }

  void outcome(Metrics& e2e, Metrics& named, Metrics& layers) const override {
    if (!first_) return;
    const wl::MixResult& m = first_->mix;
    const double attempted = static_cast<double>(m.completed + m.failed);
    const double ok = attempted > 0.0 ? static_cast<double>(m.completed) / attempted : 0.0;
    e2e["ok_share"] = {ok, "share"};
    e2e["unit_ms_mean"] = {m.mean_latency_ms, "ms"};
    e2e["unit_ms_p99"] = {m.p99_latency_ms, "ms"};
    named["failed_share"] = {1.0 - ok, "share"};
    named["commit_ms_mean"] = {m.mean_latency_ms, "ms"};
    named["commit_ms_p99"] = {m.p99_latency_ms, "ms"};
    named["ops_per_sim_s"] = {m.achieved_rps, "1/s"};
    layers["workload.completed"] = {static_cast<double>(m.completed), "count"};
    layers["workload.failed"] = {static_cast<double>(m.failed), "count"};
    layers["workload.ops_per_sim_s"] = {m.achieved_rps, "1/s"};
    layers["kvstore.snapshot_bytes"] = {static_cast<double>(snapshot_bytes_.value_or(0)), "B"};
    double min_share = 1.0;
    for (const wl::ShardOps& s : first_->per_shard) {
      min_share = std::min(min_share, static_cast<double>(s.completed) / attempted);
    }
    layers["shard.ops_min_share"] = {min_share, "share"};
  }

  [[nodiscard]] std::unique_ptr<Workload> single_node_baseline() const override {
    if (!with_baseline_) return nullptr;
    ScenarioSpec one = spec_;
    one.servers = 1;
    return std::make_unique<KvWorkload>(std::move(one), false);
  }

 private:
  struct Run {
    wl::MixResult mix;
    std::vector<wl::ShardOps> per_shard;
    std::uint64_t violations = 0;
    std::size_t snapshot_bytes = 0;
    double pool_wall_s = 0.0;
  };

  [[nodiscard]] bool sharded() const noexcept { return spec_.shards > 1; }

  /// The measured phase: one closed-loop pool run.
  static void run_pool(wl::ClosedLoopPool& pool, LayerCounters& lc, Run& out) {
    const std::int64_t t0 = now_ns();
    out.mix = pool.run();
    const std::int64_t d = now_ns() - t0;
    lc.pool_run.add(d);
    out.pool_wall_s = static_cast<double>(d) / 1e9;
  }

  void snapshot(cluster::Cluster& c, LayerCounters& lc, Run& out) {
    const NodeId leader = c.current_leader();
    if (leader == kNoNode) return;
    out.snapshot_bytes =
        timed(lc.snapshot, [&] { return c.state_machine(leader).snapshot(); }).size();
  }

  /// Set-up: materialize, instrument when traced, elect, warm up.
  std::unique_ptr<cluster::Cluster> deploy_single(bool traced, Tracer& tracer) {
    LayerCounters& lc = tracer.counters;
    auto c = timed(lc.materialize, [&] { return ScenarioRunner::materialize(spec_); });
    if (traced) {
      cluster::ClusterConfig cfg = c->config();
      tracer.instrument(cfg);
      c->reset(std::move(cfg));
    }
    if (!timed(lc.await_leader, [&] { return c->await_leader(spec_.await_leader); })) {
      fail("no leader elected");
    }
    c->sim().run_for(spec_.warmup);
    return c;
  }

  std::unique_ptr<shard::ShardedCluster> deploy_sharded(bool traced, Tracer& tracer) {
    LayerCounters& lc = tracer.counters;
    auto sc = timed(lc.materialize, [&] { return ScenarioRunner::materialize_sharded(spec_); });
    if (traced) {
      shard::ShardedConfig cfg = sc->config();
      tracer.instrument(cfg.group);
      sc->reset(std::move(cfg));
    }
    if (!timed(lc.await_leader, [&] { return sc->await_all_leaders(spec_.await_leader); })) {
      fail("a shard elected no leader");
    }
    sc->sim().run_for(spec_.warmup);
    return sc;
  }

  void run_single(bool traced, Tracer& tracer, Run& out) {
    LayerCounters& lc = tracer.counters;
    auto c = deploy_single(traced, tracer);
    wl::ClosedLoopPool pool(*c, spec_.workload.mix, c->fork_rng(kPoolStream));
    run_pool(pool, lc, out);
    out.violations = timed(lc.audit, [&] { return c->audit_invariants(); });
    if (traced) {
      snapshot(*c, lc, out);
      tracer.collect(*c);
    }
  }

  void run_sharded(bool traced, Tracer& tracer, Run& out) {
    LayerCounters& lc = tracer.counters;
    auto sc = deploy_sharded(traced, tracer);
    shard::ShardRouter router = sc->make_router();
    wl::ClosedLoopPool pool(*sc, router, spec_.workload.mix, sc->fork_rng(kPoolStream));
    run_pool(pool, lc, out);
    out.per_shard = pool.per_shard();
    for (std::size_t g = 0; g < sc->shards(); ++g) {
      out.violations += timed(lc.audit, [&] { return sc->shard(g).audit_invariants(); });
    }
    if (traced) {
      snapshot(sc->shard(0), lc, out);
      tracer.collect_substrate(sc->sim(), sc->network());
      for (std::size_t g = 0; g < sc->shards(); ++g) {
        tracer.collect(sc->shard(g), /*owns_substrate=*/false);
      }
    }
  }

  ScenarioSpec spec_;
  bool with_baseline_;
  std::optional<Run> first_;
  std::optional<std::size_t> snapshot_bytes_;  ///< leader state, traced runs
};

// ---- Workload definitions ---------------------------------------------------------

/// fig_sweep's grid: Raft / Dynatune / Fix-K x n in {5, 15} over paired
/// seeds, RTT 50 ms, jitter 2 ms, 1% loss, two workers on reused substrates.
std::unique_ptr<Workload> election_sweep(std::uint64_t seed) {
  SweepSpec sweep;
  sweep.base.name = "election_sweep";
  sweep.base.topology = scenario::TopologySpec::constant(50ms, 2ms, 0.01);
  sweep.base.await_leader = 10s;
  sweep.variants = {Variant::Raft, Variant::Dynatune, Variant::FixK};
  sweep.sizes = {5, 15};
  sweep.seeds = 2000;
  sweep.master_seed = derive_seed(seed, kElectionStream);
  sweep.threads = 2;
  sweep.reuse_substrate = true;
  return std::make_unique<SweepWorkload>(std::move(sweep), /*failover=*/false);
}

/// fig4_election's kill loop: 5 servers, RTT 100 ms, testbed stalls,
/// container-sleep leader kills with 10 s settle, 25 kills per trial, Raft
/// and Dynatune on the same trial seeds, one worker.
std::unique_ptr<Workload> failover(std::uint64_t seed) {
  SweepSpec sweep;
  sweep.base.name = "failover";
  sweep.base.servers = 5;
  sweep.base.topology = scenario::TopologySpec::constant(100ms);
  sweep.base.transport.stall = scenario::testbed_stalls();
  sweep.base.faults = scenario::FaultPlan::leader_kills(25, 10s);
  sweep.variants = {Variant::Raft, Variant::Dynatune};
  sweep.seeds = 40;
  sweep.master_seed = derive_seed(seed, kFailoverStream);
  sweep.threads = 1;
  sweep.reuse_substrate = true;
  return std::make_unique<SweepWorkload>(std::move(sweep), /*failover=*/true);
}

/// 64 zero-think sessions issuing PUTs of 64-1024 B over 10k keys against
/// one static-policy Raft group of 5 at RTT 10 ms, with group commit, the
/// durable log and snapshot compaction on.
std::unique_ptr<Workload> kv_write(std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "kv_write";
  spec.variant = Variant::Raft;
  spec.servers = 5;
  spec.seed = derive_seed(seed, kKvWriteStream);
  spec.topology = scenario::TopologySpec::constant(10ms);
  spec.group_commit = true;
  spec.durable_log = true;
  spec.snapshot_threshold = 256;
  spec.warmup = 1s;
  wl::MixConfig mix;
  mix.clients = 64;
  mix.get_ratio = 0.0;
  mix.keyspace = 10'000;
  mix.value_bytes_min = 64;
  mix.value_bytes_max = 1024;
  mix.duration = 8s;
  spec.workload = scenario::WorkloadPlan::closed_loop(mix);
  return std::make_unique<KvWorkload>(std::move(spec), /*with_baseline=*/true);
}

/// 64 sessions, 90% GETs served by ReadIndex, 16-128 B values over 100k
/// keys, on 4 hash shards x 5 servers sharing one network at RTT 10 ms.
std::unique_ptr<Workload> kv_read_sharded(std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "kv_read_sharded";
  spec.variant = Variant::Raft;
  spec.servers = 5;
  spec.shards = 4;
  spec.partition_mode = shard::PartitionMode::Hash;
  spec.seed = derive_seed(seed, kKvReadStream);
  spec.topology = scenario::TopologySpec::constant(10ms);
  spec.read_index = true;
  spec.warmup = 1s;
  wl::MixConfig mix;
  mix.clients = 64;
  mix.get_ratio = 0.9;
  mix.keyspace = 100'000;
  mix.value_bytes_min = 16;
  mix.value_bytes_max = 128;
  mix.duration = 24s;
  spec.workload = scenario::WorkloadPlan::closed_loop(mix);
  return std::make_unique<KvWorkload>(std::move(spec), /*with_baseline=*/false);
}

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "election_sweep") return election_sweep(seed);
  if (name == "failover") return failover(seed);
  if (name == "kv_write") return kv_write(seed);
  if (name == "kv_read_sharded") return kv_read_sharded(seed);
  return nullptr;
}

}  // namespace perfbench
