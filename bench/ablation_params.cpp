// Ablation study over Dynatune's design knobs: the paper's §III-E runtime
// arguments and engineering clamps (dt::DynatuneConfig), plus the Raft tick.
//
// Sweeps, one at a time, on the Fig 4 setup (5 servers, RTT 100 ms, testbed
// stalls), measuring detection / OTS / false-detection pressure:
//   * safety factor s in Et = µ + s·σ  (paper default 2)
//   * delivery target x                (paper default 0.999)
//   * minListSize warm-up              (paper default 10)
//   * K floor (min heartbeats per Et)  (our engineering clamp, default 2)
//   * tick granularity                 (etcd 100 ms vs Dynatune 1 ms)
//
// Usage: ablation_params [--kills=N] [--seed=S]
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "dynatune/config.hpp"
#include "scenario/runner.hpp"
#include "scenario/sink.hpp"

namespace {

using namespace dyna;
using namespace std::chrono_literals;

constexpr std::size_t kKillsPerTrial = 25;

struct AblationRow {
  std::string label;
  scenario::FailoverStats stats;
  double timeouts_per_min = 0.0;  ///< all timer expiries per minute (kill cascades + false detections)
};

AblationRow run_config(const std::string& label, dt::DynatuneConfig dt_cfg, Duration tick,
                       std::size_t kills, std::uint64_t seed, unsigned threads) {
  scenario::ScenarioSpec base;
  base.name = "ablation";
  base.variant = scenario::Variant::Dynatune;
  base.dynatune = dt_cfg;
  base.raft_tick = tick;
  base.topology = scenario::TopologySpec::constant(100ms);
  base.transport.stall = scenario::testbed_stalls();
  base.faults = scenario::FaultPlan::leader_kills(kKillsPerTrial, 10s);

  scenario::SweepSpec sweep;
  sweep.base = std::move(base);
  sweep.seeds = (kills + kKillsPerTrial - 1) / kKillsPerTrial;
  sweep.master_seed = seed;
  sweep.threads = threads;
  const auto results = scenario::ScenarioRunner::run_sweep(sweep);

  std::vector<scenario::FailoverSample> all;
  double minutes = 0.0;
  std::size_t timeouts = 0;
  for (const auto& r : results) {
    all.insert(all.end(), r.failovers.begin(), r.failovers.end());
    minutes += r.sim_seconds / 60.0;
    timeouts += r.timer_expiries;
  }
  AblationRow row;
  row.label = label;
  row.stats = scenario::summarize_failovers(all);
  row.timeouts_per_min = minutes > 0 ? static_cast<double>(timeouts) / minutes : 0.0;
  return row;
}

void print_rows(const std::string& title, const std::vector<AblationRow>& rows) {
  metrics::banner(title);
  metrics::Table t({"config", "detection mean (ms)", "OTS mean (ms)", "election mean (ms)",
                    "timer expiries/min"});
  for (const auto& r : rows) {
    t.row({r.label, metrics::Table::num(r.stats.detection.mean),
           metrics::Table::num(r.stats.ots.mean), metrics::Table::num(r.stats.election.mean),
           metrics::Table::num(r.timeouts_per_min, 2)});
  }
  t.print();
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto kills = static_cast<std::size_t>(cli.scaled(cli.get_or("kills", std::int64_t{75})));
  const auto seed = static_cast<std::uint64_t>(cli.get_or("seed", std::int64_t{1}));
  const auto threads = static_cast<unsigned>(cli.get_or("threads", std::int64_t{0}));
  const Duration dyn_tick = 1ms;

  {
    std::vector<AblationRow> rows;
    for (const double s : {0.0, 1.0, 2.0, 4.0, 8.0}) {
      dt::DynatuneConfig d;
      d.safety_factor = s;
      rows.push_back(run_config("s=" + metrics::Table::num(s, 0), d, dyn_tick, kills,
                                seed, threads));
    }
    print_rows("Ablation: safety factor s (Et = mu + s*sigma); paper default s=2", rows);
  }
  {
    std::vector<AblationRow> rows;
    for (const double x : {0.9, 0.99, 0.999, 0.99999}) {
      dt::DynatuneConfig d;
      d.delivery_target = x;
      rows.push_back(run_config("x=" + metrics::Table::num(x, 5), d, dyn_tick, kills,
                                seed + 1, threads));
    }
    print_rows("Ablation: delivery target x; paper default 0.999", rows);
  }
  {
    std::vector<AblationRow> rows;
    for (const int m : {2, 10, 50, 200}) {
      dt::DynatuneConfig d;
      d.min_list_size = static_cast<std::size_t>(m);
      rows.push_back(run_config("minListSize=" + std::to_string(m), d, dyn_tick, kills,
                                seed + 2, threads));
    }
    print_rows("Ablation: warm-up minListSize; paper default 10", rows);
  }
  {
    std::vector<AblationRow> rows;
    for (const int k : {1, 2, 4}) {
      dt::DynatuneConfig d;
      d.min_heartbeats_per_timeout = k;
      rows.push_back(run_config("K_min=" + std::to_string(k), d, dyn_tick, kills,
                                seed + 3, threads));
    }
    print_rows("Ablation: K floor (h <= Et/K_min); paper formula allows K=1", rows);
  }
  {
    std::vector<AblationRow> rows;
    rows.push_back(run_config("tick=1ms", {}, 1ms, kills, seed + 4, threads));
    rows.push_back(run_config("tick=10ms", {}, 10ms, kills, seed + 4, threads));
    rows.push_back(run_config("tick=100ms (etcd)", {}, 100ms, kills, seed + 4, threads));
    print_rows("Ablation: timeout tick granularity", rows);
  }
  return 0;
}
