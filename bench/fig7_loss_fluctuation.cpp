// Fig 7: adaptivity to packet-loss fluctuations (h tuning + CPU cost).
//
// RTT fixed at 200 ms; the loss rate steps 0 -> 30 % -> 0 in 5 % increments,
// each held for a while (paper: 3 min). Variants: Dynatune (loss-driven K)
// vs Fix-K (K pinned to 10, Et still tuned). Server counts N in {5, 17, 65}.
// We sample, per bin: the leader's mean heartbeat interval toward followers,
// leader/follower CPU % (perf model), and we count elections (paper: zero
// for both variants in every configuration).
//
// Paper shapes (Fig 7a/b): Dynatune's h sits near Et (~250 ms at p=0; with
// our K>=2 floor, near Et/2), dives as loss grows (more heartbeats to keep
// delivery probability >= x), recovers as loss recedes; Fix-K's h stays flat
// ~Et/10. Fix-K's leader burns several times more CPU (N=65: saturating a
// core), with Dynatune peaking only under high loss.
//
// Usage: fig7_loss_fluctuation [--hold=SECONDS] [--servers=5,17,65] [--seed=S]
//        [--csv=FILE]
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/cli.hpp"
#include "scenario/runner.hpp"
#include "scenario/sink.hpp"

namespace {

using namespace dyna;
using namespace std::chrono_literals;

scenario::ScenarioSpec fig7_spec(bool fixk, std::size_t servers, Duration hold,
                                 std::uint64_t seed) {
  net::LinkCondition base;
  base.rtt = 200ms;
  base.jitter = 2ms;

  scenario::ScenarioSpec spec;
  spec.name = "fig7";
  spec.variant = fixk ? scenario::Variant::FixK : scenario::Variant::Dynatune;
  spec.fix_k = 10;
  spec.servers = servers;
  spec.seed = seed;
  spec.topology.schedule = net::ConditionSchedule::loss_ramp_up_down(base, 0.0, 0.30, 0.05, hold);
  // The N=65 run used a dedicated m6a.48xlarge (no CPU oversubscription):
  // no stall process here, only the perf model.
  cluster::CostModel cost;
  cost.charge_tuning = true;  // both variants carry the measurement plumbing
  spec.perf_cost = cost;  // the cluster's perf model bins CPU per 5 s
  // 0..30..0 in 5% steps = 13 levels.
  spec.samples = scenario::SamplePlan::every(5s, hold * 13 + 10s, /*kth=*/3);
  return spec;
}

void print_run(const scenario::ScenarioResult& r, Duration print_every) {
  std::printf("\n--- %s, N=%zu: heartbeat interval & CPU per %.0fs ---\n", r.variant.c_str(),
              r.servers, to_sec(print_every));
  std::printf("%8s %9s %8s %12s %14s\n", "t(s)", "loss(%)", "h(ms)", "leaderCPU(%)",
              "followerCPU(%)");
  const auto stride =
      static_cast<std::size_t>(std::max(1.0, to_sec(print_every) / 5.0));
  for (std::size_t i = 0; i < r.samples.size(); i += stride) {
    const auto& p = r.samples[i];
    if (p.h_mean_ms < 0.0) continue;  // leaderless bin
    std::printf("%8.0f %9.1f %8.0f %12.1f %14.2f\n", p.t_sec, p.loss_pct, p.h_mean_ms,
                p.leader_cpu_pct, p.follower_cpu_pct);
  }
  double cpu_sum = 0.0, cpu_max = 0.0;
  std::size_t cpu_n = 0;
  for (const auto& p : r.samples) {
    if (p.leader_cpu_pct < 0.0) continue;
    cpu_sum += p.leader_cpu_pct;
    cpu_max = std::max(cpu_max, p.leader_cpu_pct);
    ++cpu_n;
  }
  std::printf("%s N=%zu summary: elections=%zu (paper: 0), timer expiries=%zu, "
              "leader CPU mean=%.1f%% max=%.1f%%\n",
              r.variant.c_str(), r.servers, r.elections, r.timer_expiries,
              cpu_n > 0 ? cpu_sum / static_cast<double>(cpu_n) : 0.0, cpu_max);
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto seed = static_cast<std::uint64_t>(cli.get_or("seed", std::int64_t{1}));
  // Default hold 30 s per loss level for a quick run; paper used 180 s.
  const auto hold = std::chrono::seconds(cli.scaled(cli.get_or("hold", std::int64_t{30})));
  const std::vector<std::size_t> server_counts = cli.get_sizes("servers", {5, 17, 65});

  metrics::banner("Fig 7: packet-loss fluctuation 0->30%->0 at RTT 200 ms, Dynatune vs Fix-K");
  std::printf("hold per loss level: %.0f s (paper: 180 s)\n", to_sec(Duration(hold)));

  std::unique_ptr<scenario::CsvSink> csv;
  const auto csv_path = cli.get("csv");
  if (csv_path) {
    csv = std::make_unique<scenario::CsvSink>(*csv_path, scenario::CsvSection::Samples);
  }

  for (const std::size_t n : server_counts) {
    for (const bool fixk : {false, true}) {
      const scenario::ScenarioResult r =
          scenario::ScenarioRunner::run(fig7_spec(fixk, n, hold, seed));
      print_run(r, std::chrono::seconds(std::max<std::int64_t>(30, hold.count() / 2)));
      if (csv != nullptr) csv->consume(r);
    }
  }
  if (csv_path) std::printf("wrote %s\n", csv_path->c_str());
  return 0;
}
