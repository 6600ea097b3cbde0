// Sweep-scale throughput study: trials per second on a reference policy grid.
//
// The roadmap's policy-comparison studies (BALLAST/SEER-style) are thousands
// of short trials — the metric that gates them is not events/second inside a
// trial but *trials per second* across a sweep. This bench pins that number
// on a reference grid — one SweepSpec crossing Raft / Dynatune / Fix-K with
// n in {5, 15} and `--seeds` paired seeds per cell (election-latency
// trials) — run whole, twice per repetition, interleaved:
//
//   fresh  — one freshly constructed Cluster per trial (the pre-reuse path,
//            SweepSpec::reuse_substrate = false);
//   reused — each worker recycles one warmed substrate through
//            Cluster::reset between trials (the default sweep path).
//
// The two modes must produce bit-identical ScenarioResult vectors — this
// bench aborts on any divergence, making it a reset-leak tripwire wherever
// it runs (CI bench-smoke included). Throughput is whole-grid (median over
// `--reps` interleaved repetitions): individual cells are a few
// milliseconds of wall clock, far too small a sample to gate on, so the
// machine-dependent CSV columns (trials_per_sec_fresh, trials_per_sec_reused,
// speedup, peak_rss_mib) carry the grid-level rates repeated on every row.
// Per-cell determinism aggregates (elected count, mean time-to-leader,
// election/expiry counters — pure functions of the seed) sit in the strict
// band of tools/check_bench_csv.py.
//
// Usage: fig_sweep [--seeds=N] [--reps=R] [--sizes=5,15] [--seed=S]
//                  [--threads=T] [--csv=FILE]
// A 10k-trial characterization is one command: fig_sweep --seeds=1700
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "rss.hpp"
#include "scenario/runner.hpp"
#include "scenario/sink.hpp"

namespace {

using namespace dyna;
using namespace std::chrono_literals;

struct CellRow {
  std::string variant;
  std::size_t servers = 0;
  std::size_t seeds = 0;
  std::size_t elected = 0;       ///< trials that elected a leader
  double mean_elect_ms = 0.0;    ///< mean simulated time to the first leader
  std::size_t elections = 0;     ///< elections started, summed over trials
  std::size_t expiries = 0;      ///< election-timer expiries, summed
};

scenario::SweepSpec grid_sweep(const std::vector<scenario::Variant>& variants,
                               const std::vector<std::size_t>& sizes, std::size_t seeds,
                               std::uint64_t master, unsigned threads, bool reuse) {
  scenario::SweepSpec sweep;
  sweep.base.name = "fig_sweep";
  sweep.base.topology = scenario::TopologySpec::constant(50ms, 2ms, 0.01);
  sweep.base.await_leader = 10s;
  sweep.variants = variants;
  sweep.sizes = sizes;
  sweep.seeds = seeds;
  sweep.master_seed = master;
  sweep.threads = threads;
  sweep.reuse_substrate = reuse;
  return sweep;
}

double median(std::vector<double> v) {
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto seeds = static_cast<std::size_t>(cli.scaled(cli.get_or("seeds", std::int64_t{100})));
  const auto reps = static_cast<std::size_t>(cli.get_or("reps", std::int64_t{3}));
  const auto sizes = cli.get_sizes("sizes", {5, 15});
  const auto master = static_cast<std::uint64_t>(cli.get_or("seed", std::int64_t{42}));
  const auto threads = static_cast<unsigned>(cli.get_or("threads", std::int64_t{1}));

  const std::vector<scenario::Variant> variants = {
      scenario::Variant::Raft, scenario::Variant::Dynatune, scenario::Variant::FixK};

  metrics::banner("Sweep-scale throughput: fresh construction vs reused substrate");
  std::printf("grid: %zu variants x %zu sizes x %zu seeds = %zu trials per mode; "
              "%zu interleaved reps, %u thread(s)\n\n",
              variants.size(), sizes.size(), seeds, variants.size() * sizes.size() * seeds,
              reps, threads);

  using Clock = std::chrono::steady_clock;
  std::vector<double> fresh_sec, reused_sec;
  std::vector<scenario::ScenarioResult> fresh_results, reused_results;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    auto t0 = Clock::now();
    fresh_results = scenario::ScenarioRunner::run_sweep(
        grid_sweep(variants, sizes, seeds, master, threads, /*reuse=*/false));
    fresh_sec.push_back(std::chrono::duration<double>(Clock::now() - t0).count());

    t0 = Clock::now();
    reused_results = scenario::ScenarioRunner::run_sweep(
        grid_sweep(variants, sizes, seeds, master, threads, /*reuse=*/true));
    reused_sec.push_back(std::chrono::duration<double>(Clock::now() - t0).count());

    // The determinism contract, enforced where everyone can see it: a reused
    // substrate that leaks any state across trials changes some result bit
    // and dies here.
    if (fresh_results != reused_results) {
      std::fprintf(stderr,
                   "FATAL: reused-substrate sweep diverged from fresh construction "
                   "(rep=%zu) — cross-trial state leak\n", rep);
      return 1;
    }
  }

  // Results arrive cell-major (variant-major, then size, then seed): fold
  // each cell's seed block into its determinism-fingerprint row.
  std::vector<CellRow> rows;
  for (std::size_t cell = 0; cell * seeds < reused_results.size(); ++cell) {
    CellRow row;
    row.variant = reused_results[cell * seeds].variant;
    row.servers = reused_results[cell * seeds].servers;
    row.seeds = seeds;
    for (std::size_t i = cell * seeds; i < (cell + 1) * seeds; ++i) {
      const auto& r = reused_results[i];
      if (r.leader_elected) ++row.elected;
      row.mean_elect_ms += r.sim_seconds * 1000.0;
      row.elections += r.elections;
      row.expiries += r.timer_expiries;
    }
    row.mean_elect_ms /= static_cast<double>(seeds);
    rows.push_back(std::move(row));
  }

  const double total_trials = static_cast<double>(reused_results.size());
  const double fresh_tps = total_trials / median(fresh_sec);
  const double reused_tps = total_trials / median(reused_sec);
  const double rss = bench::peak_rss_mib();

  metrics::Table table({"variant", "n", "elected", "elect(ms)", "elections", "expiries"});
  for (const CellRow& r : rows) {
    table.row({r.variant, std::to_string(r.servers),
               std::to_string(r.elected) + "/" + std::to_string(r.seeds),
               metrics::Table::num(r.mean_elect_ms), std::to_string(r.elections),
               std::to_string(r.expiries)});
  }
  table.print();

  std::printf("\nreference sweep (%0.f trials): fresh %.0f trials/s, reused %.0f trials/s "
              "(%.2fx); peak RSS %.1f MiB\n",
              total_trials, fresh_tps, reused_tps, reused_tps / fresh_tps, rss);

  if (const auto csv_path = cli.get("csv")) {
    // Machine columns carry the grid-level rates on every row (see the file
    // comment: cells are milliseconds of wall clock, not a gateable sample).
    CsvWriter csv(*csv_path,
                  {"scenario", "variant", "servers", "seeds", "elected", "mean_elect_ms",
                   "elections", "expiries", "trials_per_sec_fresh", "trials_per_sec_reused",
                   "speedup", "peak_rss_mib"});
    for (const CellRow& r : rows) {
      csv.row({"fig_sweep", r.variant, std::to_string(r.servers), std::to_string(r.seeds),
               std::to_string(r.elected), CsvWriter::cell(r.mean_elect_ms),
               std::to_string(r.elections), std::to_string(r.expiries),
               CsvWriter::cell(fresh_tps), CsvWriter::cell(reused_tps),
               CsvWriter::cell(reused_tps / fresh_tps), CsvWriter::cell(rss)});
    }
    std::printf("wrote %s\n", csv_path->c_str());
  }
  return 0;
}
