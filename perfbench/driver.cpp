// Benchmark driver: runs one workload for a fixed wall-clock budget and
// prints its metrics as one JSON object on the last line of stdout.
//
//   perfbench_driver --workload=NAME --seed=N --seconds=S --trace=0|1
//
// --trace=0 reports the end-to-end metrics: set-up time (median of several
// set-ups), throughput in the workload's unit (median over repetitions of
// its fixed work), peak RSS, and the simulated outcome of that work (success
// share, mean and p99 latency of one unit). --trace=1 spends half the budget
// on untraced repetitions and half on traced ones and reports the per-layer
// metrics, including the tracing overhead. Lines before the JSON name the
// same results under each workload's own metric names. Any failed
// correctness check sets "correct": false and the exit code to 1.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr std::size_t kMinReps = 3; ///< repetitions per measured phase, at least

constexpr const char* kMsgKindNames[kMsgKinds] = {
    "Heartbeat", "HeartbeatResponse", "Append",          "AppendResponse",
    "PreVote",   "PreVoteResponse",   "Vote",            "VoteResponse",
    "InstallSnapshot", "InstallSnapshotResponse", "Client", "ClientResponse"};

/// Per-layer metrics only some workloads produce (Workload::outcome).
const std::pair<const char*, const char*> kWorkloadLayers[] = {
    {"workload.completed", "count"},      {"workload.failed", "count"},
    {"workload.ops_per_sim_s", "1/s"},    {"kvstore.snapshot_bytes", "B"},
    {"shard.ops_min_share", "share"},     {"scenario.elect_ms_p50", "ms"},
    {"scenario.elect_reduction_pct", "%"}, {"scenario.detect_ms_p50", "ms"},
    {"scenario.ots_ms_p50", "ms"},        {"scenario.detect_reduction_pct", "%"},
    {"scenario.ots_reduction_pct", "%"}};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Peak resident set size of this process in MiB (Linux VmHWM).
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

/// Repeat the workload's fixed work until `budget_s` has passed, timing one
/// set-up before each repetition so set-up samples span the same stretch of
/// machine time as the repetitions.
std::vector<RepResult> measure(Workload& w, bool traced, double budget_s,
                               std::vector<double>& setups) {
  std::vector<RepResult> reps;
  const std::int64_t t0 = now_ns();
  do {
    setups.push_back(w.setup_s());
    reps.push_back(w.run(traced));
  } while (reps.size() < kMinReps || static_cast<double>(now_ns() - t0) / 1e9 < budget_s);
  return reps;
}

double median_rate(const std::vector<RepResult>& reps) {
  std::vector<double> v;
  for (const RepResult& r : reps) v.push_back(static_cast<double>(r.units) / r.wall_s);
  return median(v);
}

double median_wall(const std::vector<RepResult>& reps) {
  std::vector<double> v;
  for (const RepResult& r : reps) v.push_back(r.wall_s);
  return median(v);
}

/// Median over traced repetitions of a per-repetition figure.
template <typename Fn>
double over_traced(const std::vector<RepResult>& reps, Fn&& fn) {
  std::vector<double> v;
  for (const RepResult& r : reps) v.push_back(fn(*r.layers, r));
  return median(v);
}

/// Deterministic fields of two traced passes must agree exactly.
bool same_counts(const LayerCounters& a, const LayerCounters& b) {
  return a.units == b.units && a.sim_events == b.sim_events && a.sim_ns == b.sim_ns &&
         a.msgs_sent == b.msgs_sent && a.bytes_sent == b.bytes_sent &&
         a.datagrams_lost == b.datagrams_lost && a.kind_msgs == b.kind_msgs &&
         a.kind_bytes == b.kind_bytes && a.entries_committed == b.entries_committed &&
         a.elections == b.elections && a.election_timeouts == b.election_timeouts &&
         a.retunes == b.retunes && a.batches_sealed == b.batches_sealed &&
         a.batched_commands == b.batched_commands && a.reads_served == b.reads_served &&
         a.snapshots_taken == b.snapshots_taken && a.policy.calls == b.policy.calls &&
         a.checker.calls == b.checker.calls;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

Metrics layer_metrics(const Workload& w, const std::vector<RepResult>& plain,
                      const std::vector<RepResult>& traced, double clock_ns) {
  Metrics m;
  const LayerCounters& L = *traced.front().layers;
  const double units = static_cast<double>(L.units);
  const double plain_wall = median_wall(plain);

  const auto mean_us = [&](Span LayerCounters::*span) {
    return over_traced(traced, [&](const LayerCounters& l, const RepResult&) {
      return (l.*span).mean_us(clock_ns);
    });
  };
  m["scenario.run_on_us"] = {mean_us(&LayerCounters::run_on), "us"};
  m["cluster.reset_us"] = {mean_us(&LayerCounters::reset), "us"};
  m["cluster.materialize_us"] = {mean_us(&LayerCounters::materialize), "us"};
  m["cluster.await_leader_us"] = {mean_us(&LayerCounters::await_leader), "us"};
  m["cluster.audit_us"] = {mean_us(&LayerCounters::audit), "us"};
  m["kvstore.snapshot_us"] = {mean_us(&LayerCounters::snapshot), "us"};
  m["workload.pool_run_s"] = {mean_us(&LayerCounters::pool_run) / 1e6, "s"};

  const double threads = static_cast<double>(w.threads());
  m["parallel.worker_busy_share"] = {
      over_traced(traced, [&](const LayerCounters& l, const RepResult& r) {
        return ratio(static_cast<double>(l.busy_ns) / 1e9, threads * r.wall_s);
      }),
      "share"};
  const auto& per_worker = traced.front().units_per_worker;
  m["parallel.trials_per_worker_min"] = {
      static_cast<double>(*std::min_element(per_worker.begin(), per_worker.end())), "count"};
  m["parallel.trials_per_worker_max"] = {
      static_cast<double>(*std::max_element(per_worker.begin(), per_worker.end())), "count"};

  // Rates divide the traced pass's exact counts by the untraced wall time:
  // the simulated work is identical, only the clock differs.
  m["sim.events"] = {static_cast<double>(L.sim_events), "count"};
  m["sim.events_per_wall_s"] = {ratio(static_cast<double>(L.sim_events), plain_wall), "1/s"};
  m["sim.sim_s_per_wall_s"] = {ratio(static_cast<double>(L.sim_ns) / 1e9, plain_wall), "s/s"};
  m["net.msgs_sent"] = {static_cast<double>(L.msgs_sent), "count"};
  m["net.bytes_sent"] = {static_cast<double>(L.bytes_sent), "B"};
  m["net.datagrams_lost"] = {static_cast<double>(L.datagrams_lost), "count"};
  m["net.msgs_per_unit"] = {ratio(static_cast<double>(L.msgs_sent), units), "count"};

  // Shares are of the traced busy time less the duplicate checker's own
  // time, i.e. of a run that pays for the checker once, as untraced runs do.
  const auto share_of = [&](Span LayerCounters::*span) {
    return over_traced(traced, [&](const LayerCounters& l, const RepResult&) {
      const double base = static_cast<double>(l.busy_ns) - l.checker.self_ns(clock_ns);
      return ratio((l.*span).self_ns(clock_ns), base);
    });
  };
  const auto ns_per_call = [&](Span LayerCounters::*span) {
    return over_traced(traced, [&](const LayerCounters& l, const RepResult&) {
      return ratio((l.*span).self_ns(clock_ns), static_cast<double>((l.*span).calls));
    });
  };
  m["dynatune.policy_calls"] = {static_cast<double>(L.policy.calls), "count"};
  m["dynatune.policy_ns_per_call"] = {ns_per_call(&LayerCounters::policy), "ns"};
  m["dynatune.policy_share"] = {share_of(&LayerCounters::policy), "share"};
  m["dynatune.retunes"] = {static_cast<double>(L.retunes), "count"};

  for (std::size_t k = 0; k < kMsgKinds; ++k) {
    m[std::string("raft.msgs.") + kMsgKindNames[k]] = {static_cast<double>(L.kind_msgs[k]),
                                                       "count"};
    m[std::string("raft.bytes.") + kMsgKindNames[k]] = {static_cast<double>(L.kind_bytes[k]),
                                                        "B"};
  }
  m["raft.entries_committed"] = {static_cast<double>(L.entries_committed), "count"};
  m["raft.cmds_per_batch"] = {
      ratio(static_cast<double>(L.batched_commands), static_cast<double>(L.batches_sealed)),
      "count"};
  m["raft.reads_served"] = {static_cast<double>(L.reads_served), "count"};
  m["raft.snapshots_taken"] = {static_cast<double>(L.snapshots_taken), "count"};
  m["raft.elections"] = {static_cast<double>(L.elections), "count"};
  m["raft.election_timeouts"] = {static_cast<double>(L.election_timeouts), "count"};
  m["raft.checker_ns_per_event"] = {ns_per_call(&LayerCounters::checker), "ns"};
  m["raft.checker_share"] = {share_of(&LayerCounters::checker), "share"};

  m["trace.overhead_pct"] = {100.0 * (ratio(median_wall(traced), plain_wall) - 1.0), "%"};
  m["trace.units_per_s"] = {median_rate(traced), "1/s"};
  return m;
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, v] : metrics) {
    const double value = std::isfinite(v.value) ? v.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), value, v.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const dyna::Cli cli(argc, argv);
  const std::string name = cli.get_or("workload", std::string{});
  const auto seed_arg = cli.get("seed");
  const double seconds = cli.get_or("seconds", 10.0);
  const bool trace = cli.get_or("trace", std::int64_t{0}) != 0;
  const std::uint64_t seed = seed_arg ? std::strtoull(seed_arg->c_str(), nullptr, 10) : 0;

  std::unique_ptr<Workload> w = make_workload(name, seed);
  if (w == nullptr || !seed_arg || !(seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload=election_sweep|failover|kv_write|"
                 "kv_read_sharded --seed=N --seconds=S --trace=0|1\n");
    return 2;
  }
  const Workload::Names names = w->names();
  const double clock_ns = calibrate_clock_ns();

  // One untimed set-up and repetition first: the medians never see a cold
  // process, and peak RSS is that of one repetition, not of allocator
  // history that grows with the number of repetitions a machine fits in.
  (void)w->setup_s();
  (void)w->run(false);
  const double rss_mib = peak_rss_mib();

  std::vector<double> setups;
  std::vector<RepResult> plain;
  std::vector<RepResult> traced;
  std::unique_ptr<Workload> baseline = trace ? w->single_node_baseline() : nullptr;
  std::vector<RepResult> baseline_reps;
  std::vector<double> baseline_setups;
  if (!trace) {
    plain = measure(*w, false, seconds, setups);
  } else {
    const double share = baseline ? 0.4 : 0.5;
    plain = measure(*w, false, seconds * share, setups);
    traced = measure(*w, true, seconds * share, setups);
    if (baseline) {
      baseline_reps = measure(*baseline, false, seconds * (1.0 - 2.0 * share), baseline_setups);
      baseline_reps.push_back(baseline->run(true));
    }
  }
  w->check();

  std::vector<std::string> errors = w->errors();
  if (baseline) errors.insert(errors.end(), baseline->errors().begin(), baseline->errors().end());
  for (std::size_t i = 1; i < traced.size(); ++i) {
    if (!same_counts(*traced[i].layers, *traced.front().layers)) {
      errors.push_back("per-layer counts differ between traced repetitions");
      break;
    }
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const auto* reps : {&plain, &traced, &baseline_reps}) {
    for (const RepResult& r : *reps) {
      attempted += r.units;
      failed += r.failed;
    }
  }

  Metrics e2e;
  Metrics named;
  Metrics layers;
  w->outcome(e2e, named, layers);
  e2e["setup_s"] = {median(setups), "s"};
  e2e["units_per_s"] = {median_rate(plain), "1/s"};
  e2e["peak_rss_mib"] = {rss_mib, "MiB"};
  named["setup_s"] = e2e["setup_s"];
  named["peak_rss_mib"] = e2e["peak_rss_mib"];
  named[names.throughput] = e2e["units_per_s"];

  std::printf("workload %s seed %llu: %zu untraced, %zu traced repetitions; unit = %s\n",
              name.c_str(), static_cast<unsigned long long>(seed), plain.size(), traced.size(),
              names.unit);
  for (const auto* reps : {&plain, &traced}) {
    if (reps->empty()) continue;
    std::vector<double> rates;
    for (const RepResult& r : *reps) rates.push_back(static_cast<double>(r.units) / r.wall_s);
    std::sort(rates.begin(), rates.end());
    std::printf("  %s %s/s per repetition: min %.6g median %.6g max %.6g\n",
                reps == &plain ? "untraced" : "traced", names.unit, rates.front(), median(rates),
                rates.back());
  }
  for (const auto& [metric, v] : named) {
    std::printf("  %-22s %.6g %s\n", metric.c_str(), v.value, v.unit.c_str());
  }
  for (const std::string& e : errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());

  Metrics out;
  if (!trace) {
    out = e2e;
  } else {
    out = layer_metrics(*w, plain, traced, clock_ns);
    for (const auto& [metric, v] : layers) out[metric] = v;
    // Layers a workload does not exercise report zero: the no-change
    // prediction, printed rather than left out.
    for (const auto& [key, unit] : kWorkloadLayers) out.try_emplace(key, Value{0.0, unit});
    double n1_rate = 0.0;
    double n1_msgs = 0.0;
    double replication = 0.0;
    if (baseline) {
      const RepResult bt = std::move(baseline_reps.back());
      baseline_reps.pop_back();
      n1_rate = median_rate(baseline_reps);
      n1_msgs = ratio(static_cast<double>(bt.layers->msgs_sent), static_cast<double>(bt.units));
      replication = 100.0 * (1.0 - ratio(e2e["units_per_s"].value, n1_rate));
    }
    out["baseline.n1_units_per_s"] = {n1_rate, "1/s"};
    out["baseline.n1_msgs_per_unit"] = {n1_msgs, "count"};
    out["baseline.replication_share_pct"] = {replication, "%"};
  }
  print_json(errors.empty(), attempted, failed, out);
  return errors.empty() ? 0 : 1;
}
