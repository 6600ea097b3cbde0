// Snapshot compaction study: bounded memory under sustained load and fast
// crash recovery from a snapshot instead of a full log replay.
//
// Two phases, each run with compaction off (snapshot_threshold = 0, the
// default) and on, same seeds, so every deterministic column is directly
// comparable across modes:
//
//   soak     — n = `--servers` cluster under a sustained PUT stream
//              (`--rate` commands per simulated second) for `--soak-sec`
//              simulated seconds. Off-mode logs grow without bound; on-mode
//              logs must stay under snapshot_threshold + snapshot_trailing
//              (plus the unsnapshotted suffix accrued since the last cut) —
//              the bench aborts if any replica's live log exceeds that
//              envelope. Resident-set size is sampled once per simulated
//              second (current VmRSS, not the process high-water mark, so
//              the on-phase is not masked by an earlier off-phase peak).
//
//   recovery — n = 5 cluster, `--entries` committed PUTs, then a follower
//              crash/restart measured wall-clock from restart() until the
//              restarted node has re-applied up to the leader's commit
//              index, median over `--reps`. Off-mode replays the entire
//              log; on-mode restores the snapshot blob and replays only the
//              trailing suffix. At characterization scale (>= 50k entries)
//              the bench aborts unless snapshots recover >= 10x faster.
//
// The soak phases deliberately run on-before-off and the whole bench is one
// process: identical command streams across modes make ops/commit/log
// divergences loud (they are exact-match columns in check_bench_csv.py).
//
// Usage: fig_compaction [--servers=15] [--soak-sec=60] [--rate=200]
//                       [--entries=100000] [--reps=5] [--keys=200]
//                       [--seed=42] [--csv=FILE]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/cli.hpp"
#include "common/csv.hpp"
#include "kvstore/command.hpp"
#include "metrics/report.hpp"
#include "rss.hpp"

namespace {

using namespace dyna;
using namespace std::chrono_literals;

double median(std::vector<double> v) {
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

struct PhaseRow {
  std::string mode;             ///< "off" | "on"
  std::string phase;            ///< "soak" | "recovery"
  std::size_t servers = 0;
  double sim_sec = 0.0;         ///< simulated time the phase covered
  std::uint64_t ops = 0;        ///< commands committed by the leader
  std::size_t log_entries = 0;  ///< largest live log across replicas, at end
  std::uint64_t snapshots = 0;  ///< snapshots taken, summed over replicas
  std::uint64_t replayed = 0;   ///< entries re-applied on restart (recovery)
  double peak_rss_mib = -1.0;   ///< soak: per-sim-second peak; recovery: end
  double recovery_ms = -1.0;    ///< median wall-clock restart -> caught up
};

cluster::ClusterConfig base_config(std::size_t servers, std::uint64_t seed, bool compaction) {
  auto cfg = cluster::make_raft_config(servers, seed);
  if (compaction) {
    cfg.raft.snapshot_threshold = 1000;
    cfg.raft.snapshot_trailing = 64;
  }
  return cfg;
}

std::string put_payload(std::uint64_t n, std::size_t keyspace) {
  kv::KvCommand cmd{kv::Op::Put, "k" + std::to_string(n % keyspace),
                    "v" + std::to_string(n), {}};
  return kv::encode(cmd);
}

/// Sustained PUT stream: bounded memory is the claim under test.
PhaseRow run_soak(bool compaction, std::size_t servers, int soak_sec, int rate,
                  std::size_t keyspace, std::uint64_t seed) {
  cluster::Cluster c(base_config(servers, seed, compaction));
  if (!c.await_leader(10s)) {
    std::fprintf(stderr, "FATAL: soak cluster elected no leader\n");
    std::exit(1);
  }

  PhaseRow row;
  row.mode = compaction ? "on" : "off";
  row.phase = "soak";
  row.servers = servers;

  std::uint64_t submitted = 0;
  double peak = bench::current_rss_mib();
  // Four bursts per simulated second keeps per-call overhead low while the
  // stream stays effectively continuous at the Raft timescale (100 ms
  // heartbeats).
  for (int sec = 0; sec < soak_sec; ++sec) {
    for (int burst = 0; burst < 4; ++burst) {
      const NodeId leader = c.current_leader();
      if (leader != kNoNode) {
        for (int i = 0; i < rate / 4; ++i) {
          raft::Command cmd;
          cmd.payload = put_payload(submitted, keyspace);
          if (c.node(leader).submit(std::move(cmd))) ++submitted;
        }
      }
      c.sim().run_for(250ms);
    }
    peak = std::max(peak, bench::current_rss_mib());
  }
  c.sim().run_for(2s);  // drain replication of the final burst

  const NodeId leader = c.current_leader();
  row.ops = submitted;
  row.sim_sec = std::chrono::duration<double>(c.sim().now().time_since_epoch()).count();
  row.peak_rss_mib = peak;
  for (const NodeId id : c.server_ids()) {
    row.log_entries = std::max(row.log_entries, c.node(id).log().size());
    row.snapshots += c.node(id).snapshots_taken();
  }

  if (leader == kNoNode || c.node(leader).commit_index() < submitted) {
    std::fprintf(stderr, "FATAL: soak (%s) did not commit its stream\n", row.mode.c_str());
    std::exit(1);
  }
  if (compaction) {
    // The bounded-memory pin: threshold + trailing + one threshold's worth
    // of unsnapshotted suffix is the largest a live log can legitimately be.
    const auto& r = c.config().raft;
    const std::size_t bound = 2 * r.snapshot_threshold + r.snapshot_trailing;
    if (row.snapshots == 0 || row.log_entries > bound) {
      std::fprintf(stderr,
                   "FATAL: compaction soak unbounded — %zu live entries (bound %zu), "
                   "%llu snapshots\n",
                   row.log_entries, bound, static_cast<unsigned long long>(row.snapshots));
      std::exit(1);
    }
  } else if (row.log_entries < submitted) {
    std::fprintf(stderr, "FATAL: off-mode soak log shrank — compaction not off by default?\n");
    std::exit(1);
  }
  return row;
}

/// Crash/restart a follower behind a large committed log and measure the
/// wall-clock cost of catching back up to the leader's commit index.
PhaseRow run_recovery(bool compaction, std::uint64_t entries, std::size_t reps,
                      std::size_t keyspace, std::uint64_t seed) {
  constexpr std::size_t kServers = 5;
  auto cfg = base_config(kServers, seed, compaction);
  if (compaction) {
    // Larger threshold than the soak's: snapshotting every 1000 entries of a
    // 100k build-up is pure overhead noise; the claim is about recovery.
    cfg.raft.snapshot_threshold = 10'000;
  }
  cluster::Cluster c(std::move(cfg));
  if (!c.await_leader(10s)) {
    std::fprintf(stderr, "FATAL: recovery cluster elected no leader\n");
    std::exit(1);
  }

  PhaseRow row;
  row.mode = compaction ? "on" : "off";
  row.phase = "recovery";
  row.servers = kServers;

  // Build the committed log in batches so replication interleaves with
  // submission instead of queueing the whole stream at once.
  std::uint64_t submitted = 0;
  const NodeId leader = c.current_leader();
  while (submitted < entries) {
    const std::uint64_t batch = std::min<std::uint64_t>(500, entries - submitted);
    for (std::uint64_t i = 0; i < batch; ++i) {
      raft::Command cmd;
      cmd.payload = put_payload(submitted, keyspace);
      if (c.node(leader).submit(std::move(cmd))) ++submitted;
    }
    c.sim().run_for(200ms);
  }
  c.sim().run_for(2s);
  const raft::LogIndex commit = c.node(leader).commit_index();
  if (c.current_leader() != leader || commit < entries) {
    std::fprintf(stderr, "FATAL: recovery build-up did not commit %llu entries\n",
                 static_cast<unsigned long long>(entries));
    std::exit(1);
  }

  const NodeId victim = leader == 1 ? NodeId{2} : NodeId{1};
  using Clock = std::chrono::steady_clock;
  std::vector<double> ms;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    c.crash(victim);
    c.sim().run_for(100ms);
    const auto t0 = Clock::now();
    c.restart(victim);  // storage load + snapshot restore happen here
    row.replayed = commit - c.node(victim).last_applied();
    // Replay is driven by the leader's next append/heartbeat advancing the
    // restarted node's commit index, so run the simulation until caught up.
    while (c.node(victim).last_applied() < commit) c.sim().run_for(5ms);
    ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  }

  row.ops = submitted;
  row.sim_sec = std::chrono::duration<double>(c.sim().now().time_since_epoch()).count();
  row.log_entries = c.node(victim).log().size();
  for (const NodeId id : c.server_ids()) row.snapshots += c.node(id).snapshots_taken();
  row.peak_rss_mib = bench::current_rss_mib();
  row.recovery_ms = median(std::move(ms));

  if (compaction && c.node(victim).snapshot_index() == 0) {
    std::fprintf(stderr, "FATAL: recovery (on) restarted without a snapshot\n");
    std::exit(1);
  }
  if (!compaction && row.replayed < entries) {
    std::fprintf(stderr, "FATAL: recovery (off) replayed %llu < %llu — log was compacted?\n",
                 static_cast<unsigned long long>(row.replayed),
                 static_cast<unsigned long long>(entries));
    std::exit(1);
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto servers = static_cast<std::size_t>(cli.get_or("servers", std::int64_t{15}));
  const auto soak_sec = static_cast<int>(cli.get_or("soak-sec", std::int64_t{60}));
  const auto rate = static_cast<int>(cli.get_or("rate", std::int64_t{200}));
  const auto entries =
      static_cast<std::uint64_t>(cli.scaled(cli.get_or("entries", std::int64_t{100'000})));
  const auto reps = static_cast<std::size_t>(cli.get_or("reps", std::int64_t{5}));
  const auto keyspace = static_cast<std::size_t>(cli.get_or("keys", std::int64_t{200}));
  const auto seed = static_cast<std::uint64_t>(cli.get_or("seed", std::int64_t{42}));

  metrics::banner("Snapshot compaction: bounded logs under load, fast restart recovery");
  std::printf("soak: n=%zu, %d sim-s at %d puts/sim-s; recovery: n=5, %llu entries, "
              "%zu reps\n\n",
              servers, soak_sec, rate, static_cast<unsigned long long>(entries), reps);

  // On-mode soak first: RSS samples read current VmRSS, but allocator arenas
  // grown by an earlier unbounded off-phase would still pad the on-phase
  // numbers. Run the bounded claim on a cold heap.
  std::vector<PhaseRow> rows;
  rows.push_back(run_soak(true, servers, soak_sec, rate, keyspace, seed));
  rows.push_back(run_soak(false, servers, soak_sec, rate, keyspace, seed));
  rows.push_back(run_recovery(true, entries, reps, keyspace, seed));
  rows.push_back(run_recovery(false, entries, reps, keyspace, seed));

  // Same seed, and snapshotting is node-local (no messages, no events): the
  // two modes must drive identical command streams.
  if (rows[0].ops != rows[1].ops || rows[2].ops != rows[3].ops) {
    std::fprintf(stderr, "FATAL: committed-op counts diverged between modes\n");
    return 1;
  }

  metrics::Table table({"phase", "mode", "ops", "log", "snaps", "replayed", "rss(MiB)",
                        "recovery(ms)"});
  for (const PhaseRow& r : rows) {
    table.row({r.phase, r.mode, std::to_string(r.ops), std::to_string(r.log_entries),
               std::to_string(r.snapshots), std::to_string(r.replayed),
               metrics::Table::num(r.peak_rss_mib),
               r.recovery_ms < 0 ? "-" : metrics::Table::num(r.recovery_ms)});
  }
  table.print();

  const double speedup = rows[3].recovery_ms / rows[2].recovery_ms;
  std::printf("\nsoak live log: %zu entries (on) vs %zu (off); "
              "recovery: %.1f ms (on) vs %.1f ms (off) — %.1fx\n",
              rows[0].log_entries, rows[1].log_entries, rows[2].recovery_ms,
              rows[3].recovery_ms, speedup);

  // The acceptance pin: at characterization scale a snapshot restore must
  // beat full replay by an order of magnitude. Below 50k entries (CI smoke)
  // fixed costs dominate and only the direction is asserted.
  const double required = entries >= 50'000 ? 10.0 : 1.2;
  if (speedup < required) {
    std::fprintf(stderr, "FATAL: snapshot recovery speedup %.2fx < required %.2fx\n",
                 speedup, required);
    return 1;
  }

  if (const auto csv_path = cli.get("csv")) {
    CsvWriter csv(*csv_path,
                  {"scenario", "mode", "phase", "servers", "sim_sec", "ops", "log_entries",
                   "snapshots", "replayed", "peak_rss_mib", "recovery_ms"});
    for (const PhaseRow& r : rows) {
      csv.row({"fig_compaction", r.mode, r.phase, std::to_string(r.servers),
               CsvWriter::cell(r.sim_sec), std::to_string(r.ops),
               std::to_string(r.log_entries), std::to_string(r.snapshots),
               std::to_string(r.replayed), CsvWriter::cell(r.peak_rss_mib),
               CsvWriter::cell(r.recovery_ms)});
    }
    std::printf("wrote %s\n", csv_path->c_str());
  }
  return 0;
}
