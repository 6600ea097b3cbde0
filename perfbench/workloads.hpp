// The benchmark's four workloads behind one interface.
//
// Every workload's input is a pure function of the seed argument: one
// repetition runs a fixed amount of simulated work, so every simulated
// metric and every per-layer count repeats exactly at one seed, and later
// repetitions only add wall-clock samples (and are checked to reproduce the
// first bit for bit).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// A metric value with its unit, as printed.
struct Value {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Value>;

/// One repetition of a workload's fixed work.
struct RepResult {
  std::uint64_t units = 0;   ///< trials, kills or client ops attempted
  std::uint64_t failed = 0;  ///< of those, failed
  double wall_s = 0.0;       ///< wall time of the measured phase
  /// Traced repetitions only: merged counters and units per worker.
  std::optional<LayerCounters> layers;
  std::vector<std::uint64_t> units_per_worker;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// What one unit of work is ("trials", "kills", "ops"), and the
  /// workload's own name for units_per_s.
  struct Names {
    const char* unit;
    const char* throughput;
  };
  [[nodiscard]] virtual Names names() const = 0;

  /// Worker threads the measured phase uses.
  [[nodiscard]] virtual unsigned threads() const = 0;

  /// One timed set-up: substrate build, first election, warm-up (seconds).
  [[nodiscard]] virtual double setup_s() = 0;

  /// One repetition through the public whole-run API (traced = false) or
  /// through the instrumented seams (traced = true). Either way the results
  /// are compared with the first repetition's; a difference is an error.
  [[nodiscard]] virtual RepResult run(bool traced) = 0;

  /// Correctness checks beyond the per-repetition ones (cross-path
  /// equivalence, reuse-vs-fresh substrates). Run once, after measuring.
  virtual void check() = 0;

  /// Simulated outcome of the fixed work: ok_share, unit_ms_mean,
  /// unit_ms_p99 under their contract names, the workload's own named
  /// metrics under theirs (`named`), and layer values only the workload
  /// knows (`layers`).
  virtual void outcome(Metrics& e2e, Metrics& named, Metrics& layers) const = 0;

  /// Same workload on one server, for the replication-share baseline; null
  /// where the workload has none.
  [[nodiscard]] virtual std::unique_ptr<Workload> single_node_baseline() const {
    return nullptr;
  }

  [[nodiscard]] const std::vector<std::string>& errors() const noexcept { return errors_; }

 protected:
  void fail(std::string what) { errors_.push_back(std::move(what)); }

 private:
  std::vector<std::string> errors_;
};

/// election_sweep | failover | kv_write | kv_read_sharded; null otherwise.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

}  // namespace perfbench
