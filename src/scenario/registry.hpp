// PolicyRegistry: named registration of custom tuning policies.
//
// The one way for a study to plug in its own cluster-config recipe
// (ablation knobs, experimental policies) beside the paper's built-in
// variants: register a factory under a name and select it through
// ScenarioSpec::policy. The registry stamps the name (plus the runner's
// servers/seed) into every config it builds, so custom policies appear in
// TableSink / CsvSink schemas as first-class variants, sweepable alongside
// the built-ins through SweepSpec::policies.
//
// The global() instance is process-wide and thread-safe; benches register
// their policies at startup, sweeps resolve them by name per trial.
#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster.hpp"

namespace dyna::scenario {

class PolicyRegistry {
 public:
  /// Builds the cluster config for one trial of the named policy. The
  /// registry overrides the result's `servers`, `seed` and `name` fields, so
  /// a factory only needs to describe what makes the policy different.
  using Factory = std::function<cluster::ClusterConfig(std::size_t servers, std::uint64_t seed)>;

  /// The process-wide registry.
  [[nodiscard]] static PolicyRegistry& global();

  /// Register `factory` under `name`, replacing any previous registration.
  void add(std::string name, Factory factory);

  [[nodiscard]] bool contains(std::string_view name) const;

  /// All registered names, sorted (stable sweep enumeration).
  [[nodiscard]] std::vector<std::string> names() const;

  /// Build the config for one trial of `name`. Aborts on unknown names —
  /// a misspelled policy in a sweep is a driver bug, not a data point.
  [[nodiscard]] cluster::ClusterConfig make(std::string_view name, std::size_t servers,
                                            std::uint64_t seed) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Factory, std::less<>> factories_;
};

}  // namespace dyna::scenario
