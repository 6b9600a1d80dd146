#pragma once

#include <ostream>

#include "firestarter/config.hpp"

namespace fs2::firestarter {

/// Top-level orchestration: wires CPU detection, payload selection and
/// compilation, worker threads, metrics, the watchdog, and the NSGA-II
/// tuning loop according to a parsed Config — the box labelled
/// "FIRESTARTER" in Fig. 10.
class Firestarter {
 public:
  Firestarter(Config config, std::ostream& out);

  /// Execute the configured action. Returns a process exit code.
  int run();

 private:
  int list_functions();
  int list_metrics();
  int run_stress_host();
  int run_selftest_mode();
  int run_dump_asm();
  int run_stress_simulated();
  /// --campaign FILE on this machine: every phase through one PhaseRunner.
  int run_campaign();
  int run_coordinator();
  /// --agent HOST:PORT: one Agent on the AgentFleet poll loop; the
  /// coordinator distributes the campaign.
  int run_agent();
  /// --status HOST:PORT: probe a live coordinator's status plane and print
  /// fleet health; runs no workload.
  int run_status();
  int run_optimization();
  /// --fuzz: randomized payload-pattern discovery over the sim plant (or a
  /// loopback fleet), reporting the ranked outlier corpus vs the default
  /// payload's baseline.
  int run_fuzzer();

  Config cfg_;
  std::ostream& out_;
};

}  // namespace fs2::firestarter
