#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "arch/cache.hpp"
#include "payload/compiler.hpp"
#include "payload/data.hpp"
#include "sched/load_profile.hpp"
#include "sched/phase_clock.hpp"

namespace fs2::kernel {

/// Runtime options for the worker threads.
struct RunOptions {
  std::vector<int> cpus;          ///< logical CPUs to pin to (one worker each)
  payload::DataInitPolicy policy = payload::DataInitPolicy::kSafe;
  std::uint64_t seed = 0x5eed;
  double load = 1.0;              ///< busy fraction per period (--load)
  double period_s = 0.1;          ///< load/idle modulation period (-p, seconds)
  /// Dynamic load schedule. When set it overrides `load`: each modulation
  /// window's duty fraction is profile->load_at(window start). When null the
  /// manager behaves like the classic --load square duty cycle (a
  /// ConstantProfile of `load`). Live profiles (control::ControlledProfile,
  /// where a feedback loop rewrites the level while the run executes) are
  /// additionally re-sampled mid-window so commands act within one chunk.
  sched::ProfilePtr profile;
  /// Per-worker time shift: worker i evaluates the profile at t + i * offset.
  /// Non-zero offsets rotate the load pattern across workers (e.g. a square
  /// wave with offset = period/workers keeps exactly one worker busy at a
  /// time); zero keeps all workers in lockstep.
  double phase_offset_s = 0.0;
  /// Cluster epoch injection: anchor the modulation clock to this instant
  /// instead of start()'s call time, so every node of a coordinated run
  /// duty-cycles against the SAME (clock-offset-corrected) epoch and the
  /// fleet's busy/idle windows align across machines — the in-lockstep
  /// load swings the paper's PSU/facility experiments need. Unset keeps
  /// the classic per-run epoch.
  std::optional<sched::PhaseClock::Clock::time_point> epoch;
};

/// Spawns one worker per target CPU, each running the compiled stress
/// kernel in chunks over its own WorkBuffer. This is the "management code"
/// of Fig. 4/5: pinning, synchronized start, responsive stop, load/idle
/// duty-cycling, and loop accounting for the IPC-estimate metric.
class ThreadManager {
 public:
  /// Spawns the workers and returns once each has pinned itself and built
  /// its own operand buffer on its CPU, all in parallel; they then wait for
  /// start(). If a worker cannot be spawned or cannot build its buffer,
  /// every worker started is stopped and joined and the first error is
  /// rethrown. The payload must outlive the manager.
  ThreadManager(const payload::CompiledPayload& payload, RunOptions options);
  ~ThreadManager();
  ThreadManager(const ThreadManager&) = delete;
  ThreadManager& operator=(const ThreadManager&) = delete;

  /// Release all workers at once (their buffers are built by the time the
  /// constructor returns).
  void start();

  /// Signal stop and join all workers. Idempotent.
  void stop();

  bool running() const { return started_.load() && !stopped_.load(); }
  std::size_t num_workers() const { return workers_.size(); }

  /// Total kernel-loop iterations executed across all workers — the counter
  /// behind the estimated-IPC metric (Sec. III-C).
  std::uint64_t total_iterations() const;

  /// Per-worker buffer (register dump area, operand regions).
  const payload::WorkBuffer& buffer(std::size_t worker) const { return *buffers_.at(worker); }

  /// The load schedule the workers follow (never null; defaults to a
  /// constant profile built from RunOptions::load).
  const sched::LoadProfile& profile() const { return *profile_; }

  /// Clamped schedule level at elapsed time `t_s` — what the orchestrator
  /// publishes on the telemetry bus as the achieved load-level channel.
  double load_at(double t_s) const {
    return std::clamp(profile_->load_at(t_s), 0.0, 1.0);
  }

  /// The shared epoch all workers anchor their modulation windows to.
  const sched::PhaseClock& phase_clock() const { return clock_; }

  /// The payload these workers execute (register-dump readers need its
  /// vector width).
  const payload::CompiledPayload& payload() const { return payload_; }

 private:
  struct Worker {
    std::atomic<std::uint64_t> iterations{0};
    std::exception_ptr error;  ///< buffer build failure, published by ready_count_
    /// Buffer build span in trace::now_s() seconds, published by ready_count_.
    double build_begin_s = 0.0;
    double build_end_s = 0.0;
    std::thread thread;  ///< after the members it uses
  };

  void worker_main(std::size_t index, int cpu);

  const payload::CompiledPayload& payload_;
  RunOptions options_;
  sched::ProfilePtr profile_;  ///< options_.profile or ConstantProfile(load)
  sched::PhaseClock clock_;    ///< re-anchored by start()
  std::vector<std::unique_ptr<payload::WorkBuffer>> buffers_;  ///< [i] built by worker i
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_flag_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<int> ready_count_{0};
};

}  // namespace fs2::kernel
