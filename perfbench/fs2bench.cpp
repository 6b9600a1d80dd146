// fs2bench: runs one seeded benchmark workload through fs2_core's public
// entry points and writes its raw measurements as JSON. perfbench/run.py
// builds this program, runs it, and turns the raw file into the metric line.
//
//   fs2bench --workload tune-sim --seed 7 --seconds 10 --trace 0 --out raw.json
//            [--spans spans.tsv]
//
// Workloads (see perfbench/README.md for what each loads and bypasses):
//   tune-sim      NSGA-II over the instruction-group genome on simulated Zen 2
//   stress-host   JIT payload on the host: full-load phase, then 50 % duty cycle
//   fleet-stream  open-loop 4-node loopback fleet streaming 2000 Sa/s telemetry
//   fleet-budget  the same fleet regulated to a seeded cluster-power budget
//
// With --trace 1 the program keeps spans in memory around the public calls
// it makes (plus the spans fs2 already emits on the fleet paths) and derives
// the per-layer samples and the self-time table from them at the end.

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "arch/cache.hpp"
#include "arch/processor.hpp"
#include "arch/topology.hpp"
#include "cluster/cluster_bus.hpp"
#include "cluster/coordinator.hpp"
#include "cluster/messages.hpp"
#include "cluster/remote_sink.hpp"
#include "cluster/wire.hpp"
#include "control/budget.hpp"
#include "control/controlled_profile.hpp"
#include "control/feedback_loop.hpp"
#include "control/setpoint.hpp"
#include "firestarter/backends.hpp"
#include "firestarter/config.hpp"
#include "firestarter/sim_fleet.hpp"
#include "firestarter/sim_phases.hpp"
#include "kernel/selftest.hpp"
#include "kernel/thread_manager.hpp"
#include "payload/compiler.hpp"
#include "payload/mix.hpp"
#include "sched/load_profile.hpp"
#include "sim/plant.hpp"
#include "sim/sim_system.hpp"
#include "telemetry/bus.hpp"
#include "telemetry/sinks.hpp"
#include "trace/registry.hpp"
#include "trace/tracer.hpp"
#include "tuning/groups_problem.hpp"
#include "tuning/history.hpp"
#include "tuning/nsga2.hpp"
#include "util/logging.hpp"

namespace {

using namespace fs2;

/// Same time base as the spans fs2 records itself (trace::now_s), so both
/// kinds of span share one timeline.
double now_s() { return trace::now_s(); }

/// splitmix64 over (seed, stream): every seeded input of a workload is one
/// stream of the benchmark seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---- spans -----------------------------------------------------------------

/// One closed span. `covers` marks a probe: a call the benchmark repeats
/// outside the measured call (same inputs) to time a part of it that has
/// no span of its own. The probe's time stands for that part, so it is
/// taken off the measured span's self time; the probe's own execution is
/// benchmark overhead.
struct SpanRec {
  const char* name = nullptr;
  int parent = -1;
  double begin_s = 0.0;
  double end_s = 0.0;
  int covers = -1;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  int open(const char* name) {
    if (!enabled_) return -1;
    spans_.push_back({name, current_, now_s(), 0.0, -1});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  void close(int id) {
    if (id < 0) return;
    spans_[id].end_s = now_s();
    current_ = spans_[id].parent;
  }

  /// A span timed elsewhere, placed under the currently open span.
  void add(const char* name, double begin_s, double end_s) {
    if (enabled_) spans_.push_back({name, current_, begin_s, end_s, -1});
  }

  void set_covers(int probe, int target) {
    if (probe >= 0 && target >= 0) spans_[probe].covers = target;
  }

  const std::vector<SpanRec>& spans() const { return spans_; }

  void write_tsv(const std::string& path) const {
    std::ofstream out(path);
    out << "id\tparent\tname\tbegin_s\tend_s\tcovers\n";
    char line[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRec& s = spans_[i];
      std::snprintf(line, sizeof line, "%zu\t%d\t%s\t%.9f\t%.9f\t%d\n", i, s.parent, s.name,
                    s.begin_s, s.end_s, s.covers);
      out << line;
    }
  }

 private:
  bool enabled_;
  std::vector<SpanRec> spans_;
  int current_ = -1;
};

class Scope {
 public:
  Scope(SpanLog& log, const char* name) : log_(log), id_(log.open(name)) {}
  ~Scope() { log_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

// ---- outcome ---------------------------------------------------------------

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> checks;  ///< passed, total
  std::vector<double> setup_s;
  std::string work_name;
  std::vector<double> work;  ///< per-unit work rates; their throughput is work_per_s
  std::map<std::string, std::vector<double>> scalars;  ///< reported as medians
  std::map<std::string, std::vector<double>> layers;   ///< per-layer timing samples
  /// Layer time estimated from a replay and moved out of the residual.
  std::map<std::string, double> estimated_ms;
  std::vector<std::string> errors;

  void check(const std::string& name, bool ok) {
    auto& counts = checks[name];
    ++counts.second;
    ++attempted;
    if (ok) ++counts.first;
    else ++failed;
  }
  void operations(std::uint64_t attempted_ops, std::uint64_t failed_ops) {
    attempted += attempted_ops;
    failed += failed_ops;
  }
  void error(const std::string& what) {
    if (errors.size() < 8) errors.push_back(what);
  }
};

/// Self-time table: every span inside a `bench.window` span contributes its
/// self time (duration minus its children) to the layer named by its
/// prefix; the window spans' own self time and `bench.campaign` spans are
/// the residual. Probe time moves from the covered span to the probe's
/// layer, and the same amount is charged to `bench` (the probe ran too).
struct SelfTable {
  double wall_ms = 0.0;
  double residual_ms = 0.0;
  std::map<std::string, double> layer_ms;
};

/// Each span's duration less the probes that cover it.
std::vector<double> covered_durations(const std::vector<SpanRec>& spans) {
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) out[i] = spans[i].end_s - spans[i].begin_s;
  for (const SpanRec& s : spans)
    if (s.covers >= 0) out[s.covers] -= s.end_s - s.begin_s;
  return out;
}

SelfTable self_times(const std::vector<SpanRec>& spans,
                     const std::map<std::string, double>& estimated_ms) {
  SelfTable table;
  std::vector<double> self = covered_durations(spans);
  double probe_s = 0.0;
  for (const SpanRec& s : spans) {
    if (s.parent >= 0) self[s.parent] -= s.end_s - s.begin_s;
    if (s.covers >= 0) probe_s += s.end_s - s.begin_s;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    int root = static_cast<int>(i);
    while (spans[root].parent >= 0) root = spans[root].parent;
    if (std::strcmp(spans[root].name, "bench.window") != 0) continue;
    const std::string name = spans[i].name;
    if (static_cast<int>(i) == root) {
      table.wall_ms += (spans[i].end_s - spans[i].begin_s) * 1e3;
      table.residual_ms += self[i] * 1e3;
    } else if (name == "bench.campaign") {
      table.residual_ms += self[i] * 1e3;
    } else {
      table.layer_ms[name.substr(0, name.find('.'))] += self[i] * 1e3;
    }
  }
  table.layer_ms["bench"] += probe_s * 1e3;
  for (const auto& [layer, ms] : estimated_ms) {
    table.layer_ms[layer] += ms;
    table.residual_ms -= ms;
  }
  return table;
}

/// Covered durations (in `scale` units per second) of every span named `name`.
std::vector<double> span_samples(const std::vector<SpanRec>& spans, const char* name,
                                 double scale) {
  const std::vector<double> durations = covered_durations(spans);
  std::vector<double> out;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (std::strcmp(spans[i].name, name) == 0) out.push_back(durations[i] * scale);
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---- tune-sim ----------------------------------------------------------------

constexpr const char* kTuneIndividuals = "40";
constexpr const char* kTuneGenerations = "100";

/// Forwards to SimBackend and counts evaluations. Traced, it also probes
/// the analyze and simulate steps SimBackend::evaluate performs inside.
class ProbedBackend final : public tuning::EvaluationBackend {
 public:
  ProbedBackend(firestarter::SimBackend& inner, const sim::SimulatedSystem& system,
                const payload::InstructionMix& mix, const arch::CacheHierarchy& caches,
                const sim::RunConditions& conditions, std::size_t individuals, SpanLog& spans)
      : inner_(inner),
        system_(system),
        mix_(mix),
        caches_(caches),
        conditions_(conditions),
        individuals_(individuals),
        spans_(spans) {}

  std::vector<std::string> objective_names() const override { return inner_.objective_names(); }

  std::vector<double> evaluate(const payload::InstructionGroups& groups) override {
    Scope candidate(spans_, "bench.candidate");
    int analyze = -1;
    int run = -1;
    if (spans_.enabled()) {
      analyze = spans_.open("payload.analyze");
      const payload::PayloadStats stats = payload::analyze_payload(mix_, groups, caches_);
      spans_.close(analyze);
      run = spans_.open("sim.run");
      (void)system_.simulator().run(stats, conditions_);
      spans_.close(run);
    }
    const int evaluate = spans_.open("metrics.evaluate");
    std::vector<double> objectives = inner_.evaluate(groups);
    spans_.close(evaluate);
    spans_.set_covers(analyze, evaluate);
    spans_.set_covers(run, evaluate);
    if (++evaluations_ % individuals_ == 0) {
      const double t = now_s();
      generation_rates_.push_back(static_cast<double>(individuals_) / (t - generation_begin_s_));
      generation_begin_s_ = t;
    }
    if (!std::all_of(objectives.begin(), objectives.end(),
                     [](double v) { return std::isfinite(v); }))
      ++non_finite_;
    return objectives;
  }

  std::uint64_t evaluations() const { return evaluations_; }
  std::uint64_t non_finite() const { return non_finite_; }
  /// Candidates per second of each generation (the initial population
  /// counts as one), selection work included.
  const std::vector<double>& generation_rates() const { return generation_rates_; }

 private:
  firestarter::SimBackend& inner_;
  const sim::SimulatedSystem& system_;
  const payload::InstructionMix& mix_;
  const arch::CacheHierarchy& caches_;
  sim::RunConditions conditions_;
  std::size_t individuals_;
  SpanLog& spans_;
  std::uint64_t evaluations_ = 0;
  std::uint64_t non_finite_ = 0;
  std::vector<double> generation_rates_;
  double generation_begin_s_ = now_s();
};

struct TuneRun {
  tuning::History history;
  std::vector<tuning::Individual> population;
  std::uint64_t evaluations = 0;
  std::uint64_t non_finite = 0;
  std::vector<double> generation_rates;
  std::vector<double> setup_s;
  double default_power_w = 0.0;
};

/// What run_optimization builds before tuning on a simulated target: the
/// target, the system under test and its SimBackend, preheated.
struct TuneSetup {
  firestarter::Target target;
  const payload::FunctionDef* fn = nullptr;
  sim::RunConditions conditions;
  std::unique_ptr<sim::SimulatedSystem> system;
  std::unique_ptr<firestarter::SimBackend> backend;
};

TuneSetup set_up_tuning(const firestarter::Config& cfg) {
  TuneSetup setup;
  setup.target = firestarter::resolve_target(cfg);
  setup.fn = &payload::select_function(setup.target.cpu);
  setup.conditions.freq_mhz = cfg.sim_freq_mhz;
  setup.system = std::make_unique<sim::SimulatedSystem>(setup.target.sim_config);
  setup.backend = std::make_unique<firestarter::SimBackend>(
      *setup.system, setup.fn->mix, setup.target.caches, setup.conditions,
      cfg.candidate_duration_s, cfg.seed);
  setup.backend->preheat();
  return setup;
}

/// Set-ups timed per tuning run: one set-up is tens of microseconds, so a
/// run takes several back to back and keeps the last.
constexpr int kTuneSetups = 4;

/// One `fs2 --optimize=NSGA2 --simulate=zen2` tuning run: the set-up, then
/// Nsga2::run. Also scores the function's default groups on a fresh backend
/// with the same meter seed, the baseline the optimum must beat.
TuneRun tune_once(const firestarter::Config& cfg, std::uint64_t nsga2_seed, SpanLog& spans) {
  TuneRun out;
  TuneSetup setup;
  for (int i = 0; i < kTuneSetups; ++i) {
    setup = TuneSetup{};
    const double t0 = now_s();
    Scope scope(spans, "firestarter.setup");
    setup = set_up_tuning(cfg);
    out.setup_s.push_back(now_s() - t0);
  }
  sim::SimulatedSystem& system = *setup.system;
  const payload::FunctionDef& fn = *setup.fn;
  const firestarter::Target& target = setup.target;
  const sim::RunConditions& conditions = setup.conditions;

  ProbedBackend probed(*setup.backend, system, fn.mix, target.caches, conditions,
                       cfg.individuals, spans);
  tuning::GroupsProblem problem(probed);
  tuning::Nsga2Config config;
  config.individuals = cfg.individuals;
  config.generations = cfg.generations;
  config.mutation_probability = cfg.nsga2_m;
  config.seed = nsga2_seed;
  {
    Scope run(spans, "tuning.nsga2");
    out.population = tuning::Nsga2(config).run(problem, &out.history);
  }
  out.evaluations = probed.evaluations();
  out.generation_rates = probed.generation_rates();
  out.non_finite = probed.non_finite();

  Scope check(spans, "bench.check");
  sim::SimulatedSystem baseline_system(target.sim_config);
  firestarter::SimBackend baseline(baseline_system, fn.mix, target.caches, conditions,
                                   cfg.candidate_duration_s, cfg.seed);
  baseline.preheat();
  out.default_power_w =
      baseline.evaluate(payload::InstructionGroups::parse(fn.default_groups)).at(0);
  return out;
}

bool same_history(const tuning::History& a, const tuning::History& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const tuning::Evaluation& x = a.evaluations()[i];
    const tuning::Evaluation& y = b.evaluations()[i];
    if (x.generation != y.generation || x.genome != y.genome || x.objectives != y.objectives)
      return false;
  }
  return true;
}

/// Per-generation selection time: NSGA-II's own work between candidate
/// evaluations (sorting, crowding, tournament, variation), i.e. the gaps
/// between consecutive candidate spans of one tuning run, grouped by the
/// generation the following candidate belongs to.
std::vector<double> select_ms_per_generation(const std::vector<SpanRec>& spans,
                                             std::size_t individuals) {
  std::vector<double> out;
  for (std::size_t r = 0; r < spans.size(); ++r) {
    if (std::strcmp(spans[r].name, "tuning.nsga2") != 0) continue;
    std::vector<const SpanRec*> candidates;
    for (std::size_t i = r + 1; i < spans.size() && spans[i].begin_s < spans[r].end_s; ++i)
      if (spans[i].parent == static_cast<int>(r)) candidates.push_back(&spans[i]);
    double previous_end = spans[r].begin_s;
    double gap_sum = 0.0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (i > 0 && i % individuals == 0) {
        out.push_back(gap_sum * 1e3);
        gap_sum = 0.0;
      }
      gap_sum += candidates[i]->begin_s - previous_end;
      previous_end = candidates[i]->end_s;
    }
    gap_sum += spans[r].end_s - previous_end;
    out.push_back(gap_sum * 1e3);
  }
  return out;
}

Outcome run_tune_sim(std::uint64_t seed, double seconds, SpanLog& spans) {
  Outcome out;
  out.work_name = "tune.candidates_per_s";
  const std::string seed_text = std::to_string(seed);
  const char* argv[] = {"fs2",           "--optimize=NSGA2", "--simulate=zen2",
                        "--freq",        "2000",             "--individuals",
                        kTuneIndividuals, "--generations",   kTuneGenerations,
                        "--seed",        seed_text.c_str()};
  const firestarter::Config cfg =
      firestarter::parse_args(static_cast<int>(std::size(argv)), argv);

  std::optional<TuneRun> first;
  const double start = now_s();
  for (std::uint64_t r = 0; r == 0 || now_s() - start < seconds; ++r) {
    Scope window(spans, "bench.window");
    try {
      TuneRun run = tune_once(cfg, derive_seed(seed, r), spans);
      out.setup_s.insert(out.setup_s.end(), run.setup_s.begin(), run.setup_s.end());
      out.work.insert(out.work.end(), run.generation_rates.begin(), run.generation_rates.end());
      out.operations(run.evaluations, run.non_finite);
      const double best_w = tuning::Nsga2::best_by_objective(run.population, 0).objectives.at(0);
      out.check("optimum_beats_default", best_w > run.default_power_w);
      std::set<tuning::Genome> distinct;
      for (const tuning::Evaluation& e : run.history.evaluations()) distinct.insert(e.genome);
      out.scalars["tuning.unique_ratio"].push_back(static_cast<double>(distinct.size()) /
                                                   static_cast<double>(run.history.size()));
      out.scalars["tune.optimum_w"].push_back(best_w);
      out.scalars["tune.default_w"].push_back(run.default_power_w);
      if (!first) first = std::move(run);
    } catch (const std::exception& e) {
      out.operations(1, 1);
      out.error(std::string("tuning run: ") + e.what());
    }
  }
  // Outside the measured windows: replay the first tuning run on fresh
  // state; the same seed must give the same history.
  if (first) {
    SpanLog untraced(false);
    try {
      const TuneRun again = tune_once(cfg, derive_seed(seed, 0), untraced);
      out.check("history_identical", same_history(first->history, again.history));
    } catch (const std::exception& e) {
      out.check("history_identical", false);
      out.error(std::string("determinism rerun: ") + e.what());
    }
  }
  if (spans.enabled()) {
    out.layers["payload.analyze_us"] = span_samples(spans.spans(), "payload.analyze", 1e6);
    out.layers["sim.run_us"] = span_samples(spans.spans(), "sim.run", 1e6);
    out.layers["metrics.measure_us"] = span_samples(spans.spans(), "metrics.evaluate", 1e6);
    out.layers["tuning.select_ms"] =
        select_ms_per_generation(spans.spans(), cfg.individuals);
  }
  return out;
}

// ---- stress-host -------------------------------------------------------------

/// The full-load phase is most of each cycle: its 0.1 s windows are the
/// work units, and more of them per run averages out host interference.
constexpr double kFullPhaseS = 3.0;
constexpr double kModulatedPhaseS = 1.0;
constexpr double kModulatedLoad = 0.5;
constexpr double kModulationPeriodS = 0.1;
constexpr double kRateWindowS = 0.1;
constexpr std::uint64_t kSelftestIterations = 20000;

std::set<int> task_ids() {
  std::set<int> ids;
  if (DIR* dir = ::opendir("/proc/self/task")) {
    while (const dirent* entry = ::readdir(dir))
      if (entry->d_name[0] != '.') ids.insert(std::atoi(entry->d_name));
    ::closedir(dir);
  }
  return ids;
}

/// CPU time a thread of this process has run, from /proc/self/task (NaN
/// when unreadable, which fails the progress checks).
double task_cpu_s(int tid) {
  std::ifstream schedstat("/proc/self/task/" + std::to_string(tid) + "/schedstat");
  double run_ns = 0.0;
  return schedstat >> run_ns ? run_ns * 1e-9 : std::nan("");
}

std::vector<double> task_cpu_s(const std::vector<int>& tids) {
  std::vector<double> out;
  for (int tid : tids) out.push_back(task_cpu_s(tid));
  return out;
}

/// The CPUs this process may run on, as `nproc` counts them.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (::sched_getaffinity(0, sizeof set, &set) == 0)
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
  return out;
}

/// Confines this thread, and every thread it starts afterwards, to one of
/// the allowed CPUs. A loopback campaign hands off between the coordinator
/// and the fleet thread all the time (admission, budget request/reply,
/// phase barriers): on one CPU each hand-off is a local context switch
/// instead of a cross-CPU wake-up, whose latency on a shared host varies
/// from run to run.
void pin_to_one_cpu() {
  const std::vector<int> allowed = allowed_cpus();
  if (allowed.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(allowed.back(), &set);
  ::sched_setaffinity(0, sizeof set, &set);
}

/// Worker CPUs: the topology's list (what `fs2` would use) restricted to
/// the allowed set and capped at nproc - 1, leaving one CPU for this thread.
std::vector<int> stress_cpus() {
  const std::vector<int> allowed = allowed_cpus();
  std::vector<int> cpus;
  for (int cpu : arch::Topology::from_sysfs().worker_cpus(false))
    if (std::find(allowed.begin(), allowed.end(), cpu) != allowed.end()) cpus.push_back(cpu);
  const std::size_t cap = allowed.size() > 1 ? allowed.size() - 1 : 1;
  if (cpus.size() > cap) cpus.resize(cap);
  return cpus;
}

/// Construct a ThreadManager and start it, returning once the kernel has
/// made progress (or the deadline passed). Fills the worker thread ids.
std::unique_ptr<kernel::ThreadManager> start_workers(const payload::CompiledPayload& payload,
                                                     const kernel::RunOptions& options,
                                                     SpanLog& spans, Outcome& out,
                                                     std::vector<int>& workers) {
  const std::set<int> before = task_ids();
  const double t0 = now_s();
  std::unique_ptr<kernel::ThreadManager> manager;
  {
    Scope init(spans, "kernel.buffer_init");
    manager = std::make_unique<kernel::ThreadManager>(payload, options);
  }
  const double t1 = now_s();
  workers.clear();
  for (int tid : task_ids())
    if (!before.count(tid)) workers.push_back(tid);
  {
    Scope start(spans, "kernel.start");
    manager->start();
    const double deadline = now_s() + 10.0;
    while (manager->total_iterations() == 0 && now_s() < deadline) std::this_thread::yield();
  }
  out.layers["kernel.buffer_init_ms"].push_back((t1 - t0) * 1e3);
  out.layers["kernel.start_ms"].push_back((now_s() - t1) * 1e3);
  return manager;
}

Outcome run_stress_host(std::uint64_t seed, double seconds, SpanLog& spans) {
  Outcome out;
  out.work_name = "stress.ginstr_per_s";
  const std::vector<int> cpus = stress_cpus();
  const double workers_n = static_cast<double>(cpus.size());
  std::unique_ptr<payload::CompiledPayload> last_payload;

  const double start = now_s();
  for (int cycle = 0; cycle == 0 || now_s() - start < seconds; ++cycle) {
    Scope window(spans, "bench.window");
    // Setup: what `fs2` does before the first kernel iteration.
    const double t0 = now_s();
    const int detect = spans.open("arch.detect");
    const arch::ProcessorModel cpu = arch::detect_host();
    const arch::CacheHierarchy caches = arch::CacheHierarchy::from_sysfs();
    spans.close(detect);
    const double t_detect = now_s();
    const payload::FunctionDef& fn = payload::select_function(cpu);
    const payload::InstructionGroups groups = payload::InstructionGroups::parse(fn.default_groups);
    payload::CompileOptions options;
    options.dump_registers = true;  // lets kernel::run_selftest check the same payload
    const double t_compile0 = now_s();
    const int compile = spans.open("jit.compile");
    auto payload = std::make_unique<payload::CompiledPayload>(
        payload::compile_payload(fn.mix, groups, caches, options));
    spans.close(compile);
    const double t_compile = now_s();
    if (spans.enabled()) {
      const int analyze = spans.open("payload.analyze");
      (void)payload::analyze_payload(fn.mix, groups, caches, options);
      spans.close(analyze);
      spans.set_covers(analyze, compile);
    }

    kernel::RunOptions run;
    run.cpus = cpus;
    run.seed = seed;
    run.load = 1.0;
    std::vector<int> workers;
    auto manager = start_workers(*payload, run, spans, out, workers);
    out.setup_s.push_back(now_s() - t0);  // traced runs include the analyze probe
    out.layers["arch.detect_ms"].push_back((t_detect - t0) * 1e3);
    out.layers["jit.compile_ms"].push_back((t_compile - t_compile0) * 1e3);

    const double ipi = payload->stats().instructions_per_iteration;
    {
      Scope phase(spans, "kernel.run_full");
      const std::vector<double> cpu0 = task_cpu_s(workers);
      double t_prev = now_s();
      std::uint64_t it_prev = manager->total_iterations();
      const double phase_start = t_prev;
      while (t_prev - phase_start < kFullPhaseS) {
        std::this_thread::sleep_for(std::chrono::duration<double>(kRateWindowS));
        const double t = now_s();
        const std::uint64_t it = manager->total_iterations();
        out.work.push_back(static_cast<double>(it - it_prev) * ipi / (t - t_prev) / workers_n /
                           1e9);
        t_prev = t;
        it_prev = it;
      }
      const std::vector<double> cpu1 = task_cpu_s(workers);
      const double wall = now_s() - phase_start;
      for (std::size_t w = 0; w < workers.size(); ++w)
        out.check("worker_progress", cpu1[w] - cpu0[w] > 0.1 * wall);
      out.check("kernel_iterations", manager->total_iterations() > 0);
    }
    {
      Scope stop(spans, "kernel.stop");
      manager->stop();
      manager.reset();
    }

    // Modulated phase: the windowed, sleeping worker path.
    run.load = kModulatedLoad;
    run.period_s = kModulationPeriodS;
    manager = start_workers(*payload, run, spans, out, workers);
    {
      Scope phase(spans, "kernel.run_modulated");
      const std::vector<double> cpu0 = task_cpu_s(workers);
      const double t_begin = now_s();
      std::this_thread::sleep_for(std::chrono::duration<double>(kModulatedPhaseS));
      const std::vector<double> cpu1 = task_cpu_s(workers);
      const double wall = now_s() - t_begin;
      double busy = 0.0;
      for (std::size_t w = 0; w < workers.size(); ++w) busy += cpu1[w] - cpu0[w];
      const double fraction = busy / (wall * static_cast<double>(workers.size()));
      out.scalars["kernel.busy_fraction"].push_back(fraction);
      out.scalars["stress.duty_error"].push_back(std::fabs(fraction - kModulatedLoad));
      out.check("modulated_progress", manager->total_iterations() > 0);
    }
    {
      Scope stop(spans, "kernel.stop");
      manager->stop();
      manager.reset();
    }
    last_payload = std::move(payload);
  }

  // Outside the measured windows: the synchronized SIMD self-test on the
  // compiled payload (every worker must reach bit-identical registers).
  try {
    const kernel::SelftestResult result =
        kernel::run_selftest(*last_payload, cpus, kSelftestIterations, seed);
    out.check("selftest", result.passed);
    if (!result.passed) out.error("selftest: " + result.describe());
  } catch (const std::exception& e) {
    out.check("selftest", false);
    out.error(std::string("selftest: ") + e.what());
  }
  if (spans.enabled())
    out.layers["jit.encode_map_ms"] = span_samples(spans.spans(), "jit.compile", 1e3);
  return out;
}

// ---- fleets ------------------------------------------------------------------

constexpr const char* kFleetNodes = "zen2@2000x2,haswell@2000x2";
constexpr int kFleetPhases = 8;
constexpr double kStreamPhaseS = 4.0;      ///< 8000 samples/phase/node: under the bus lag cap
constexpr double kStreamSampleHz = 2000.0;
constexpr double kBudgetPhaseS = 1500.0;
constexpr double kStartDelayS = 0.05;      ///< smallest --cluster-start-delay fs2 accepts
constexpr double kClusterPowerTolerance = 0.005;

struct FleetPlan {
  firestarter::Config cfg;
  std::vector<firestarter::LoopbackSpec> specs;
  std::string campaign_text;
  std::vector<double> levels;  ///< per phase, fraction
  double phase_s = 0.0;
  std::optional<control::Setpoint> budget;
};

/// The seeded inputs of a fleet workload: a generated campaign of constant
/// levels, the meter-noise seed, and (budget mode) the cluster-power target.
FleetPlan make_fleet_plan(std::uint64_t seed, bool budget) {
  FleetPlan plan;
  plan.cfg.seed = seed;
  plan.cfg.sim_sample_hz = budget ? plan.cfg.sim_sample_hz : kStreamSampleHz;
  plan.cfg.cluster_start_delay_s = kStartDelayS;
  plan.specs = firestarter::parse_loopback_specs(kFleetNodes);
  plan.phase_s = budget ? kBudgetPhaseS : kStreamPhaseS;
  std::ostringstream text;
  for (int p = 0; p < kFleetPhases; ++p) {
    const int level = 20 + static_cast<int>(derive_seed(seed, 100 + p) % 76);
    plan.levels.push_back(level / 100.0);
    text << "phase name=p" << p << " duration=" << plan.phase_s << " profile=constant:" << level
         << "\n";
  }
  plan.campaign_text = text.str();
  if (budget) {
    const int watts = 700 + 25 * static_cast<int>(derive_seed(seed, 200) % 9);
    plan.budget = control::Setpoint::parse("cluster-power=" + std::to_string(watts) + "W");
  }
  return plan;
}

/// Coordinator log stream that notes when the epoch announcement line
/// ("epoch: T0 in ...") is written — the end of admission.
class EpochStamp : public std::streambuf {
 public:
  double announced_s() const { return announced_s_; }

 protected:
  int overflow(int ch) override {
    if (ch != traits_type::eof()) put(static_cast<char>(ch));
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) put(s[i]);
    return n;
  }

 private:
  void put(char c) {
    if (c != '\n') {
      line_ += c;
      return;
    }
    if (announced_s_ == 0.0 && line_.rfind("epoch:", 0) == 0) announced_s_ = now_s();
    line_.clear();
  }
  std::string line_;
  double announced_s_ = 0.0;
};

struct CampaignRun {
  cluster::Coordinator::Result result;
  std::string error;
  double launch_s = 0.0;     ///< before the coordinator binds
  double admit_s = 0.0;      ///< Coordinator::run entered
  double announced_s = 0.0;  ///< epoch announced (admission done)
  double end_s = 0.0;        ///< Coordinator::run returned
  std::uint64_t reactor_iterations = 0;
};

/// One loopback campaign, wired as Firestarter::run_coordinator wires it:
/// coordinator on this thread, the SimFleet event loop on another.
CampaignRun run_fleet_campaign(const FleetPlan& plan) {
  CampaignRun run;
  trace::Counter& reactor = trace::Registry::instance().counter("reactor.poll_iterations");
  const std::uint64_t reactor0 = reactor.value();
  run.launch_s = now_s();
  cluster::Coordinator::Options options;
  options.port = 0;
  options.loopback_only = true;
  options.nodes = plan.specs.size();
  options.campaign_text = plan.campaign_text;
  options.phase_count = kFleetPhases;
  options.budget = plan.budget;
  options.start_delay_s = plan.cfg.cluster_start_delay_s;
  options.sync_tolerance_s = plan.cfg.sync_tolerance_s;
  options.seed = plan.cfg.seed;
  options.metrics_interval_s = plan.cfg.metrics_interval_s;
  options.rejoin_grace_s = plan.cfg.rejoin_grace_s;
  auto coordinator = std::make_unique<cluster::Coordinator>(options);
  const std::uint16_t port = coordinator->port();

  std::unique_ptr<firestarter::SimFleet> fleet;
  std::string fleet_error;
  std::thread fleet_thread([&] {
    try {
      fleet = std::make_unique<firestarter::SimFleet>(plan.cfg, plan.specs, port);
      fleet->run();
    } catch (const std::exception& e) {
      fleet_error = e.what();
    }
  });
  EpochStamp stamp;
  std::ostream log(&stamp);
  run.admit_s = now_s();
  try {
    run.result = coordinator->run(log);
  } catch (const std::exception& e) {
    run.error = e.what();
    coordinator.reset();  // closes every connection, so the fleet cannot hang
  }
  run.end_s = now_s();
  fleet_thread.join();
  run.announced_s = stamp.announced_s();
  run.reactor_iterations = reactor.value() - reactor0;
  if (run.error.empty() && !fleet_error.empty()) run.error = "fleet: " + fleet_error;
  if (run.error.empty() && fleet)
    for (const firestarter::SimFleet::Outcome& agent : fleet->outcomes())
      if (!agent.ok) {
        run.error = "agent " + agent.name + ": " + agent.error;
        break;
      }
  if (run.error.empty() && run.announced_s == 0.0) run.error = "no epoch announcement";
  return run;
}

/// Drains fs2's span tracer on a helper thread while a traced campaign
/// runs, so its per-thread rings never overflow.
class TraceDrain {
 public:
  TraceDrain() {
    trace::Tracer::reset();
    trace::Tracer::set_enabled(true);
    thread_ = std::thread([this] {
      while (!stop_.load()) {
        trace::Tracer::drain(events_);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }
  ~TraceDrain() { finish(); }
  TraceDrain(const TraceDrain&) = delete;
  TraceDrain& operator=(const TraceDrain&) = delete;

  const std::vector<trace::SpanEvent>& finish() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
      trace::Tracer::set_enabled(false);
      trace::Tracer::drain(events_);
    }
    return events_;
  }

 private:
  std::vector<trace::SpanEvent> events_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// The static description a node's sim phases start from.
struct NodeModel {
  firestarter::Config cfg;
  std::unique_ptr<sim::SimulatedSystem> system;
  payload::PayloadStats stats;
};

std::vector<NodeModel> node_models(const FleetPlan& plan) {
  std::vector<NodeModel> nodes;
  for (const firestarter::LoopbackSpec& spec : plan.specs) {
    NodeModel node;
    node.cfg = plan.cfg;
    node.cfg.target = spec.target;
    node.cfg.sim_freq_mhz = spec.freq_mhz;
    const firestarter::Target target = firestarter::resolve_target(node.cfg);
    node.system = std::make_unique<sim::SimulatedSystem>(target.sim_config);
    const payload::FunctionDef& fn = payload::select_function(target.cpu);
    node.stats = payload::analyze_payload(
        fn.mix, payload::InstructionGroups::parse(fn.default_groups), target.caches);
    nodes.push_back(std::move(node));
  }
  return nodes;
}

/// Collects one channel's samples off a node bus.
class CaptureSink final : public telemetry::SampleSink {
 public:
  telemetry::ChannelId channel = 0;
  std::vector<telemetry::Sample> samples;
  void on_sample(telemetry::ChannelId id, const telemetry::Sample& sample) override {
    if (id == channel) samples.push_back(sample);
  }
  void on_samples(telemetry::ChannelId id, const telemetry::Sample* s, std::size_t n) override {
    if (id == channel) samples.insert(samples.end(), s, s + n);
  }
};

/// Replays the fleet-stream data path of one campaign in this thread,
/// timing each public call: each node's sim phase, its publish into a
/// SummarySink, the wire encode and decode of its sample batches, and the
/// coordinator-side ClusterBus ingest.
void replay_stream(const FleetPlan& plan, Outcome& out) {
  std::vector<NodeModel> nodes = node_models(plan);
  std::vector<std::string> names;
  for (std::size_t i = 0; i < nodes.size(); ++i) names.push_back("node" + std::to_string(i));
  cluster::ClusterBus bus(names);
  cluster::ChannelMsg power;
  power.channel_id = 0;
  power.name = "sim-wall-power";
  power.unit = "W";
  for (std::size_t i = 0; i < nodes.size(); ++i) bus.on_channel(i, power);
  const std::size_t batch = std::min<std::size_t>(
      cluster::RemoteSink::kMaxBatchSamples, static_cast<std::size_t>(2.0 * kStreamSampleHz));

  double sim_s = 0.0, publish_s = 0.0, encode_s = 0.0, decode_s = 0.0, ingest_s = 0.0;
  double samples_total = 0.0;
  double bytes_total = 0.0;
  cluster::WireWriter writer;
  cluster::SampleBatchMsg decoded;
  for (int p = 0; p < kFleetPhases; ++p) {
    const firestarter::TrimDeltas deltas = firestarter::phase_deltas(plan.cfg, plan.phase_s);
    cluster::PhaseBracketMsg bracket;
    bracket.phase_index = static_cast<std::uint32_t>(p);
    bracket.phase_name = "p" + std::to_string(p);
    bracket.duration_s = plan.phase_s;
    bracket.time_offset_s = p * plan.phase_s;
    bracket.start_delta_s = deltas.start_s;
    bracket.stop_delta_s = deltas.stop_s;
    for (std::size_t i = 0; i < nodes.size(); ++i) bus.on_bracket(i, bracket);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      NodeModel& node = nodes[i];
      telemetry::TelemetryBus node_bus;
      CaptureSink capture;
      node_bus.attach(&capture);
      const firestarter::SimChannels channels =
          firestarter::register_sim_channels(node_bus, false, true, true);
      capture.channel = channels.power;
      node_bus.begin_phase(bracket.phase_name, plan.phase_s, deltas.start_s, deltas.stop_s);
      const sched::ConstantProfile profile(plan.levels[p]);
      double t = now_s();
      firestarter::run_sim_phase(*node.system, node.cfg, node.stats, profile, plan.phase_s,
                                 derive_seed(plan.cfg.seed, 1000 + 16 * i + p), 0.0, false,
                                 node_bus, channels);
      const double sim = now_s() - t;
      node_bus.finish();
      const std::vector<telemetry::Sample>& samples = capture.samples;
      const double n = static_cast<double>(samples.size());
      if (samples.empty()) continue;
      sim_s += sim;
      out.layers["sim.phase_ns_per_sample"].push_back(sim * 1e9 / n);

      telemetry::TelemetryBus publish_bus;
      telemetry::SummarySink summary;
      publish_bus.attach(&summary);
      const telemetry::ChannelId id = publish_bus.channel("sim-wall-power", "W");
      publish_bus.begin_phase(bracket.phase_name, plan.phase_s, deltas.start_s, deltas.stop_s);
      t = now_s();
      for (std::size_t at = 0; at < samples.size(); at += batch)
        publish_bus.publish_batch(
            id, std::span<const telemetry::Sample>(samples.data() + at,
                                                   std::min(batch, samples.size() - at)));
      const double publish = now_s() - t;
      publish_bus.finish();
      publish_s += publish;
      out.layers["telemetry.publish_ns_per_sample"].push_back(publish * 1e9 / n);

      for (std::size_t at = 0; at < samples.size(); at += batch) {
        const std::size_t count = std::min(batch, samples.size() - at);
        const double k = static_cast<double>(count);
        t = now_s();
        cluster::SampleBatchMsg::encode_into(writer, 0, samples.data() + at, count);
        const double t_enc = now_s();
        cluster::WireReader reader(writer.bytes());
        cluster::SampleBatchMsg::decode_into(reader, decoded);
        const double t_dec = now_s();
        bus.on_samples(i, decoded);
        const double t_ing = now_s();
        encode_s += t_enc - t;
        decode_s += t_dec - t_enc;
        ingest_s += t_ing - t_dec;
        bytes_total += static_cast<double>(writer.bytes().size());
        out.layers["cluster.encode_ns_per_sample"].push_back((t_enc - t) * 1e9 / k);
        out.layers["cluster.decode_ns_per_sample"].push_back((t_dec - t_enc) * 1e9 / k);
        out.layers["cluster.ingest_ns_per_sample"].push_back((t_ing - t_dec) * 1e9 / k);
      }
      samples_total += n;
    }
    bracket.is_begin = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) bus.on_bracket(i, bracket);
  }
  bus.finish();
  out.estimated_ms["sim"] += sim_s * 1e3;
  out.estimated_ms["telemetry"] += publish_s * 1e3;
  out.estimated_ms["cluster"] += (encode_s + decode_s + ingest_s) * 1e3;
  if (samples_total > 0)
    out.scalars["cluster.bytes_per_sample"].push_back(bytes_total / samples_total);
}

/// Replays the fleet-budget control plane of one campaign in this thread:
/// per node a PowerPlant under a FeedbackLoop ticking at the controller
/// interval, and every budget interval a BudgetApportioner report whose
/// answer retargets the loop — the calls SimAgent and the coordinator make.
/// Replayed layer time of one budget campaign.
struct BudgetReplay {
  double control_ms = 0.0;    ///< ticks plus apportion calls
  double apportion_ms = 0.0;  ///< also inside the coordinator's budget-exchange spans
};

BudgetReplay replay_budget(const FleetPlan& plan, Outcome& out) {
  const cluster::Coordinator::Options defaults;
  std::vector<NodeModel> nodes = node_models(plan);
  const double target_w = plan.budget->value;
  control::BudgetApportioner apportioner(target_w, nodes.size());
  struct Loop {
    std::unique_ptr<sim::PowerPlant> plant;
    std::shared_ptr<control::ControlledProfile> profile;
    std::unique_ptr<control::FeedbackLoop> loop;
    telemetry::TelemetryBus bus;
    telemetry::SummarySink summary;
  };
  std::vector<std::unique_ptr<Loop>> loops;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    auto l = std::make_unique<Loop>();
    const sim::WorkloadPoint full =
        nodes[i].system->simulator().run(nodes[i].stats, sim::RunConditions{});
    l->plant = std::make_unique<sim::PowerPlant>(nodes[i].system->simulator(), full,
                                                 derive_seed(plan.cfg.seed, 300 + i));
    l->profile = std::make_shared<control::ControlledProfile>(0.5);
    control::Setpoint sp =
        control::Setpoint::parse("power=" + std::to_string(apportioner.initial_share_w()) + "W");
    sp.interval_s = defaults.ctl_interval_s;
    l->loop = std::make_unique<control::FeedbackLoop>(sp, l->profile, l->plant->power_span_w(),
                                                      0.5);
    l->bus.attach(&l->summary);
    l->loop->attach_bus(&l->bus);
    loops.push_back(std::move(l));
  }
  const double dt = defaults.ctl_interval_s;
  const double budget_every = plan.budget->interval_s;
  double tick_s = 0.0;
  double apportion_s = 0.0;
  std::vector<double>& tick_us = out.layers["control.tick_us"];
  std::vector<double>& apportion_us = out.layers["control.apportion_us"];
  for (int p = 0; p < kFleetPhases; ++p) {
    for (auto& l : loops) l->bus.begin_phase("p" + std::to_string(p), plan.phase_s, 0.0, 0.0);
    double next_budget = budget_every;
    for (double t = dt; t <= plan.phase_s + 1e-9; t += dt) {
      const double campaign_t = p * plan.phase_s + t;
      for (auto& l : loops) {
        const double power = l->plant->step(l->profile->load_at(t), dt).power_w;
        const double t0 = now_s();
        l->loop->tick(campaign_t, power);
        const double d = now_s() - t0;
        tick_s += d;
        tick_us.push_back(d * 1e6);
      }
      if (t + 1e-9 >= next_budget) {
        next_budget += budget_every;
        for (std::size_t i = 0; i < loops.size(); ++i) {
          const double t0 = now_s();
          const double share = apportioner.on_report(i, loops[i]->plant->state().power_w);
          const double d = now_s() - t0;
          apportion_s += d;
          apportion_us.push_back(d * 1e6);
          loops[i]->loop->set_target(share);
        }
      }
    }
    apportioner.begin_window();
  }
  for (auto& l : loops) l->bus.finish();
  return {(tick_s + apportion_s) * 1e3, apportion_s * 1e3};
}

/// (phase -> sum of node means, cluster mean) for one channel.
std::map<std::string, std::pair<double, double>> power_by_phase(
    const std::vector<cluster::ClusterBus::Row>& rows) {
  std::map<std::string, std::pair<double, double>> out;
  for (const cluster::ClusterBus::Row& row : rows) {
    if (row.node == "cluster" && row.summary.name == "cluster-power")
      out[row.summary.phase].second = row.summary.mean;
    else if (row.node != "cluster" && row.summary.name == "sim-wall-power")
      out[row.summary.phase].first += row.summary.mean;
  }
  return out;
}

std::string node_rows_csv(const std::vector<cluster::ClusterBus::Row>& rows) {
  std::vector<cluster::ClusterBus::Row> nodes;
  for (const cluster::ClusterBus::Row& row : rows)
    if (row.node != "cluster") nodes.push_back(row);
  std::ostringstream csv;
  cluster::ClusterBus::write_csv(csv, nodes);
  return csv.str();
}

Outcome run_fleet(std::uint64_t seed, double seconds, bool budget, SpanLog& spans) {
  Outcome out;
  out.work_name = budget ? "fleet.node_s_per_s" : "fleet.samples_per_s";
  const FleetPlan plan = make_fleet_plan(seed, budget);
  const double nodes = static_cast<double>(plan.specs.size());
  const double node_seconds = nodes * kFleetPhases * plan.phase_s;
  const double samples = node_seconds * plan.cfg.sim_sample_hz;
  std::optional<std::string> reference_rows;
  std::optional<BudgetReplay> budget_replay;
  pin_to_one_cpu();

  const double start = now_s();
  for (int c = 0; c < 2 || now_s() - start < seconds; ++c) {
    std::optional<TraceDrain> drain;
    if (spans.enabled()) drain.emplace();
    CampaignRun run;
    {
      Scope window(spans, "bench.window");
      run = run_fleet_campaign(plan);
      const double epoch_s = run.announced_s + plan.cfg.cluster_start_delay_s;
      if (run.announced_s > 0.0) {
        spans.add("firestarter.launch", run.launch_s, run.admit_s);
        spans.add("cluster.admit", run.admit_s, run.announced_s);
        spans.add("sleep.start_delay", run.announced_s, epoch_s);
        spans.add("bench.campaign", epoch_s, run.end_s);
      }
      Scope check(spans, "bench.check");
      out.operations(kFleetPhases, run.error.empty() ? 0 : kFleetPhases);
      if (!run.error.empty()) {
        out.error(run.error);
        continue;
      }
      const double wall = run.end_s - epoch_s;
      out.setup_s.push_back(run.announced_s - run.launch_s);
      out.layers["cluster.admit_ms"].push_back((run.announced_s - run.admit_s) * 1e3);
      if (budget) {
        // Budget campaigns are long: each phase is a unit of work, timed
        // between the fleet's phase begins (the coordinator's lockstep record).
        const std::vector<cluster::ClusterBus::PhaseSync>& sync = run.result.sync;
        for (std::size_t k = 0; k < sync.size(); ++k) {
          const double next = k + 1 < sync.size() ? sync[k + 1].min_begin_s : wall;
          if (next > sync[k].min_begin_s)
            out.work.push_back(nodes * plan.phase_s / (next - sync[k].min_begin_s));
        }
      } else {
        out.work.push_back(samples / wall);
      }
      out.scalars["fleet.node_s_per_s"].push_back(node_seconds / wall);
      out.scalars["firestarter.reactor_iterations"].push_back(
          static_cast<double>(run.reactor_iterations));
      for (const auto& [phase, power] : power_by_phase(run.result.rows)) {
        if (budget) {
          const double band = plan.budget->band * plan.budget->value;
          out.check("cluster_power_in_band", std::fabs(power.second - plan.budget->value) <= band);
        } else {
          out.check("cluster_power_matches_nodes",
                    std::fabs(power.second - power.first) <= kClusterPowerTolerance * power.first);
        }
      }
      if (!budget) {
        const std::string rows = node_rows_csv(run.result.rows);
        if (!reference_rows) reference_rows = rows;
        else out.check("node_rows_identical", rows == *reference_rows);
      }
    }
    if (drain) {
      // A budget campaign makes ~10^5 exchanges and controller ticks: keep
      // per-call samples from the first campaign only, and replay it once.
      std::size_t rounds = 0;
      for (const trace::SpanEvent& e : drain->finish()) {
        if (std::strcmp(e.name, "cluster.budget_exchange") == 0) {
          ++rounds;
          if (c == 0)
            out.layers["cluster.budget_exchange_us"].push_back((e.end_s - e.begin_s) * 1e6);
          out.estimated_ms["cluster"] += (e.end_s - e.begin_s) * 1e3;
        } else if (std::strcmp(e.name, "cluster.phase_barrier") == 0) {
          out.layers["cluster.phase_barrier_ms"].push_back((e.end_s - e.begin_s) * 1e3);
        }
      }
      out.scalars["cluster.budget_rounds"].push_back(static_cast<double>(rounds));
      out.scalars["trace.dropped_spans"].push_back(static_cast<double>(trace::Tracer::dropped()));
      // Replays run outside the measured windows.
      if (budget) {
        if (!budget_replay) budget_replay = replay_budget(plan, out);
        out.estimated_ms["control"] += budget_replay->control_ms;
        out.estimated_ms["cluster"] -= budget_replay->apportion_ms;
      } else {
        replay_stream(plan, out);
      }
    }
  }
  return out;
}

// ---- output ------------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", c);
      out += esc;
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    out += json_number(values[i]);
  }
  return out + "]";
}

std::string json_array_map(const std::map<std::string, std::vector<double>>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, values] : m) {
    if (!first) out += ',';
    first = false;
    out += json_string(name) + ':' + json_array(values);
  }
  return out + "}";
}

void write_raw(const std::string& path, const std::string& workload, const Outcome& out,
               const SpanLog& spans) {
  std::ostringstream j;
  j << "{\"workload\":" << json_string(workload) << ",\"attempted\":" << out.attempted
    << ",\"failed\":" << out.failed << ",\"checks\":{";
  bool first = true;
  for (const auto& [name, counts] : out.checks) {
    if (!first) j << ',';
    first = false;
    j << json_string(name) << ":[" << counts.first << ',' << counts.second << ']';
  }
  j << "},\"errors\":[";
  for (std::size_t i = 0; i < out.errors.size(); ++i)
    j << (i ? "," : "") << json_string(out.errors[i]);
  j << "],\"setup_s\":" << json_array(out.setup_s) << ",\"work_name\":" << json_string(out.work_name)
    << ",\"work\":" << json_array(out.work) << ",\"peak_rss_mb\":" << json_number(peak_rss_mb())
    << ",\"scalars\":" << json_array_map(out.scalars) << ",\"layers\":" << json_array_map(out.layers);
  if (spans.enabled()) {
    const SelfTable table = self_times(spans.spans(), out.estimated_ms);
    j << ",\"self_ms\":{";
    first = true;
    for (const auto& [layer, ms] : table.layer_ms) {
      if (!first) j << ',';
      first = false;
      j << json_string(layer) << ':' << json_number(ms);
    }
    j << "},\"residual_ms\":" << json_number(table.residual_ms)
      << ",\"wall_ms\":" << json_number(table.wall_ms);
  }
  j << "}\n";
  std::ofstream file(path);
  file << j.str();
  if (!file) throw std::runtime_error("cannot write " + path);
}

int usage() {
  std::fprintf(stderr,
               "usage: fs2bench --workload tune-sim|stress-host|fleet-stream|fleet-budget "
               "--seed N --seconds S --trace 0|1 --out RAW.json [--spans SPANS.tsv]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  for (const char* key : {"workload", "seed", "seconds", "trace", "out"})
    if (!args.count(key)) return usage();
  const std::string workload = args["workload"];
  const std::uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const double seconds = std::atof(args["seconds"].c_str());
  SpanLog spans(args["trace"] == "1");
  fs2::log::set_level(fs2::log::Level::kWarn);

  try {
    Outcome out;
    if (workload == "tune-sim") out = run_tune_sim(seed, seconds, spans);
    else if (workload == "stress-host") out = run_stress_host(seed, seconds, spans);
    else if (workload == "fleet-stream") out = run_fleet(seed, seconds, false, spans);
    else if (workload == "fleet-budget") out = run_fleet(seed, seconds, true, spans);
    else return usage();
    write_raw(args["out"], workload, out, spans);
    if (spans.enabled() && args.count("spans")) spans.write_tsv(args["spans"]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fs2bench: %s\n", e.what());
    return 1;
  }
  return 0;
}
