#include "firestarter/sim_fleet.hpp"

#include <sys/resource.h>

#include <algorithm>

#include "util/strings.hpp"

namespace fs2::firestarter {

void raise_fd_limit(std::size_t need) {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return;
  if (limit.rlim_cur >= need) return;
  rlimit raised = limit;
  raised.rlim_cur = limit.rlim_max == RLIM_INFINITY
                        ? need
                        : std::min<rlim_t>(need, limit.rlim_max);
  if (raised.rlim_cur > limit.rlim_cur) ::setrlimit(RLIMIT_NOFILE, &raised);
}

std::vector<LoopbackSpec> parse_loopback_specs(const std::string& list) {
  std::vector<LoopbackSpec> specs;
  for (const std::string& entry : strings::split(list, ',')) {
    std::string_view trimmed = strings::trim(entry);
    if (trimmed.empty()) throw ConfigError("--loopback: empty node spec in '" + list + "'");

    // Count multiplier: sku[@FREQ]xCOUNT. The 'x' is searched after the
    // '@' (or in the bare sku) so SKU names themselves stay unrestricted.
    std::size_t count = 1;
    const auto at = trimmed.find('@');
    const auto x = trimmed.find('x', at == std::string_view::npos ? 0 : at);
    if (x != std::string_view::npos) {
      const std::string_view count_text = trimmed.substr(x + 1);
      count = static_cast<std::size_t>(
          strings::parse_u64(std::string(count_text), "--loopback count"));
      if (count == 0) throw ConfigError("--loopback: node count must be >= 1");
      trimmed = trimmed.substr(0, x);
    }

    LoopbackSpec spec;
    const auto freq_at = trimmed.find('@');
    const std::string sku = strings::to_lower(trimmed.substr(0, freq_at));
    if (sku == "host")
      throw ConfigError(
          "--loopback: host agents cannot share one process (run a real "
          "fs2 --agent per machine instead); use sim SKUs here");
    spec.target = parse_sim_target(sku);
    spec.name = sku;
    if (freq_at != std::string_view::npos) {
      spec.freq_mhz =
          strings::parse_double(trimmed.substr(freq_at + 1), "--loopback freq");
      if (!(spec.freq_mhz > 0.0)) throw ConfigError("--loopback: freq must be > 0 MHz");
    }
    for (std::size_t i = 0; i < count; ++i) specs.push_back(spec);
    if (specs.size() > kMaxLoopbackNodes)
      throw ConfigError(strings::format("--loopback: fleet larger than %zu nodes",
                                        kMaxLoopbackNodes));
  }
  if (specs.empty()) throw ConfigError("--loopback: no node specs given");
  return specs;
}

// ---- SimFleet ---------------------------------------------------------------

SimFleet::SimFleet(const Config& base, const std::vector<LoopbackSpec>& specs,
                   std::uint16_t port, const cluster::FaultPlan* plan)
    : AgentFleet(port, plan) {
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Config cfg = base;
    cfg.target = specs[i].target;
    cfg.sim_freq_mhz = specs[i].freq_mhz;
    cfg.node_name = strings::format("n%zu-%s", i, specs[i].name.c_str());
    cfg.seed = base.seed + i + 1;  // decorrelate the nodes' meter noise
    add(std::move(cfg));
  }
}

}  // namespace fs2::firestarter
