#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/fault_injection.hpp"
#include "firestarter/agent.hpp"
#include "firestarter/config.hpp"

namespace fs2::firestarter {

/// One entry of a --loopback fleet spec: "zen2@1500" = a simulated Zen 2
/// agent pinned to 1500 MHz; "zen2@1500x256" = 256 of them. Loopback
/// agents are sim-only — two host stress runs inside one process would
/// fight over the same CPUs and measure each other.
struct LoopbackSpec {
  TargetSystem target = TargetSystem::kSimZen2;
  double freq_mhz = 0.0;
  std::string name;
};

/// Parse a --loopback spec list, expanding count multipliers:
/// `sku[@FREQ][xCOUNT]`, comma-separated. Throws ConfigError on malformed
/// specs, host entries, or fleets larger than kMaxLoopbackNodes.
std::vector<LoopbackSpec> parse_loopback_specs(const std::string& list);

/// Upper bound on one process's loopback fleet (file descriptors: agent +
/// coordinator side per node).
inline constexpr std::size_t kMaxLoopbackNodes = 4096;

/// Best-effort bump of the open-file soft limit to at least `need` (large
/// loopback fleets hold two fds per node in one process). Never throws —
/// if the hard limit is lower, socket creation will fail with a precise
/// errno anyway.
void raise_fd_limit(std::size_t need);

/// A whole --loopback fleet of simulated agents on ONE thread (the
/// AgentFleet poll loop), each with a private metrics registry. One event
/// loop instead of a thread per agent is what fits 512 loopback agents in
/// one process and one scheduler entity, and lets CI exercise the
/// coordinator at fleet scale.
class SimFleet : public AgentFleet {
 public:
  /// `base` is the coordinator's Config; per-agent copies take target/freq
  /// from the spec, node names and decorrelated seeds. The agents dial the
  /// local listener of the loopback_only coordinator on `port`, which must
  /// run in this process (Connection::connect_local). `plan` (may
  /// be null; copied) arms each agent's chaos faults and cues; chaos-killed
  /// agents come back as rejoining replacements.
  SimFleet(const Config& base, const std::vector<LoopbackSpec>& specs,
           std::uint16_t port, const cluster::FaultPlan* plan = nullptr);
};

}  // namespace fs2::firestarter
