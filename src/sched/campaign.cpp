#include "sched/campaign.hpp"

#include <fstream>
#include <sstream>

#include "payload/groups.hpp"
#include "sched/load_profile.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace fs2::sched {

namespace {

/// Split on any run of spaces/tabs, dropping empty tokens (profile specs
/// contain commas, so whitespace is the field separator here).
std::vector<std::string> split_tokens(std::string_view line) {
  std::vector<std::string> tokens;
  std::size_t start = 0;
  while (start < line.size()) {
    while (start < line.size() && (line[start] == ' ' || line[start] == '\t')) ++start;
    std::size_t end = start;
    while (end < line.size() && line[end] != ' ' && line[end] != '\t') ++end;
    if (end > start) tokens.emplace_back(line.substr(start, end - start));
    start = end;
  }
  return tokens;
}

}  // namespace

Campaign Campaign::parse(std::istream& in, const std::string& origin) {
  std::vector<CampaignPhase> phases;
  std::string line;
  int line_no = 0;
  auto fail = [&origin, &line_no](const std::string& message) -> ConfigError {
    return ConfigError(strings::format("campaign %s line %d: %s", origin.c_str(), line_no,
                                       message.c_str()));
  };

  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view trimmed = strings::trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;

    const std::vector<std::string> tokens = split_tokens(trimmed);
    if (tokens.front() != "phase")
      throw fail("expected 'phase key=value ...', got '" + tokens.front() + "'");

    CampaignPhase phase;
    phase.name = strings::format("phase%zu", phases.size() + 1);
    bool have_duration = false;
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      const auto eq = tokens[i].find('=');
      if (eq == std::string::npos)
        throw fail("token '" + tokens[i] + "' is not key=value");
      const std::string key = strings::to_lower(tokens[i].substr(0, eq));
      const std::string value = tokens[i].substr(eq + 1);
      if (value.empty()) throw fail("key '" + key + "' has an empty value");
      if (key == "name") {
        phase.name = value;
      } else if (key == "duration") {
        try {
          phase.duration_s = strings::parse_double(value, "duration");
        } catch (const Error& e) {
          throw fail(e.what());
        }
        if (phase.duration_s <= 0.0) throw fail("duration must be > 0 seconds");
        have_duration = true;
      } else if (key == "profile") {
        phase.profile_spec = value;
        phase.profile_explicit = true;
      } else if (key == "function") {
        phase.function = value;
      } else if (key == "target") {
        phase.target_spec = value;
      } else if (key == "threads") {
        std::uint64_t raw = 0;
        try {
          raw = strings::parse_u64(value, "threads");
        } catch (const Error& e) {
          throw fail(e.what());
        }
        if (raw == 0) throw fail("threads must be > 0");
        // Guard the int cast: a value past any real machine would silently
        // wrap into a small positive count.
        if (raw > 1u << 20) throw fail("threads value is implausibly large");
        phase.threads = static_cast<int>(raw);
      } else if (key == "freq") {
        try {
          phase.freq_mhz = strings::parse_double(value, "freq");
        } catch (const Error& e) {
          throw fail(e.what());
        }
        if (!(*phase.freq_mhz > 0.0)) throw fail("freq must be > 0 MHz");
      } else if (key == "groups") {
        // Validate the multiset now, like profiles: a fuzz-replay campaign
        // with a typoed group list must fail before any stress starts.
        try {
          payload::InstructionGroups::parse(value);
        } catch (const Error& e) {
          throw fail(e.what());
        }
        phase.groups = value;
      } else if (key == "unroll") {
        std::uint64_t raw = 0;
        try {
          raw = strings::parse_u64(value, "unroll");
        } catch (const Error& e) {
          throw fail(e.what());
        }
        if (raw == 0 || raw > 4096) throw fail("unroll must be within [1, 4096]");
        phase.unroll = static_cast<unsigned>(raw);
      } else if (key == "measure") {
        if (value != "temp")
          throw fail("measure= supports only 'temp' (other channels are always on)");
        phase.measure_temp = true;
      } else {
        throw fail(
            "unknown key '" + key +
            "' (name, duration, profile, function, target, threads, freq, "
            "groups, unroll, measure)");
      }
    }
    if (!have_duration) throw fail("phase '" + phase.name + "' is missing duration=SEC");

    // Phase names key everything downstream — summary-row attribution, the
    // cluster layer's phase-major CSV merge, log lines. A duplicate would
    // silently fold two phases' rows together, so reject it here.
    for (const CampaignPhase& existing : phases)
      if (existing.name == phase.name)
        throw fail("duplicate phase name '" + phase.name + "'");

    // Validate the profile spec now (defaults stand in for the CLI values);
    // a campaign should fail before the first phase starts stressing, not in
    // the middle of a multi-hour run. Target specs belong to the control
    // layer above sched — the campaign *runner* validates them in its own
    // up-front resolve pass, preserving the same fail-fast guarantee.
    try {
      parse_profile(phase.profile_spec, /*default_load=*/1.0, /*default_period_s=*/0.1);
    } catch (const Error& e) {
      throw fail("phase '" + phase.name + "': " + e.what());
    }

    phases.push_back(std::move(phase));
  }

  if (phases.empty())
    throw ConfigError("campaign " + origin + ": no phases defined");
  return Campaign(std::move(phases));
}

Campaign Campaign::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("campaign: cannot open '" + path + "'");
  return parse(in, "'" + path + "'");
}

double Campaign::total_duration_s() const {
  double total = 0.0;
  for (const CampaignPhase& phase : phases_) total += phase.duration_s;
  return total;
}

}  // namespace fs2::sched
