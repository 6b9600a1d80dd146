#include "payload/groups.hpp"

#include <cstdint>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace fs2::payload {

InstructionGroups::InstructionGroups(std::vector<Group> groups) : groups_(std::move(groups)) {
  std::uint64_t sum = 0;
  for (const Group& g : groups_) {
    if (g.count == 0)
      throw ConfigError("instruction group " + g.kind.to_string() + " has zero count");
    if (!is_valid(g.kind.level, g.kind.pattern))
      throw ConfigError("instruction group " + g.kind.to_string() + " is not a defined pattern");
    sum += g.count;
  }
  // total() is the base sequence's length, which the builders index with.
  if (sum > UINT32_MAX)
    throw ConfigError("instruction groups sum to " + std::to_string(sum) +
                      " sets, more than " + std::to_string(UINT32_MAX));
  for (std::size_t i = 0; i < groups_.size(); ++i)
    for (std::size_t j = i + 1; j < groups_.size(); ++j)
      if (groups_[i].kind == groups_[j].kind)
        throw ConfigError("duplicate instruction group " + groups_[i].kind.to_string());
}

InstructionGroups InstructionGroups::parse(const std::string& text) {
  std::vector<Group> groups;
  for (const std::string& item : strings::split(text, ',')) {
    const std::string trimmed(strings::trim(item));
    if (trimmed.empty())
      throw ConfigError("empty entry in instruction groups '" + text + "'");
    const auto colon = trimmed.find(':');
    if (colon == std::string::npos)
      throw ConfigError("instruction group '" + trimmed + "' is missing ':<count>'");
    const auto kind = parse_access_kind(trimmed.substr(0, colon));
    if (!kind)
      throw ConfigError("unknown access kind '" + trimmed.substr(0, colon) + "'");
    const std::uint64_t count =
        strings::parse_u64(trimmed.substr(colon + 1), "instruction group count");
    if (count == 0 || count > UINT32_MAX)
      throw ConfigError("instruction group '" + trimmed + "' count out of range");
    groups.push_back(Group{*kind, static_cast<std::uint32_t>(count)});
  }
  return InstructionGroups(std::move(groups));
}

std::string InstructionGroups::to_string() const {
  std::string out;
  for (const Group& g : groups_) {
    if (!out.empty()) out += ',';
    out += g.kind.to_string() + ":" + std::to_string(g.count);
  }
  return out;
}

std::uint32_t InstructionGroups::total() const {
  std::uint32_t sum = 0;
  for (const Group& g : groups_) sum += g.count;
  return sum;
}

std::uint32_t InstructionGroups::count_of(const AccessKind& kind) const {
  for (const Group& g : groups_)
    if (g.kind == kind) return g.count;
  return 0;
}

bool InstructionGroups::touches(MemoryLevel level) const {
  for (const Group& g : groups_)
    if (g.kind.level == level) return true;
  return false;
}

bool InstructionGroups::operator==(const InstructionGroups& other) const {
  if (groups_.size() != other.groups_.size()) return false;
  for (std::size_t i = 0; i < groups_.size(); ++i)
    if (!(groups_[i].kind == other.groups_[i].kind) || groups_[i].count != other.groups_[i].count)
      return false;
  return true;
}

}  // namespace fs2::payload
