#include "metrics/hw_events.hpp"

#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstring>

#include "util/logging.hpp"

namespace fs2::metrics {

HwEvent HwEvent::instructions() {
  return HwEvent{"instructions", PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS};
}
HwEvent HwEvent::cycles() {
  return HwEvent{"cycles", PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES};
}
HwEvent HwEvent::zen2_uops_from_decoder() {
  // PPR for AMD Family 17h: PMCx0AA DeDisUopsFromDecoder, umask 0x01.
  return HwEvent{"zen2-uops-from-decoder", PERF_TYPE_RAW, 0x01AA};
}
HwEvent HwEvent::zen2_uops_from_opcache() {
  return HwEvent{"zen2-uops-from-opcache", PERF_TYPE_RAW, 0x02AA};
}
HwEvent HwEvent::zen2_cycles_not_in_halt() {
  return HwEvent{"zen2-cycles-not-in-halt", PERF_TYPE_RAW, 0x76};
}

namespace {
int perf_open(const HwEvent& event, int group_fd) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof attr);
  attr.type = event.type;
  attr.size = sizeof attr;
  attr.config = event.config;
  attr.disabled = group_fd == -1 ? 1 : 0;
  attr.inherit = 1;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  return static_cast<int>(::syscall(SYS_perf_event_open, &attr, 0, -1, group_fd, 0));
}
}  // namespace

HwEventGroup::HwEventGroup(std::vector<HwEvent> events) : events_(std::move(events)) {
  int leader = -1;
  for (const HwEvent& event : events_) {
    const int fd = perf_open(event, leader);
    if (fd < 0) {
      log::debug() << "hw event '" << event.name << "' unavailable on this host";
      for (int open_fd : fds_) ::close(open_fd);
      fds_.clear();
      return;
    }
    if (leader == -1) leader = fd;
    fds_.push_back(fd);
  }
}

HwEventGroup::~HwEventGroup() {
  for (int fd : fds_) ::close(fd);
}

void HwEventGroup::begin() {
  if (!available()) return;
  ::ioctl(fds_.front(), PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
  ::ioctl(fds_.front(), PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
}

std::vector<std::uint64_t> HwEventGroup::read() const {
  std::vector<std::uint64_t> values(events_.size(), 0);
  if (!available()) return values;
  for (std::size_t i = 0; i < fds_.size(); ++i) {
    std::uint64_t value = 0;
    if (::read(fds_[i], &value, sizeof value) == static_cast<ssize_t>(sizeof value))
      values[i] = value;
  }
  return values;
}

HwRatioMetric::HwRatioMetric(std::string name, HwEvent numerator, HwEvent denominator,
                             std::string unit)
    : name_(std::move(name)),
      unit_(std::move(unit)),
      group_({std::move(numerator), std::move(denominator)}) {}

void HwRatioMetric::begin() {
  group_.begin();
  last_num_ = 0;
  last_den_ = 0;
}

double HwRatioMetric::sample() {
  if (!available()) return 0.0;
  const auto values = group_.read();
  const std::uint64_t d_num = values[0] - last_num_;
  const std::uint64_t d_den = values[1] - last_den_;
  last_num_ = values[0];
  last_den_ = values[1];
  if (d_den == 0) return 0.0;
  return static_cast<double>(d_num) / static_cast<double>(d_den);
}

}  // namespace fs2::metrics
