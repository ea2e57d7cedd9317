#include "logs/dhcp.h"

#include <algorithm>

namespace eid::logs {

void DhcpTable::add_lease(DhcpLease lease) {
  auto& slot = by_ip_[lease.ip];
  if (!slot.leases.empty() && lease.start < slot.leases.back().start) {
    slot.sorted = false;
  }
  slot.leases.push_back(std::move(lease));
  ++count_;
}

std::optional<std::string_view> DhcpTable::resolve(std::string_view ip,
                                                   util::TimePoint ts) const {
  auto it = by_ip_.find(ip);
  if (it == by_ip_.end()) return std::nullopt;
  auto& slot = it->second;
  if (!slot.sorted) {
    std::stable_sort(slot.leases.begin(), slot.leases.end(),
                     [](const DhcpLease& a, const DhcpLease& b) {
                       return a.start < b.start;
                     });
    slot.sorted = true;
  }
  // Last lease with start <= ts; later entries win on overlap.
  auto upper = std::upper_bound(
      slot.leases.begin(), slot.leases.end(), ts,
      [](util::TimePoint t, const DhcpLease& lease) { return t < lease.start; });
  while (upper != slot.leases.begin()) {
    --upper;
    if (ts < upper->end) return upper->hostname;
    if (upper->start <= ts) break;  // gap: ts after this lease ended
  }
  return std::nullopt;
}

}  // namespace eid::logs
