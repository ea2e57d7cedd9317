// User-agent profiling (§IV-C): enterprise software populations are
// homogeneous, so a UA string used by very few hosts hints at unpopular —
// possibly malicious — software. The history counts, per UA, the distinct
// hosts that ever used it; a UA is "rare" when that count stays below a
// threshold (10, per SOC recommendation). Distinct-host sets are capped at
// the threshold: once a UA is popular we only need to know it is popular.
//
// Host names are interned once in a shared table and entries hold dense
// ids: at enterprise scale the same workstation name appears in thousands
// of rare-UA entries, so per-entry string sets would store it thousands of
// times. Membership per entry is a linear scan of at most rare_threshold
// ids — cheaper than hashing for the capped sets. The id table also gives
// checkpoints a bulk-restore path (storage/state.h) that never re-hashes a
// host name per entry.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "logs/records.h"
#include "util/interner.h"

namespace eid::profile {

class UaHistory {
 public:
  explicit UaHistory(std::size_t rare_threshold = 10)
      : rare_threshold_(rare_threshold) {}

  /// Record that `host` used `ua`. Empty UA strings are ignored (tracked
  /// separately as the NoUA signal by the feature layer).
  void observe(std::string_view ua, std::string_view host);

  /// Convenience: ingest every UA-bearing event of a day.
  void observe_day(const std::vector<logs::ConnEvent>& events);

  /// True when the UA has been used by fewer than the threshold of hosts.
  /// Unknown UAs are rare by definition.
  bool is_rare(std::string_view ua) const;

  /// Distinct hosts seen for a UA, saturating at the rare threshold.
  std::size_t host_count(std::string_view ua) const;

  std::size_t distinct_uas() const { return uas_.size(); }
  std::size_t rare_threshold() const { return rare_threshold_; }

  /// Distinct host names across all rare entries (size of the intern table).
  std::size_t distinct_hosts() const { return hosts_.size(); }

  /// Visit every entry: fn(ua, popular, hosts) with hosts a
  /// std::span<const std::string_view> (empty once a UA is popular).
  template <typename Fn>
  void for_each_entry(Fn&& fn) const {
    std::vector<std::string_view> views;
    for (const auto& [ua, entry] : uas_) {
      views.clear();
      for (const util::InternId id : entry.host_ids) {
        views.push_back(hosts_.name(id));
      }
      fn(ua, entry.popular,
         std::span<const std::string_view>(views.data(), views.size()));
    }
  }

  /// Id-based entry visitation: fn(ua, popular, host_ids). The ids index
  /// host_name(); serializers resolve each distinct host once instead of
  /// once per entry.
  template <typename Fn>
  void for_each_entry_ids(Fn&& fn) const {
    for (const auto& [ua, entry] : uas_) {
      fn(ua, entry.popular,
         std::span<const util::InternId>(entry.host_ids.data(),
                                         entry.host_ids.size()));
    }
  }

  /// Host name for an id from for_each_entry_ids(). id < distinct_hosts().
  const std::string& host_name(util::InternId id) const {
    return hosts_.name(id);
  }

  /// Restore one persisted entry (replaces any existing state for `ua`).
  void restore_entry(std::string_view ua, bool popular,
                     std::span<const std::string_view> hosts);

  /// Apply a decoded history section (a whole checkpoint's, or a delta
  /// frame's touched entries): an empty history adopts it wholesale,
  /// threshold included; a non-empty one replaces each entry it carries.
  /// Never journals.
  void absorb(UaHistory&& section);

  // ---- Bulk restore (storage/state.h) ----
  // Register each distinct host name once, then add entries referencing
  // the returned ids — the load path never hashes a host name per entry.

  /// Pre-size the UA table for a known entry count.
  void reserve_uas(std::size_t n) { uas_.reserve(n); }

  /// Dense id for a host name (interning it on first sight).
  util::InternId restore_host(std::string_view host) {
    return hosts_.intern(host);
  }

  /// Add an entry whose hosts are ids from restore_host(). `host_ids` must
  /// be duplicate-free; ignored (and dropped) when `popular`.
  void restore_entry_ids(std::string_view ua, bool popular,
                         std::vector<util::InternId> host_ids);

  // ---- Delta checkpoints (storage/delta.h) ----

  /// Start (or stop) recording which UAs observe() mutates. Turning
  /// journaling on clears any previous journal. Restores never journal.
  void set_journaling(bool on) {
    journaling_ = on;
    journal_.clear();
    journal_seen_.clear();
  }

  /// UA strings whose entries changed since journaling started (or the
  /// last drain), in first-touch order. Draining resets the journal.
  std::vector<std::string> drain_journal();

  /// Current entry for a UA: popular flag + host-id span (ids index
  /// host_name(); empty once popular). False when the UA is unknown.
  bool entry_view(std::string_view ua, bool& popular,
                  std::span<const util::InternId>& hosts) const;

 private:
  struct Entry {
    std::vector<util::InternId> host_ids;  ///< capped at rare_threshold_
    bool popular = false;
  };

  void journal_touch(const std::string& ua);

  util::TransparentStringMap<Entry> uas_;
  util::Interner hosts_;  ///< distinct hosts across all rare entries
  std::size_t rare_threshold_;
  bool journaling_ = false;
  std::vector<std::string> journal_;  ///< touched UAs, first-touch order
  util::TransparentStringSet journal_seen_;
};

}  // namespace eid::profile
