#include "storage/state.h"

#include <algorithm>

#include "features/cc_features.h"
#include "features/similarity_features.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/delta.h"
#include "util/binary.h"
#include "util/crc32.h"
#include "util/executor.h"

namespace eid::storage {
namespace {

// Front-coding restarts every this many table entries, independent of the
// thread count, so the encoded bytes are identical for any parallelism.
constexpr std::size_t kFrontCodeBlock = 1024;

// Older delta frames carried the day's histories in their own layout under
// these ids, instead of in sections 3/4. That layout is no longer decoded;
// the ids are never reused.
constexpr std::uint64_t kRetiredDomainDelta = 21;
constexpr std::uint64_t kRetiredUaDelta = 22;

// ---- String table ----

using StringTable = std::vector<std::string_view>;

/// Tickets [first, last) of strings added to a TableBuilder together.
struct TicketRange {
  std::uint32_t first = 0;
  std::uint32_t last = 0;
};

/// Builds a container's string table from every string its sections
/// reference. add() hands out a ticket per occurrence; build() sorts once,
/// drops duplicates and resolves every ticket to its table id, so no
/// string is hashed or looked up by value. Ids follow the table's sort
/// order, so id order == lexicographic order and encoded bytes are stable.
class TableBuilder {
 public:
  std::uint32_t add(std::string_view text) {
    const auto ticket = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back({text, ticket});
    return ticket;
  }

  template <typename Strings>
  TicketRange add_all(const Strings& strings) {
    TicketRange range{static_cast<std::uint32_t>(entries_.size()), 0};
    for (const auto& text : strings) add(text);
    range.last = static_cast<std::uint32_t>(entries_.size());
    return range;
  }

  void build() {
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry& a, const Entry& b) { return a.text < b.text; });
    ids_.resize(entries_.size());
    for (const Entry& entry : entries_) {
      if (table_.empty() || table_.back() != entry.text) {
        table_.push_back(entry.text);
      }
      ids_[entry.ticket] = static_cast<std::uint32_t>(table_.size() - 1);
    }
    entries_ = {};
  }

  /// Table id of a ticket; valid after build().
  std::uint32_t id(std::uint32_t ticket) const { return ids_[ticket]; }
  const StringTable& table() const { return table_; }

 private:
  struct Entry {
    std::string_view text;
    std::uint32_t ticket;
  };
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> ids_;
  StringTable table_;
};

/// Decoded string table: all strings expanded into one arena, referenced
/// by (offset, length) spans.
struct DecodedTable {
  std::string arena;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> spans;

  std::size_t size() const { return spans.size(); }
  std::string_view view(std::uint64_t i) const {
    const auto [offset, length] = spans[static_cast<std::size_t>(i)];
    return std::string_view(arena).substr(offset, length);
  }
};

std::size_t common_prefix(std::string_view a, std::string_view b) {
  const std::size_t cap = std::min(a.size(), b.size());
  std::size_t n = 0;
  while (n < cap && a[n] == b[n]) ++n;
  return n;
}

/// Section 1: count, then per string (sorted ascending) the byte count
/// shared with the previous entry, the suffix length, and the suffix.
/// Blocks of kFrontCodeBlock entries encode independently (the block's
/// first entry stores a zero prefix), so the big string sets fan out over
/// util::parallel_ranges with bit-stable output.
std::string encode_string_table(const StringTable& table,
                                std::size_t n_threads,
                                util::Executor* executor) {
  const std::size_t n = table.size();
  const std::size_t n_blocks = (n + kFrontCodeBlock - 1) / kFrontCodeBlock;
  std::vector<std::string> blocks(n_blocks);
  util::parallel_ranges(
      executor, n_blocks, n_threads,
      [&](std::size_t, std::size_t first, std::size_t last) {
        for (std::size_t b = first; b < last; ++b) {
          util::ByteWriter out;
          const std::size_t begin = b * kFrontCodeBlock;
          const std::size_t end = std::min(begin + kFrontCodeBlock, n);
          std::size_t bound = 0;
          for (std::size_t i = begin; i < end; ++i) {
            bound += table[i].size() + 10;  // suffix + two varints, worst case
          }
          out.reserve(bound);
          for (std::size_t i = begin; i < end; ++i) {
            const std::string_view text = table[i];
            const std::size_t prefix =
                i == begin ? 0 : common_prefix(table[i - 1], text);
            out.varint(prefix);
            out.varint(text.size() - prefix);
            out.bytes(text.substr(prefix));
          }
          blocks[b] = out.take();
        }
      });
  util::ByteWriter out;
  std::size_t total = 10;
  for (const std::string& block : blocks) total += block.size();
  out.reserve(total);
  out.varint(n);
  for (const std::string& block : blocks) out.bytes(block);
  return out.take();
}

bool decode_string_table(std::string_view payload, DecodedTable& table,
                         LoadStatus* status) {
  util::ByteReader in(payload);
  std::uint64_t count = 0;
  if (!in.varint(count)) {
    set_status(status, LoadError::Truncated, "string table: count cut short");
    return false;
  }
  // Every entry costs at least two bytes (two varints), so a corrupt count
  // cannot force a huge allocation.
  if (count > payload.size()) {
    set_status(status, LoadError::Malformed,
               "string table: count exceeds payload size");
    return false;
  }
  table.arena.reserve(payload.size() * 2);
  table.spans.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t prefix = 0;
    std::string_view suffix;
    if (!in.varint(prefix) || !in.str(suffix)) {
      set_status(status, LoadError::Truncated,
                 "string table: entry " + std::to_string(i) + " cut short");
      return false;
    }
    const std::size_t prev_size =
        table.spans.empty() ? 0 : table.spans.back().second;
    if (prefix > prev_size) {
      set_status(status, LoadError::Malformed,
                 "string table: entry " + std::to_string(i) +
                     " shares more bytes than the previous entry has");
      return false;
    }
    const std::size_t length = static_cast<std::size_t>(prefix) + suffix.size();
    if (table.arena.size() + length > (1ull << 31)) {
      set_status(status, LoadError::Malformed, "string table: over 2 GiB");
      return false;
    }
    const std::size_t offset = table.arena.size();
    // Grow capacity up front so the self-append below never reallocates
    // mid-copy (the source range lives in the same buffer).
    if (table.arena.capacity() < offset + length) {
      table.arena.reserve(std::max(offset + length, table.arena.capacity() * 2));
    }
    if (prefix > 0) {
      table.arena.append(table.arena, table.spans.back().first,
                         static_cast<std::size_t>(prefix));
    }
    table.arena.append(suffix);
    table.spans.emplace_back(static_cast<std::uint32_t>(offset),
                             static_cast<std::uint32_t>(length));
  }
  if (!in.at_end()) {
    set_status(status, LoadError::Malformed,
               "string table: trailing bytes after the last entry");
    return false;
  }
  return true;
}

// ---- Id runs and string sets ----

/// Ascending id sequence as first-id + deltas (sorted sets reference the
/// sorted table, so deltas are small).
void encode_id_run(util::ByteWriter& out, const std::vector<std::uint64_t>& ids) {
  std::uint64_t prev = 0;
  for (const std::uint64_t id : ids) {
    out.varint(id - prev);
    prev = id;
  }
}

bool decode_id_run(util::ByteReader& in, std::uint64_t count,
                   std::uint64_t table_size, std::vector<std::uint64_t>& out) {
  // Every delta costs at least one byte, so a corrupt count cannot force a
  // huge allocation.
  if (count > in.remaining()) return false;
  out.clear();
  out.reserve(static_cast<std::size_t>(count));
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t delta = 0;
    if (!in.varint(delta)) return false;
    // Writers emit sorted unique ids, so every delta after the first is
    // strictly positive; a zero delta would smuggle duplicates past the
    // containers' duplicate-free restore preconditions.
    if (i > 0 && delta == 0) return false;
    prev += delta;
    if (prev >= table_size) return false;
    out.push_back(prev);
  }
  return true;
}

/// A set of table strings: count(varint) + id run. The ids are sorted and
/// deduplicated here, so a caller's duplicate strings (a hand-built intel
/// list, say) still encode as a run the decoder accepts. Sorting the
/// integer ids gives table (= string) order without string comparisons.
void encode_string_set(util::ByteWriter& out, const TableBuilder& strings,
                       TicketRange tickets) {
  std::vector<std::uint64_t> ids;
  ids.reserve(tickets.last - tickets.first);
  for (std::uint32_t t = tickets.first; t < tickets.last; ++t) {
    ids.push_back(strings.id(t));
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  out.varint(ids.size());
  encode_id_run(out, ids);
}

bool decode_string_set(util::ByteReader& in, const DecodedTable& table,
                       std::vector<std::uint64_t>& ids) {
  std::uint64_t count = 0;
  return in.varint(count) && decode_id_run(in, count, table.size(), ids);
}

// ---- The histories a view carries (whole, or a frame's growth) ----

TicketRange add_domains(const StateView& view, TableBuilder& strings) {
  if (view.frame != nullptr) return strings.add_all(*view.frame->new_domains);
  return strings.add_all(view.domain_history->domains());
}

/// Visit the UA entries a view carries: fn(ua, popular, host_ids), host
/// ids indexing ua_history->host_name().
template <typename Fn>
void for_each_ua_entry(const StateView& view, Fn&& fn) {
  const profile::UaHistory& history = *view.ua_history;
  if (view.frame == nullptr) {
    history.for_each_entry_ids(fn);
    return;
  }
  for (const std::string& ua : *view.frame->touched_uas) {
    bool popular = false;
    std::span<const util::InternId> host_ids;
    if (history.entry_view(ua, popular, host_ids)) fn(ua, popular, host_ids);
  }
}

/// Section 4's entries as table tickets: per entry the UA's ticket and a
/// range into one flat host-ticket array (O(1) allocations, not one per
/// UA). encode_ua_section() resolves them to table ids in place.
struct UaEntries {
  struct Entry {
    std::uint32_t ua = 0;
    std::uint32_t hosts_begin = 0;
    std::uint32_t hosts_count = 0;
    bool popular = false;
  };
  std::vector<Entry> entries;
  std::vector<std::uint32_t> hosts;
};

UaEntries add_ua_entries(const StateView& view, TableBuilder& strings) {
  const profile::UaHistory& history = *view.ua_history;
  // Each distinct host enters the table once, however many entries share
  // it — hosts repeat across thousands of entries.
  constexpr std::uint32_t kNone = ~std::uint32_t{0};
  std::vector<std::uint32_t> host_ticket(history.distinct_hosts(), kNone);
  UaEntries out;
  if (view.frame == nullptr) {
    out.entries.reserve(history.distinct_uas());
    out.hosts.reserve(history.distinct_uas() * 4);
  }
  for_each_ua_entry(view, [&](const std::string& ua, bool popular,
                              std::span<const util::InternId> host_ids) {
    UaEntries::Entry entry;
    entry.ua = strings.add(ua);
    entry.popular = popular;
    entry.hosts_begin = static_cast<std::uint32_t>(out.hosts.size());
    entry.hosts_count = static_cast<std::uint32_t>(host_ids.size());
    for (const util::InternId id : host_ids) {
      if (host_ticket[id] == kNone) {
        host_ticket[id] = strings.add(history.host_name(id));
      }
      out.hosts.push_back(host_ticket[id]);
    }
    out.entries.push_back(entry);
  });
  return out;
}

// ---- Section 3: domain history ----

std::string encode_domain_section(std::uint64_t days_ingested,
                                  const TableBuilder& strings,
                                  TicketRange domains) {
  util::ByteWriter out;
  out.reserve((domains.last - domains.first) * 3 + 20);
  out.varint(days_ingested);
  encode_string_set(out, strings, domains);
  return out.take();
}

bool decode_domain_section(std::string_view payload, const DecodedTable& table,
                           profile::DomainHistory& history,
                           LoadStatus* status) {
  util::ByteReader in(payload);
  std::uint64_t days = 0;
  if (!in.varint(days)) {
    set_status(status, LoadError::Truncated, "domain history: header cut short");
    return false;
  }
  std::vector<std::uint64_t> ids;
  if (!decode_string_set(in, table, ids) || !in.at_end()) {
    set_status(status, LoadError::Malformed,
               "domain history: bad domain id sequence");
    return false;
  }
  profile::DomainHistory::DomainSet domains;
  domains.reserve(ids.size());
  for (const std::uint64_t id : ids) domains.emplace(table.view(id));
  history.restore(std::move(domains), static_cast<std::size_t>(days));
  return true;
}

// ---- Section 4: UA history ----

std::string encode_ua_section(std::size_t rare_threshold, UaEntries ua,
                              const TableBuilder& strings) {
  for (std::uint32_t& host : ua.hosts) host = strings.id(host);
  for (UaEntries::Entry& entry : ua.entries) {
    entry.ua = strings.id(entry.ua);
    const auto first = ua.hosts.begin() + entry.hosts_begin;
    std::sort(first, first + entry.hosts_count);
  }
  // Table ids sort exactly like the strings they name.
  std::sort(ua.entries.begin(), ua.entries.end(),
            [](const UaEntries::Entry& a, const UaEntries::Entry& b) {
              return a.ua < b.ua;
            });

  util::ByteWriter out;
  out.reserve(ua.entries.size() * 8 + ua.hosts.size() * 4 + 20);
  out.varint(rare_threshold);
  out.varint(ua.entries.size());
  for (const UaEntries::Entry& entry : ua.entries) {
    out.varint(entry.ua);
    out.u8(entry.popular ? 1 : 0);
    if (entry.popular) continue;  // host set dropped once popular
    out.varint(entry.hosts_count);
    std::uint64_t prev = 0;
    for (std::uint32_t i = 0; i < entry.hosts_count; ++i) {
      const std::uint64_t id = ua.hosts[entry.hosts_begin + i];
      out.varint(id - prev);
      prev = id;
    }
  }
  return out.take();
}

bool decode_ua_section(std::string_view payload, const DecodedTable& table,
                       profile::UaHistory& history, LoadStatus* status) {
  util::ByteReader in(payload);
  std::uint64_t threshold = 0;
  std::uint64_t count = 0;
  if (!in.varint(threshold) || !in.varint(count)) {
    set_status(status, LoadError::Truncated, "ua history: header cut short");
    return false;
  }
  if (threshold == 0) {
    set_status(status, LoadError::Malformed, "ua history: zero rare threshold");
    return false;
  }
  history = profile::UaHistory(static_cast<std::size_t>(threshold));
  history.reserve_uas(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, in.remaining())));
  // Lazy table-id -> intern-id map: each distinct host name is registered
  // (hashed) exactly once, no matter how many entries reference it.
  std::vector<util::InternId> host_intern(table.size(), util::kInvalidInternId);
  std::vector<std::uint64_t> host_ids;
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto bad = [&](const char* what) {
      set_status(status, LoadError::Malformed,
                 "ua history: entry " + std::to_string(i) + ": " + what);
      return false;
    };
    std::uint64_t ua_id = 0;
    std::uint8_t flags = 0;
    if (!in.varint(ua_id) || !in.u8(flags)) return bad("cut short");
    if (ua_id >= table.size()) return bad("ua id out of range");
    if (flags > 1) return bad("unknown flags");
    std::vector<util::InternId> interned;
    if (flags == 0) {
      std::uint64_t n_hosts = 0;
      if (!in.varint(n_hosts)) return bad("host count cut short");
      // A rare entry always holds fewer hosts than the threshold (observe()
      // flips it to popular at the threshold and drops the set).
      if (n_hosts >= threshold) {
        return bad("rare entry at or above the popularity threshold");
      }
      if (!decode_id_run(in, n_hosts, table.size(), host_ids)) {
        return bad("bad host id sequence");
      }
      interned.reserve(host_ids.size());
      for (const std::uint64_t id : host_ids) {
        if (host_intern[id] == util::kInvalidInternId) {
          host_intern[id] = history.restore_host(table.view(id));
        }
        interned.push_back(host_intern[id]);
      }
    }
    history.restore_entry_ids(table.view(ua_id), flags == 1,
                              std::move(interned));
  }
  if (!in.at_end()) {
    set_status(status, LoadError::Malformed,
               "ua history: trailing bytes after the last entry");
    return false;
  }
  return true;
}

// ---- Sections 5 and 9: top sites, intel ----

std::string encode_string_set_section(const TableBuilder& strings,
                                      TicketRange tickets) {
  util::ByteWriter out;
  out.reserve((tickets.last - tickets.first) * 3 + 10);
  encode_string_set(out, strings, tickets);
  return out.take();
}

bool decode_string_set_section(std::string_view payload,
                               const DecodedTable& table, const char* what,
                               std::vector<std::string>& out,
                               LoadStatus* status) {
  util::ByteReader in(payload);
  std::vector<std::uint64_t> ids;
  if (!decode_string_set(in, table, ids) || !in.at_end()) {
    set_status(status, LoadError::Malformed,
               std::string(what) + ": bad id sequence");
    return false;
  }
  out.clear();
  out.reserve(ids.size());
  for (const std::uint64_t id : ids) out.emplace_back(table.view(id));
  return true;
}

// ---- Section 2: config ----

std::string encode_config_section(const core::PipelineConfig& config) {
  util::ByteWriter out;
  out.varint(config.popularity_threshold);
  out.varint(config.ua_rare_threshold);
  out.f64(config.periodicity.bin_width_seconds);
  out.f64(config.periodicity.jeffrey_threshold);
  out.varint(config.periodicity.min_intervals);
  out.u8(config.periodicity.metric == timing::HistogramMetric::L1 ? 1 : 0);
  out.f64(config.cc_threshold);
  out.f64(config.sim_threshold);
  out.varint(config.bp_max_iterations);
  out.varint(config.parallelism.threads);
  out.varint(config.parallelism.shards);
  return out.take();
}

bool decode_config_section(std::string_view payload,
                           core::PipelineConfig& config, LoadStatus* status) {
  util::ByteReader in(payload);
  std::uint64_t popularity = 0;
  std::uint64_t ua_rare = 0;
  std::uint64_t min_intervals = 0;
  std::uint8_t metric = 0;
  std::uint64_t bp_iter = 0;
  std::uint64_t threads = 0;
  std::uint64_t shards = 0;
  if (!in.varint(popularity) || !in.varint(ua_rare) ||
      !in.f64(config.periodicity.bin_width_seconds) ||
      !in.f64(config.periodicity.jeffrey_threshold) ||
      !in.varint(min_intervals) || !in.u8(metric) ||
      !in.f64(config.cc_threshold) || !in.f64(config.sim_threshold) ||
      !in.varint(bp_iter) || !in.varint(threads) || !in.varint(shards) ||
      !in.at_end()) {
    set_status(status, LoadError::Truncated, "config: section cut short");
    return false;
  }
  // The same validity bounds core::parse_pipeline_config enforces.
  if (popularity == 0 || ua_rare == 0 || min_intervals == 0 || bp_iter == 0 ||
      threads == 0 || shards == 0 || metric > 1 ||
      !(config.periodicity.bin_width_seconds > 0) ||
      !(config.periodicity.jeffrey_threshold >= 0)) {
    set_status(status, LoadError::Malformed, "config: value out of range");
    return false;
  }
  config.popularity_threshold = static_cast<std::size_t>(popularity);
  config.ua_rare_threshold = static_cast<std::size_t>(ua_rare);
  config.periodicity.min_intervals = static_cast<std::size_t>(min_intervals);
  config.periodicity.metric = metric == 1 ? timing::HistogramMetric::L1
                                          : timing::HistogramMetric::Jeffrey;
  config.bp_max_iterations = static_cast<std::size_t>(bp_iter);
  config.parallelism.threads = static_cast<std::size_t>(threads);
  config.parallelism.shards = static_cast<std::size_t>(shards);
  return true;
}

// ---- Sections 6/7: scored models ----

void encode_doubles(util::ByteWriter& out, const std::vector<double>& values) {
  out.varint(values.size());
  for (const double v : values) out.f64(v);
}

bool decode_doubles(util::ByteReader& in, std::vector<double>& out) {
  std::uint64_t count = 0;
  if (!in.varint(count)) return false;
  if (count > in.remaining() / 8) return false;
  out.clear();
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    double value = 0.0;
    if (!in.f64(value)) return false;
    out.push_back(value);
  }
  return true;
}

std::string encode_model_section(const core::ScoredModel& model) {
  util::ByteWriter out;
  out.f64(model.threshold);
  out.f64(model.score_offset);
  out.f64(model.score_scale);
  out.f64(model.model.intercept);
  out.f64(model.model.intercept_std_error);
  out.f64(model.model.r_squared);
  out.f64(model.model.residual_variance);
  out.varint(model.model.n_samples);
  encode_doubles(out, model.model.weights);
  encode_doubles(out, model.model.std_errors);
  encode_doubles(out, model.model.t_stats);
  encode_doubles(out, model.scaler.mins());
  encode_doubles(out, model.scaler.maxs());
  return out.take();
}

bool decode_model_section(std::string_view payload, const char* what,
                          core::ScoredModel& model, LoadStatus* status) {
  util::ByteReader in(payload);
  std::uint64_t n_samples = 0;
  std::vector<double> mins;
  std::vector<double> maxs;
  if (!in.f64(model.threshold) || !in.f64(model.score_offset) ||
      !in.f64(model.score_scale) || !in.f64(model.model.intercept) ||
      !in.f64(model.model.intercept_std_error) ||
      !in.f64(model.model.r_squared) || !in.f64(model.model.residual_variance) ||
      !in.varint(n_samples) || !decode_doubles(in, model.model.weights) ||
      !decode_doubles(in, model.model.std_errors) ||
      !decode_doubles(in, model.model.t_stats) || !decode_doubles(in, mins) ||
      !decode_doubles(in, maxs) || !in.at_end()) {
    set_status(status, LoadError::Truncated,
               std::string(what) + ": section cut short");
    return false;
  }
  // A model must be able to score: a zero scale divides by zero, and the
  // scaler bounds must cover every weight.
  if (model.score_scale == 0.0 || mins.size() != maxs.size() ||
      mins.size() != model.model.weights.size()) {
    set_status(status, LoadError::Malformed,
               std::string(what) + ": inconsistent model dimensions");
    return false;
  }
  model.model.n_samples = static_cast<std::size_t>(n_samples);
  model.scaler.restore(std::move(mins), std::move(maxs));
  return true;
}

// ---- Sections 8 and 10: training stats, counters ----

std::string encode_training_section(const TrainingStats& training) {
  util::ByteWriter out;
  out.f64(training.whois_age_sum);
  out.f64(training.whois_validity_sum);
  out.varint(training.whois_samples);
  out.u8(training.models_ready ? 1 : 0);
  return out.take();
}

bool decode_training_section(std::string_view payload, TrainingStats& training,
                             LoadStatus* status) {
  util::ByteReader in(payload);
  std::uint8_t ready = 0;
  if (!in.f64(training.whois_age_sum) || !in.f64(training.whois_validity_sum) ||
      !in.varint(training.whois_samples) || !in.u8(ready) || !in.at_end()) {
    set_status(status, LoadError::Truncated, "training stats: section cut short");
    return false;
  }
  if (ready > 1) {
    set_status(status, LoadError::Malformed,
               "training stats: bad models-ready flag");
    return false;
  }
  training.models_ready = ready == 1;
  return true;
}

std::string encode_counters_section(const Counters& counters) {
  util::ByteWriter out;
  out.varint(counters.days_operated);
  return out.take();
}

bool decode_counters_section(std::string_view payload, Counters& counters,
                             LoadStatus* status) {
  util::ByteReader in(payload);
  if (!in.varint(counters.days_operated) || !in.at_end()) {
    set_status(status, LoadError::Truncated, "counters: section cut short");
    return false;
  }
  return true;
}

// ---- Section 11: unfinalized training rows (mid-training crash resume) ----

void encode_matrix(util::ByteWriter& out, std::uint64_t cols,
                   const std::vector<double>& values,
                   const std::vector<double>& labels) {
  out.varint(cols);
  out.varint(labels.size());
  for (const double v : values) out.f64(v);
  for (const double v : labels) out.f64(v);
}

bool decode_matrix(util::ByteReader& in, const char* what, std::uint64_t& cols,
                   std::vector<double>& values, std::vector<double>& labels,
                   LoadStatus* status) {
  std::uint64_t rows = 0;
  if (!in.varint(cols) || !in.varint(rows)) {
    set_status(status, LoadError::Truncated,
               std::string("training rows: ") + what + " header cut short");
    return false;
  }
  // 8 bytes per f64, (cols + 1) f64s per row: a corrupt header cannot
  // force a huge allocation past this bound.
  if (cols > 64 || rows > in.remaining() / 8 / (cols + 1)) {
    set_status(status, LoadError::Malformed,
               std::string("training rows: ") + what + " dimensions too large");
    return false;
  }
  values.clear();
  values.reserve(static_cast<std::size_t>(rows * cols));
  labels.clear();
  labels.reserve(static_cast<std::size_t>(rows));
  for (std::uint64_t i = 0; i < rows * cols; ++i) {
    double v = 0.0;
    if (!in.f64(v)) {
      set_status(status, LoadError::Truncated,
                 std::string("training rows: ") + what + " values cut short");
      return false;
    }
    values.push_back(v);
  }
  for (std::uint64_t i = 0; i < rows; ++i) {
    double v = 0.0;
    if (!in.f64(v)) {
      set_status(status, LoadError::Truncated,
                 std::string("training rows: ") + what + " labels cut short");
      return false;
    }
    labels.push_back(v);
  }
  return true;
}

std::string encode_training_rows_section(const TrainingRows& rows) {
  util::ByteWriter out;
  out.reserve((rows.cc.size() + rows.cc_labels.size() + rows.sim.size() +
               rows.sim_labels.size()) *
                  8 +
              40);
  encode_matrix(out, rows.cc_cols, rows.cc, rows.cc_labels);
  encode_matrix(out, rows.sim_cols, rows.sim, rows.sim_labels);
  return out.take();
}

bool decode_training_rows_section(std::string_view payload, TrainingRows& rows,
                                  LoadStatus* status) {
  util::ByteReader in(payload);
  if (!decode_matrix(in, "c&c", rows.cc_cols, rows.cc, rows.cc_labels,
                     status) ||
      !decode_matrix(in, "similarity", rows.sim_cols, rows.sim,
                     rows.sim_labels, status)) {
    return false;
  }
  if (!in.at_end()) {
    set_status(status, LoadError::Malformed,
               "training rows: trailing bytes after the last matrix");
    return false;
  }
  return true;
}

// ---- Frame-only sections: 20 delta header, 12 rt cursor, 13 incidents ----

std::string encode_header_section(const DeltaHeader& header) {
  util::ByteWriter out;
  out.u32le(header.base_crc);
  out.varint(header.seq);
  out.varint(static_cast<std::uint64_t>(header.day));
  return out.take();
}

bool decode_header_section(std::string_view payload, DeltaHeader& header,
                           LoadStatus* status) {
  util::ByteReader in(payload);
  std::uint64_t day = 0;
  if (!in.u32le(header.base_crc) || !in.varint(header.seq) ||
      !in.varint(day) || !in.at_end()) {
    set_status(status, LoadError::Truncated, "delta header: cut short");
    return false;
  }
  if (header.seq == 0) {
    set_status(status, LoadError::Malformed, "delta header: zero seq");
    return false;
  }
  header.day = static_cast<std::int64_t>(day);
  return true;
}

std::string encode_cursor_section(const FrameView& frame) {
  util::ByteWriter out;
  out.varint(static_cast<std::uint64_t>(frame.cursor_day));
  out.varint(frame.cursor_offset);
  return out.take();
}

bool decode_cursor_section(std::string_view payload, DeltaFrame& frame,
                           LoadStatus* status) {
  util::ByteReader in(payload);
  std::uint64_t day = 0;
  if (!in.varint(day) || !in.varint(frame.cursor_offset) || !in.at_end()) {
    set_status(status, LoadError::Truncated, "rt cursor: cut short");
    return false;
  }
  frame.cursor_day = static_cast<std::int64_t>(day);
  frame.has_cursor = true;
  return true;
}

/// One incident's domain and host tickets.
struct IncidentTickets {
  TicketRange domains;
  TicketRange hosts;
};

std::string encode_incidents_section(
    int next_id, const std::vector<core::Incident>& incidents,
    const std::vector<IncidentTickets>& tickets, const TableBuilder& strings) {
  util::ByteWriter out;
  out.varint(static_cast<std::uint64_t>(next_id));
  out.varint(incidents.size());
  for (std::size_t i = 0; i < incidents.size(); ++i) {
    const core::Incident& incident = incidents[i];
    out.varint(static_cast<std::uint64_t>(incident.id));
    out.varint(static_cast<std::uint64_t>(incident.first_seen));
    out.varint(static_cast<std::uint64_t>(incident.last_seen));
    out.varint(incident.days_active);
    out.varint(static_cast<std::uint64_t>(incident.first_evidence));
    out.varint(static_cast<std::uint64_t>(incident.last_evidence));
    encode_string_set(out, strings, tickets[i].domains);
    encode_string_set(out, strings, tickets[i].hosts);
  }
  return out.take();
}

bool decode_incidents_section(std::string_view payload,
                              const DecodedTable& table, DeltaFrame& frame,
                              LoadStatus* status) {
  util::ByteReader in(payload);
  std::uint64_t next_id = 0;
  std::uint64_t count = 0;
  if (!in.varint(next_id) || !in.varint(count)) {
    set_status(status, LoadError::Truncated, "incidents: header cut short");
    return false;
  }
  if (next_id > (1u << 30) || count > in.remaining()) {
    set_status(status, LoadError::Malformed, "incidents: counts too large");
    return false;
  }
  frame.incidents_next_id = static_cast<int>(next_id);
  frame.incidents.reserve(static_cast<std::size_t>(count));
  std::vector<std::uint64_t> ids;
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto bad = [&](const char* what) {
      set_status(status, LoadError::Malformed,
                 "incidents: entry " + std::to_string(i) + ": " + what);
      return false;
    };
    std::uint64_t id = 0;
    std::uint64_t first_seen = 0;
    std::uint64_t last_seen = 0;
    std::uint64_t days_active = 0;
    std::uint64_t first_evidence = 0;
    std::uint64_t last_evidence = 0;
    if (!in.varint(id) || !in.varint(first_seen) || !in.varint(last_seen) ||
        !in.varint(days_active) || !in.varint(first_evidence) ||
        !in.varint(last_evidence)) {
      return bad("cut short");
    }
    if (id >= next_id) return bad("id at or past next_id");
    core::Incident incident;
    incident.id = static_cast<int>(id);
    incident.first_seen = static_cast<util::Day>(first_seen);
    incident.last_seen = static_cast<util::Day>(last_seen);
    incident.days_active = static_cast<std::size_t>(days_active);
    incident.first_evidence = static_cast<util::TimePoint>(first_evidence);
    incident.last_evidence = static_cast<util::TimePoint>(last_evidence);
    if (!decode_string_set(in, table, ids)) return bad("bad domain id sequence");
    for (const std::uint64_t d : ids) incident.domains.emplace(table.view(d));
    if (!decode_string_set(in, table, ids)) return bad("bad host id sequence");
    for (const std::uint64_t h : ids) incident.hosts.emplace(table.view(h));
    frame.incidents.push_back(std::move(incident));
  }
  if (!in.at_end()) {
    set_status(status, LoadError::Malformed,
               "incidents: trailing bytes after the last entry");
    return false;
  }
  frame.has_incidents = true;
  return true;
}

// ---- The one decoder ----

/// Decode every section of one container into `out`: a full checkpoint
/// (`is_frame` false) or a delta frame (header required, cursor and
/// incidents decoded).
bool decode_sections(std::string_view bytes, bool is_frame, DeltaFrame& out,
                     LoadStatus* status) {
  const auto reader = ContainerReader::parse(bytes, status);
  if (!reader) return false;
  for (const Section& section : reader->sections()) {
    if (section.id == kRetiredDomainDelta || section.id == kRetiredUaDelta) {
      set_status(status, LoadError::UnsupportedVersion,
                 "retired delta-frame layout (sections 21/22); compact the "
                 "chain with the release that wrote it");
      return false;
    }
  }
  const Section* header = reader->find(SectionId::DeltaHeader);
  if (is_frame && header == nullptr) {
    set_status(status, LoadError::MissingSection,
               "delta header section missing");
    return false;
  }
  if (!is_frame && header != nullptr) {
    set_status(status, LoadError::Malformed,
               "a delta frame, not a full checkpoint");
    return false;
  }
  bool missing = false;
  const auto require = [&](SectionId id, const char* what) {
    const Section* section = reader->find(id);
    if (section == nullptr && !missing) {
      missing = true;
      set_status(status, LoadError::MissingSection,
                 std::string(what) + " section missing");
    }
    return section;
  };
  const Section* strings = require(SectionId::StringTable, "string table");
  const Section* config = require(SectionId::Config, "config");
  const Section* domains = require(SectionId::DomainHistory, "domain history");
  const Section* uas = require(SectionId::UaHistory, "ua history");
  const Section* cc = require(SectionId::CcModel, "c&c model");
  const Section* sim = require(SectionId::SimModel, "similarity model");
  const Section* training =
      require(SectionId::TrainingStats, "training stats");
  const Section* counters = require(SectionId::Counters, "counters");
  if (missing) return false;

  DecodedTable table;
  DetectorState& state = out.sections;
  if (!decode_string_table(strings->payload, table, status) ||
      (is_frame && !decode_header_section(header->payload, out.header, status)) ||
      !decode_config_section(config->payload, state.config, status) ||
      !decode_domain_section(domains->payload, table, state.domain_history,
                             status) ||
      !decode_ua_section(uas->payload, table, state.ua_history, status) ||
      !decode_model_section(cc->payload, "c&c model", state.cc_model, status) ||
      !decode_model_section(sim->payload, "similarity model", state.sim_model,
                            status) ||
      !decode_training_section(training->payload, state.training, status) ||
      !decode_counters_section(counters->payload, state.counters, status)) {
    return false;
  }
  if (const Section* sites = reader->find(SectionId::TopSites)) {
    std::vector<std::string> names;
    if (!decode_string_set_section(sites->payload, table, "top sites", names,
                                   status)) {
      return false;
    }
    for (const std::string& name : names) state.top_sites.add(name);
    state.has_top_sites = true;
  }
  if (const Section* intel = reader->find(SectionId::Intel)) {
    if (!decode_string_set_section(intel->payload, table, "intel",
                                   state.intel_domains, status)) {
      return false;
    }
    out.has_intel = true;
  }
  if (const Section* rows = reader->find(SectionId::TrainingRows)) {
    if (!decode_training_rows_section(rows->payload, state.training_rows,
                                      status)) {
      return false;
    }
  }
  if (!is_frame) return true;
  if (const Section* cursor = reader->find(SectionId::RtCursor)) {
    if (!decode_cursor_section(cursor->payload, out, status)) return false;
  }
  if (const Section* incidents = reader->find(SectionId::Incidents)) {
    if (!decode_incidents_section(incidents->payload, table, out, status)) {
      return false;
    }
  }
  return true;
}

/// Append one frame's regression rows. An empty matrix takes the frame's
/// width, so a full checkpoint round-trips its rows section exactly.
void append_rows(std::uint64_t from_cols, const std::vector<double>& from,
                 const std::vector<double>& from_labels, std::uint64_t& cols,
                 std::vector<double>& values, std::vector<double>& labels) {
  if (labels.empty()) cols = from_cols;
  values.insert(values.end(), from.begin(), from.end());
  labels.insert(labels.end(), from_labels.begin(), from_labels.end());
}

struct StateMetrics {
  obs::Counter& saves = obs::metrics().counter("eid_state_saves_total");
  obs::Counter& loads = obs::metrics().counter("eid_state_loads_total");
  obs::Counter& saved_bytes =
      obs::metrics().counter("eid_state_saved_bytes_total");
  obs::Counter& loaded_bytes =
      obs::metrics().counter("eid_state_loaded_bytes_total");
  obs::Counter& delta_frames =
      obs::metrics().counter("eid_state_delta_frames_total");
  obs::Histogram& save_seconds = obs::metrics().histogram(
      "eid_state_save_seconds", obs::duration_buckets());
  obs::Histogram& delta_save_seconds = obs::metrics().histogram(
      "eid_state_delta_save_seconds", obs::duration_buckets());
};

StateMetrics& state_metrics() {
  static StateMetrics metrics;
  return metrics;
}

}  // namespace

// ---- The one encoder ----

StateView view_of(const DetectorState& state) {
  StateView view;
  view.config = &state.config;
  view.domain_history = &state.domain_history;
  view.ua_history = &state.ua_history;
  view.top_sites = state.has_top_sites ? &state.top_sites : nullptr;
  view.cc_model = &state.cc_model;
  view.sim_model = &state.sim_model;
  view.training = state.training;
  view.intel_domains =
      state.intel_domains.empty() ? nullptr : &state.intel_domains;
  view.counters = state.counters;
  view.training_rows = &state.training_rows;
  return view;
}

std::string encode_state(const StateView& view, std::size_t n_threads,
                         util::Executor* executor) {
  const FrameView* frame = view.frame;
  std::vector<core::Incident> incidents;
  if (frame != nullptr && frame->incidents != nullptr) {
    incidents = frame->incidents->incidents();
  }

  // One table over every string the container references.
  TableBuilder strings;
  const TicketRange domains = add_domains(view, strings);
  UaEntries ua = add_ua_entries(view, strings);
  TicketRange top_sites;
  if (view.top_sites != nullptr) {
    top_sites = strings.add_all(view.top_sites->sites());
  }
  TicketRange intel;
  if (view.intel_domains != nullptr) {
    intel = strings.add_all(*view.intel_domains);
  }
  std::vector<IncidentTickets> incident_tickets;
  for (const core::Incident& incident : incidents) {
    incident_tickets.push_back(
        {strings.add_all(incident.domains), strings.add_all(incident.hosts)});
  }
  strings.build();

  ContainerWriter writer;
  if (frame != nullptr) {
    writer.add_section(SectionId::DeltaHeader,
                       encode_header_section(frame->header));
  }
  writer.add_section(SectionId::StringTable,
                     encode_string_table(strings.table(), n_threads, executor));
  writer.add_section(SectionId::Config, encode_config_section(*view.config));
  writer.add_section(
      SectionId::DomainHistory,
      encode_domain_section(view.domain_history->days_ingested(), strings,
                            domains));
  writer.add_section(SectionId::UaHistory,
                     encode_ua_section(view.ua_history->rare_threshold(),
                                       std::move(ua), strings));
  if (view.top_sites != nullptr) {
    writer.add_section(SectionId::TopSites,
                       encode_string_set_section(strings, top_sites));
  }
  writer.add_section(SectionId::CcModel, encode_model_section(*view.cc_model));
  writer.add_section(SectionId::SimModel,
                     encode_model_section(*view.sim_model));
  writer.add_section(SectionId::TrainingStats,
                     encode_training_section(view.training));
  if (view.intel_domains != nullptr) {
    writer.add_section(SectionId::Intel,
                       encode_string_set_section(strings, intel));
  }
  writer.add_section(SectionId::Counters,
                     encode_counters_section(view.counters));
  if (view.training_rows != nullptr && !view.training_rows->empty()) {
    writer.add_section(SectionId::TrainingRows,
                       encode_training_rows_section(*view.training_rows));
  }
  if (frame != nullptr && frame->has_cursor) {
    writer.add_section(SectionId::RtCursor, encode_cursor_section(*frame));
  }
  if (frame != nullptr && frame->incidents != nullptr) {
    writer.add_section(
        SectionId::Incidents,
        encode_incidents_section(frame->incidents->next_id(), incidents,
                                 incident_tickets, strings));
  }
  return writer.encode();
}

// ---- Decoding and the one apply routine ----

std::optional<DetectorState> decode_detector_state(std::string_view bytes,
                                                   LoadStatus* status) {
  DeltaFrame frame;
  if (!decode_sections(bytes, false, frame, status)) return std::nullopt;
  DetectorState state;
  if (!apply_delta_frame(state, frame, status)) return std::nullopt;
  return state;
}

std::optional<DeltaFrame> decode_delta_frame(std::string_view payload,
                                             LoadStatus* status) {
  DeltaFrame frame;
  if (!decode_sections(payload, true, frame, status)) return std::nullopt;
  return frame;
}

bool apply_delta_frame(DetectorState& state, DeltaFrame& frame,
                       LoadStatus* status) {
  DetectorState& add = frame.sections;
  if (state.ua_history.distinct_uas() > 0 &&
      add.ua_history.rare_threshold() != state.ua_history.rare_threshold()) {
    set_status(status, LoadError::Malformed,
               "ua history: rare threshold differs from the state's");
    return false;
  }
  const TrainingRows& rows = add.training_rows;
  if ((!rows.cc_labels.empty() && rows.cc_cols != features::kCcFeatureCount) ||
      (!rows.sim_labels.empty() &&
       rows.sim_cols != features::kSimFeatureCount)) {
    set_status(status, LoadError::Malformed,
               "training rows: width does not match this build's feature "
               "count");
    return false;
  }

  state.config = add.config;
  state.domain_history.absorb(std::move(add.domain_history));
  state.ua_history.absorb(std::move(add.ua_history));
  if (add.has_top_sites) {
    state.top_sites = std::move(add.top_sites);
    state.has_top_sites = true;
  }
  state.cc_model = std::move(add.cc_model);
  state.sim_model = std::move(add.sim_model);
  state.training = add.training;
  state.counters = add.counters;
  if (frame.has_intel) state.intel_domains = std::move(add.intel_domains);
  TrainingRows& to = state.training_rows;
  append_rows(rows.cc_cols, rows.cc, rows.cc_labels, to.cc_cols, to.cc,
              to.cc_labels);
  append_rows(rows.sim_cols, rows.sim, rows.sim_labels, to.sim_cols, to.sim,
              to.sim_labels);
  if (state.training.models_ready) {
    // Once finalize_training() happened the rows will never be re-solved;
    // an uninterrupted run drops them, so a resumed one does too.
    state.training_rows = TrainingRows{};
  }
  return true;
}

// ---- Files ----

bool save_detector_state(const StateView& state,
                         const std::filesystem::path& path,
                         std::size_t n_threads, LoadStatus* status,
                         util::Executor* executor, std::uint32_t* crc) {
  StateMetrics& metrics = state_metrics();
  const bool frame = state.frame != nullptr;
  const obs::TraceSpan span(
      frame ? "state_delta_save" : "state_save",
      frame ? metrics.delta_save_seconds : metrics.save_seconds, "storage");
  const std::string bytes = encode_state(state, n_threads, executor);
  if (!(frame ? append_delta_frame(path, bytes, status)
              : write_file_atomic(path, bytes, status))) {
    return false;
  }
  (frame ? metrics.delta_frames : metrics.saves).add(1);
  metrics.saved_bytes.add(bytes.size());
  if (crc != nullptr) *crc = util::crc32(bytes);
  return true;
}

std::optional<DetectorState> load_detector_state(
    const std::filesystem::path& path, LoadStatus* status,
    std::uint32_t* crc) {
  const auto bytes = read_file(path, status);
  if (!bytes) return std::nullopt;
  auto state = decode_detector_state(*bytes, status);
  if (!state) return std::nullopt;
  StateMetrics& metrics = state_metrics();
  metrics.loads.add(1);
  metrics.loaded_bytes.add(bytes->size());
  if (crc != nullptr) *crc = util::crc32(*bytes);
  return state;
}

}  // namespace eid::storage
