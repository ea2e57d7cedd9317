#include "graph/day_graph.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/executor.h"

namespace eid::graph {

namespace {

struct IngestMetrics {
  obs::Counter& chunks = obs::metrics().counter("eid_ingest_chunks_total");
  obs::Counter& events = obs::metrics().counter("eid_ingest_events_total");
  obs::Histogram& seconds =
      obs::metrics().histogram("eid_ingest_seconds", obs::duration_buckets());
};

IngestMetrics& ingest_metrics() {
  static IngestMetrics metrics;
  return metrics;
}

}  // namespace

void DayShard::add_event(const logs::ConnEvent& event, std::uint64_t seq) {
  const util::InternId host = hosts_.intern(event.host, seq);
  const util::InternId domain = domains_.intern(event.domain, seq);
  const std::uint64_t key = edge_key(host, domain);
  const auto [slot, inserted] =
      edge_slot_.try_emplace(key, static_cast<std::uint32_t>(edges_.size()));
  if (inserted) {
    edges_.emplace_back();
    edge_keys_.push_back(key);
  }
  Edge& edge = edges_[slot->second];
  edge.times.push_back(event.ts);
  if (event.has_referer) edge.any_referer = true;
  if (event.has_http_context) {
    if (event.user_agent.empty()) {
      edge.any_empty_ua = true;
    } else {
      const UaId ua = uas_.intern(event.user_agent, seq);
      if (std::find(edge.user_agents.begin(), edge.user_agents.end(), ua) ==
          edge.user_agents.end()) {
        edge.user_agents.push_back(ua);
      }
    }
  }
  if (event.dest_ip) {
    if (ips_of_domain_.size() <= domain) ips_of_domain_.resize(domain + 1);
    auto& ips = ips_of_domain_[domain];
    const bool seen =
        std::any_of(ips.begin(), ips.end(),
                    [&](const IpSeen& s) { return s.ip == *event.dest_ip; });
    if (!seen) ips.push_back(IpSeen{*event.dest_ip, seq});
  }
}

void DayShard::sort_times() {
  for (Edge& edge : edges_) std::sort(edge.times.begin(), edge.times.end());
}

void DayShard::absorb(const DayShard& src, std::uint64_t seq_offset,
                      bool merge_sorted) {
  // Interner replay in local-id order is first-appearance order, so
  // repeats keep their earliest (already recorded) seq and fresh strings
  // get the offset slice seq — exactly the tags sequential ingest of the
  // concatenation would have assigned.
  const auto replay = [seq_offset](util::ShardInterner& dst,
                                   const util::ShardInterner& from) {
    std::vector<util::InternId> map(from.size());
    for (util::InternId id = 0; id < from.size(); ++id) {
      map[id] = dst.intern(from.name(id), from.first_seq(id) + seq_offset);
    }
    return map;
  };
  const std::vector<util::InternId> host_map = replay(hosts_, src.hosts_);
  const std::vector<util::InternId> domain_map = replay(domains_, src.domains_);
  const std::vector<util::InternId> ua_map = replay(uas_, src.uas_);

  // Visit src edges in slot (creation) order so edges new to this shard
  // take slots in concatenated first-appearance order, like add_event
  // would have.
  for (std::size_t src_slot = 0; src_slot < src.edge_keys_.size(); ++src_slot) {
    const std::uint64_t src_key = src.edge_keys_[src_slot];
    const util::InternId host = host_map[src_key >> 32];
    const util::InternId domain = domain_map[src_key & 0xffffffffu];
    const Edge& from = src.edges_[src_slot];
    const std::uint64_t key = edge_key(host, domain);
    const auto [slot, inserted] =
        edge_slot_.try_emplace(key, static_cast<std::uint32_t>(edges_.size()));
    if (inserted) {
      edges_.emplace_back();
      edge_keys_.push_back(key);
    }
    Edge& to = edges_[slot->second];
    const std::size_t old_times = to.times.size();
    to.times.insert(to.times.end(), from.times.begin(), from.times.end());
    if (merge_sorted) {
      std::inplace_merge(to.times.begin(),
                         to.times.begin() + static_cast<std::ptrdiff_t>(old_times),
                         to.times.end());
    }
    if (from.any_referer) to.any_referer = true;
    if (from.any_empty_ua) to.any_empty_ua = true;
    for (const UaId ua : from.user_agents) {
      const UaId mapped = ua_map[ua];
      if (std::find(to.user_agents.begin(), to.user_agents.end(), mapped) ==
          to.user_agents.end()) {
        to.user_agents.push_back(mapped);
      }
    }
  }

  // IP sets: first-seen dedup keeps this (earlier) side's entry; fresh
  // (domain, ip) pairs carry the offset slice seq into the finalize-time
  // earliest-appearance sort.
  for (std::size_t local = 0; local < src.ips_of_domain_.size(); ++local) {
    const auto& from_ips = src.ips_of_domain_[local];
    if (from_ips.empty()) continue;
    const util::InternId domain = domain_map[local];
    if (ips_of_domain_.size() <= domain) ips_of_domain_.resize(domain + 1);
    auto& to_ips = ips_of_domain_[domain];
    for (const IpSeen& seen : from_ips) {
      const bool dup =
          std::any_of(to_ips.begin(), to_ips.end(),
                      [&](const IpSeen& s) { return s.ip == seen.ip; });
      if (!dup) to_ips.push_back(IpSeen{seen.ip, seen.seq + seq_offset});
    }
  }
}

void DayGraph::add_event(const logs::ConnEvent& event) {
  // Loud, defined failure in every build type: the ingest shards were
  // consumed by finalize(), so silently dropping events here would
  // corrupt a detection day.
  if (finalized_) {
    assert(!finalized_ && "DayGraph::add_event after finalize()");
    std::abort();
  }
  times_sorted_ = false;
  shards_[shard_of(event.host)].add_event(event, seq_++);
}

void DayGraph::add_events(std::span<const logs::ConnEvent> events) {
  if (finalized_) {
    assert(!finalized_ && "DayGraph::add_events after finalize()");
    std::abort();
  }
  if (events.empty()) return;
  times_sorted_ = false;
  IngestMetrics& metrics = ingest_metrics();
  const obs::TraceSpan span("ingest_chunk", metrics.seconds, "ingest");
  metrics.chunks.add(1);
  metrics.events.add(events.size());
  // Small batches (and the one-shard case) dispatch directly — staging
  // plus fan-out only pays off once per-shard interning outweighs the
  // dispatch cost, from a couple thousand events per batch. Both paths
  // consume identical per-shard sequences, so results do not depend on
  // the cutoff.
  if (shards_.size() == 1 || events.size() < 2048) {
    for (const logs::ConnEvent& event : events) {
      shards_[shard_of(event.host)].add_event(event, seq_++);
    }
    return;
  }
  // Route first (sequential: one host hash + a pointer push per event),
  // then let every shard intern and aggregate its share concurrently —
  // shards are disjoint, so no locks. Per-shard arrival order and seq tags
  // are exactly those of the sequential loop, so the finalized graph is
  // bit-identical for any shard count or batch split.
  if (staged_.size() != shards_.size()) staged_.resize(shards_.size());
  for (auto& staged : staged_) staged.clear();
  for (const logs::ConnEvent& event : events) {
    staged_[shard_of(event.host)].push_back(Routed{&event, seq_++});
  }
  util::parallel_ranges(
      executor_.get(), shards_.size(), shards_.size(),
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t s = begin; s < end; ++s) {
          for (const Routed& routed : staged_[s]) {
            shards_[s].add_event(*routed.event, routed.seq);
          }
        }
      });
}

void DayGraph::absorb(const DayGraph& src) {
  if (finalized_ || src.finalized_) {
    assert(!finalized_ && !src.finalized_ && "DayGraph::absorb after finalize()");
    std::abort();
  }
  if (shards_.size() != src.shards_.size()) {
    // Host routing (hash % shard count) must agree, or an edge could land
    // in two shards and break the unique-key invariant of the merge.
    assert(shards_.size() == src.shards_.size() &&
           "DayGraph::absorb requires matching shard counts");
    std::abort();
  }
  const bool merge_sorted = times_sorted_ && src.times_sorted_;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].absorb(src.shards_[s], seq_, merge_sorted);
  }
  times_sorted_ = merge_sorted;
  seq_ += src.seq_;
}

void DayGraph::sort_edge_times() {
  if (finalized_) {
    assert(!finalized_ && "DayGraph::sort_edge_times after finalize()");
    std::abort();
  }
  if (times_sorted_) return;
  for (DayShard& shard : shards_) shard.sort_times();
  times_sorted_ = true;
}

std::size_t DayGraph::host_count() const {
  if (finalized_) return hosts_.size();
  std::size_t total = 0;
  for (const DayShard& shard : shards_) total += shard.host_count();
  return total;
}

std::size_t DayGraph::domain_count() const {
  if (finalized_) return domains_.size();
  // Pre-finalize upper bound: a domain contacted from hosts in several
  // shards is counted once per shard (hosts are exact — they live in
  // exactly one shard).
  std::size_t total = 0;
  for (const DayShard& shard : shards_) total += shard.domain_count();
  return total;
}

std::size_t DayGraph::edge_count() const {
  if (finalized_) return edge_data_.size();
  std::size_t total = 0;
  for (const DayShard& shard : shards_) total += shard.edge_count();
  return total;
}

void DayGraph::finalize(std::size_t n_threads) {
  if (finalized_) return;  // idempotent: the shards are already merged
  build_csr(*this, n_threads, /*consume=*/true, /*cache=*/nullptr);
  shards_.clear();
  shards_.shrink_to_fit();
  staged_.clear();  // holds pointers into caller-owned (freed) chunk spans
  staged_.shrink_to_fit();
}

DayGraph DayGraph::finalize_snapshot(std::size_t n_threads,
                                     SnapshotCache* cache) const {
  DayGraph out(1, executor_);
  finalize_snapshot_into(out, n_threads, cache);
  return out;
}

void DayGraph::finalize_snapshot_into(DayGraph& out, std::size_t n_threads,
                                      SnapshotCache* cache) const {
  if (finalized_ || &out == this) {
    assert(!finalized_ && "DayGraph::finalize_snapshot of a finalized graph");
    assert(&out != this && "finalize_snapshot_into must not alias the source");
    std::abort();
  }
  // Reset the recycled container to a clean un-finalized state; every
  // finalized field is (re)assigned by build_csr, element storage reused.
  out.finalized_ = false;
  out.shards_.clear();
  out.staged_.clear();
  out.seq_ = 0;
  out.executor_ = executor_;
  build_csr(out, n_threads, /*consume=*/false, cache);
}

void DayGraph::build_csr(DayGraph& out, std::size_t n_threads, bool consume,
                         SnapshotCache* cache) const {
  assert(!consume || &out == this);
  // 1. Merge the shard interners into global id spaces. Ordering by global
  // first appearance makes every id identical to a sequential build.
  std::vector<const util::ShardInterner*> host_shards;
  std::vector<const util::ShardInterner*> domain_shards;
  std::vector<const util::ShardInterner*> ua_shards;
  host_shards.reserve(shards_.size());
  domain_shards.reserve(shards_.size());
  ua_shards.reserve(shards_.size());
  for (const DayShard& shard : shards_) {
    host_shards.push_back(&shard.hosts_);
    domain_shards.push_back(&shard.domains_);
    ua_shards.push_back(&shard.uas_);
  }
  util::InternerMerge hosts = util::merge_interners(host_shards);
  util::InternerMerge domains = util::merge_interners(domain_shards);
  util::InternerMerge uas = util::merge_interners(ua_shards);

  // 2. Stage every edge under its global (host, domain) key and order by
  // key. Host-hash routing puts each pair in exactly one shard, so keys
  // are unique and the sort is a total order. Edge slots are visited in
  // creation order via the shard's slot -> key table, which lets a
  // SnapshotCache pick up exactly where the previous snapshot stopped:
  // only slots past its per-shard high-water mark are staged and sorted,
  // then merged with the cached (already sorted, still id-exact — see the
  // cache contract) bulk of the window.
  const auto key_less = [](const StagedEdge& a, const StagedEdge& b) {
    return a.key < b.key;
  };
  const auto stage_shard = [&](std::uint32_t s, std::size_t first_slot,
                               std::vector<StagedEdge>& into) {
    const DayShard& shard = shards_[s];
    for (std::size_t slot = first_slot; slot < shard.edge_keys_.size();
         ++slot) {
      const std::uint64_t local = shard.edge_keys_[slot];
      const HostId host = hosts.to_global[s][local >> 32];
      const DomainId domain = domains.to_global[s][local & 0xffffffffu];
      into.push_back(StagedEdge{DayShard::edge_key(host, domain), s,
                                static_cast<std::uint32_t>(slot)});
    }
  };
  std::size_t n_edges = 0;
  for (const DayShard& shard : shards_) n_edges += shard.edges_.size();
  std::vector<StagedEdge> staged_local;
  const std::vector<StagedEdge>* staged_ptr = &staged_local;
  if (cache != nullptr) {
    if (cache->slots_done_.size() != shards_.size()) {
      cache->slots_done_.assign(shards_.size(), 0);
      cache->staged_.clear();
    }
    std::vector<StagedEdge> fresh;
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
      stage_shard(s, cache->slots_done_[s], fresh);
      cache->slots_done_[s] = shards_[s].edge_keys_.size();
    }
    if (!fresh.empty()) {
      std::sort(fresh.begin(), fresh.end(), key_less);
      std::vector<StagedEdge> merged;
      merged.reserve(cache->staged_.size() + fresh.size());
      std::merge(cache->staged_.begin(), cache->staged_.end(), fresh.begin(),
                 fresh.end(), std::back_inserter(merged), key_less);
      cache->staged_ = std::move(merged);
    }
    assert(cache->staged_.size() == n_edges &&
           "stale SnapshotCache: graph shrank or was replaced");
    staged_ptr = &cache->staged_;
  } else {
    staged_local.reserve(n_edges);
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
      stage_shard(s, 0, staged_local);
    }
    std::sort(staged_local.begin(), staged_local.end(), key_less);
  }
  const std::vector<StagedEdge>& staged = *staged_ptr;

  // 3. CSR forward layout: per-host offset rows over flat edge_index_ /
  // edge_data_. The per-edge work (timestamp sort, UA id remap) is the
  // finalize hot loop; it parallelizes over contiguous edge ranges with
  // results written into per-edge slots, so any thread count produces the
  // same arrays. The consuming path moves each edge's payload out of its
  // shard; a snapshot copies, leaving the shards reusable. Pre-sorted
  // times (sealed partials keep them sorted through absorbs) skip the
  // sort — a sorted int64 sequence is unique, so the bytes are identical.
  out.host_offsets_.assign(hosts.interner.size() + 1, 0);
  for (const StagedEdge& st : staged) ++out.host_offsets_[(st.key >> 32) + 1];
  for (std::size_t h = 1; h < out.host_offsets_.size(); ++h) {
    out.host_offsets_[h] += out.host_offsets_[h - 1];
  }
  out.edge_index_.resize(n_edges);
  out.edge_data_.resize(n_edges);
  const bool sorted = times_sorted_;
  util::parallel_ranges(
      executor_.get(), n_edges, n_threads,
      [&, consume, sorted](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const StagedEdge& st = staged[i];
          const DayShard::Edge& src = shards_[st.shard].edges_[st.slot];
          EdgeData& dst = out.edge_data_[i];
          out.edge_index_[i] = static_cast<DomainId>(st.key & 0xffffffffu);
          if (consume) {
            dst.times = std::move(
                const_cast<DayShard::Edge&>(src).times);
          } else {
            dst.times = src.times;
          }
          if (sorted) {
            assert(std::is_sorted(dst.times.begin(), dst.times.end()));
          } else {
            std::sort(dst.times.begin(), dst.times.end());
          }
          dst.user_agents.clear();  // `out` may be a recycled snapshot
          dst.user_agents.reserve(src.user_agents.size());
          for (const UaId ua : src.user_agents) {
            dst.user_agents.push_back(uas.to_global[st.shard][ua]);
          }
          dst.any_referer = src.any_referer;
          dst.any_empty_ua = src.any_empty_ua;
        }
      });

  // 4. Reverse CSR (dom_host of Algorithm 1) by counting sort; scanning
  // edges in (host, domain) order emits each domain's hosts ascending.
  out.domain_offsets_.assign(domains.interner.size() + 1, 0);
  for (const DomainId domain : out.edge_index_) ++out.domain_offsets_[domain + 1];
  for (std::size_t d = 1; d < out.domain_offsets_.size(); ++d) {
    out.domain_offsets_[d] += out.domain_offsets_[d - 1];
  }
  out.domain_hosts_.resize(n_edges);
  std::vector<std::uint32_t> cursor(out.domain_offsets_.begin(),
                                    out.domain_offsets_.end() - 1);
  for (std::size_t h = 0; h + 1 < out.host_offsets_.size(); ++h) {
    for (std::uint32_t e = out.host_offsets_[h]; e < out.host_offsets_[h + 1];
         ++e) {
      out.domain_hosts_[cursor[out.edge_index_[e]]++] = static_cast<HostId>(h);
    }
  }

  // 5. Distinct destination IPs per domain: union the shard-local sets by
  // earliest appearance, reproducing the sequential first-seen dedup order.
  std::vector<std::vector<DayShard::IpSeen>> merged_ips(domains.interner.size());
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    const DayShard& shard = shards_[s];
    for (std::size_t local = 0; local < shard.ips_of_domain_.size(); ++local) {
      if (shard.ips_of_domain_[local].empty()) continue;
      auto& bucket = merged_ips[domains.to_global[s][local]];
      bucket.insert(bucket.end(), shard.ips_of_domain_[local].begin(),
                    shard.ips_of_domain_[local].end());
    }
  }
  out.ip_offsets_.assign(domains.interner.size() + 1, 0);
  out.domain_ips_.clear();
  for (std::size_t d = 0; d < merged_ips.size(); ++d) {
    auto& bucket = merged_ips[d];
    std::sort(bucket.begin(), bucket.end(),
              [](const DayShard::IpSeen& a, const DayShard::IpSeen& b) {
                return a.seq < b.seq;
              });
    const std::size_t row_begin = out.domain_ips_.size();
    for (const DayShard::IpSeen& seen : bucket) {
      const auto first =
          out.domain_ips_.begin() + static_cast<std::ptrdiff_t>(row_begin);
      if (std::find(first, out.domain_ips_.end(), seen.ip) ==
          out.domain_ips_.end()) {
        out.domain_ips_.push_back(seen.ip);
      }
    }
    out.ip_offsets_[d + 1] = static_cast<std::uint32_t>(out.domain_ips_.size());
  }

  // 6. Install the merged interners. The consuming caller (finalize)
  // releases the ingest shards afterwards; a snapshot leaves them intact.
  out.hosts_ = std::move(hosts.interner);
  out.domains_ = std::move(domains.interner);
  out.uas_ = std::move(uas.interner);
  out.finalized_ = true;
}

// Row guards compare against size() - 1 (offsets hold count + 1 entries):
// an id + 1 form would wrap for kNoId and index out of bounds. The
// asserts keep the misuse contract consistent with name()/find(): a query
// before finalize() fails loudly in debug builds rather than reading as a
// plausible empty day.
std::span<const HostId> DayGraph::domain_hosts(DomainId domain) const {
  assert(finalized_);
  if (domain_offsets_.size() <= 1 || domain >= domain_offsets_.size() - 1) {
    return {};
  }
  return {domain_hosts_.data() + domain_offsets_[domain],
          domain_offsets_[domain + 1] - domain_offsets_[domain]};
}

std::span<const DomainId> DayGraph::host_domains(HostId host) const {
  assert(finalized_);
  if (host_offsets_.size() <= 1 || host >= host_offsets_.size() - 1) return {};
  return {edge_index_.data() + host_offsets_[host],
          host_offsets_[host + 1] - host_offsets_[host]};
}

const EdgeData* DayGraph::edge(HostId host, DomainId domain) const {
  assert(finalized_);
  if (host_offsets_.size() <= 1 || host >= host_offsets_.size() - 1) {
    return nullptr;
  }
  const auto row_begin = edge_index_.begin() + host_offsets_[host];
  const auto row_end = edge_index_.begin() + host_offsets_[host + 1];
  const auto it = std::lower_bound(row_begin, row_end, domain);
  if (it == row_end || *it != domain) return nullptr;
  return &edge_data_[static_cast<std::size_t>(it - edge_index_.begin())];
}

std::optional<util::TimePoint> DayGraph::first_contact(HostId host,
                                                       DomainId domain) const {
  const EdgeData* e = edge(host, domain);
  if (e == nullptr || e->times.empty()) return std::nullopt;
  return e->times.front();
}

std::span<const util::Ipv4> DayGraph::domain_ips(DomainId domain) const {
  assert(finalized_);
  if (ip_offsets_.size() <= 1 || domain >= ip_offsets_.size() - 1) return {};
  return {domain_ips_.data() + ip_offsets_[domain],
          ip_offsets_[domain + 1] - ip_offsets_[domain]};
}

}  // namespace eid::graph
