// The host <-> domain bipartite graph for one observation window (one day,
// §III-C), engineered for enterprise volume. Ingestion is sharded: events
// route by host hash into independent shard builders (one caller thread,
// no locks anywhere), each shard interning locally and tagging first
// appearances with the global arrival sequence. finalize() merges the
// shards and lays the graph out as CSR (compressed sparse row): flat
// edge_index_ / edge_data_ arrays with per-node offset spans replace the
// old hash-table edge map and vector-of-vector adjacency, so day analysis
// streams cache-friendly arrays. The finalized graph — every id, span and
// edge — is bit-identical for any (shard count, thread count), because the
// merge orders ids by global first appearance exactly like a sequential
// build. Each edge stores the connection timestamps and the HTTP context
// aggregates the feature layer needs (referer presence, user-agent set).
// The belief propagation algorithm consumes this structure through the
// dom_host / host_rdom views named in Algorithm 1 of the paper.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "logs/records.h"
#include "util/interner.h"
#include "util/ipv4.h"
#include "util/time.h"

namespace eid::util {
class Executor;
}

namespace eid::graph {

using HostId = util::InternId;
using DomainId = util::InternId;
using UaId = util::InternId;

inline constexpr util::InternId kNoId = util::kInvalidInternId;

/// Aggregated state of one (host, domain) edge.
struct EdgeData {
  std::vector<util::TimePoint> times;  ///< sorted after finalize()
  std::vector<UaId> user_agents;       ///< distinct UAs on this edge
  bool any_referer = false;            ///< any request carried a referer
  bool any_empty_ua = false;           ///< any request carried no UA
};

/// One ingest shard: aggregates the events of the hosts routed to it by
/// the DayGraph (host-hash routing, so a (host, domain) edge lives in
/// exactly one shard). Interning is shard-local; global first-appearance
/// sequence tags make the merge reproduce sequential ids bit for bit.
class DayShard {
 public:
  void add_event(const logs::ConnEvent& event, std::uint64_t seq);

  /// Merge another shard built from a *later* slice of the same stream
  /// into this one, as if the slice's events had been replayed here one by
  /// one: `seq_offset` (this builder's event count before the slice) lifts
  /// the slice-local sequence tags into the concatenated stream's
  /// positions. Replays interner entries in local-id (= first-appearance)
  /// order and edges in creation order, so the resulting state — ids,
  /// edge slots, time/UA/IP order — is exactly what a sequential build of
  /// the concatenation leaves. With `merge_sorted`, both sides' per-edge
  /// times are already sorted and are merged in place (stays sorted).
  void absorb(const DayShard& src, std::uint64_t seq_offset, bool merge_sorted);

  /// Sort every edge's timestamps in place (seal step of a cached
  /// partial); lets later absorbs merge instead of re-sort.
  void sort_times();

  std::size_t host_count() const { return hosts_.size(); }
  std::size_t domain_count() const { return domains_.size(); }
  std::size_t edge_count() const { return edges_.size(); }

 private:
  friend class DayGraph;

  struct Edge {
    std::vector<util::TimePoint> times;
    std::vector<UaId> user_agents;  ///< shard-local ua ids
    bool any_referer = false;
    bool any_empty_ua = false;
  };
  struct IpSeen {
    util::Ipv4 ip;
    std::uint64_t seq = 0;  ///< global first appearance of this (domain, ip)
  };

  static std::uint64_t edge_key(util::InternId host, util::InternId domain) {
    return (static_cast<std::uint64_t>(host) << 32) | domain;
  }

  util::ShardInterner hosts_;
  util::ShardInterner domains_;
  util::ShardInterner uas_;
  std::unordered_map<std::uint64_t, std::uint32_t> edge_slot_;  ///< key -> index
  std::vector<std::uint64_t> edge_keys_;  ///< slot -> key (creation order)
  std::vector<Edge> edges_;
  std::vector<std::vector<IpSeen>> ips_of_domain_;  ///< by local domain id
};

/// Build by streaming a day of reduced ConnEvents, then call finalize().
/// Construct with n_shards > 1 to split ingestion across independent
/// shard builders — a pure performance knob; the finalized graph is
/// bit-identical for any shard count.
class DayGraph {
 public:
  DayGraph() : DayGraph(1) {}
  /// `executor` (optional) carries the sharded ingest and finalize
  /// fan-outs on a persistent worker pool; without one they run inline.
  /// core::Pipeline::begin_day wires its own pool through here. Results
  /// are identical either way.
  explicit DayGraph(std::size_t n_shards,
                    std::shared_ptr<util::Executor> executor = nullptr)
      : shards_(n_shards == 0 ? 1 : n_shards),
        executor_(std::move(executor)) {}

  /// Ingest one event. Events may arrive in any order. Must not be called
  /// after finalize() — the ingest shards are consumed by the merge, so
  /// this aborts (in every build type) rather than drop events.
  void add_event(const logs::ConnEvent& event);

  /// Ingest a batch. With one shard this is a plain loop; with more, the
  /// batch is routed (cheap pointer staging, sequential) and then all
  /// shard builders intern/aggregate their share in parallel — the
  /// expensive per-event work — with a barrier before returning, so
  /// `events` only needs to outlive the call. Identical result to
  /// add_event in a loop for any shard count or batch split; same
  /// abort-after-finalize contract.
  void add_events(std::span<const logs::ConnEvent> events);

  /// Merge another un-finalized graph — built with the *same shard count*
  /// from a later slice of the same event stream — into this one, without
  /// touching the slice's raw events again. Equivalent, bit for bit after
  /// finalize, to replaying the slice's events here in order: per-shard
  /// interner/edge/IP state is replayed with sequence tags offset by this
  /// graph's event count (only the *order* of first-appearance tags feeds
  /// the deterministic merge, so offsets are exact). This is the rt
  /// engine's incremental window merge: sealed per-bucket partials absorb
  /// in O(bucket state), never O(window events).
  void absorb(const DayGraph& src);

  /// Pre-sort every edge's timestamps (partial seal). finalize() and
  /// absorb() then merge/skip instead of re-sorting; add_event after this
  /// clears the property.
  void sort_edge_times();

  /// Events ingested so far (absorbed graphs included).
  std::uint64_t ingested_events() const { return seq_; }

  /// Merge the ingest shards, sort edge timestamps and build the CSR
  /// views; n_threads parallelizes the per-edge work (timestamp sorting,
  /// UA remapping) over contiguous edge ranges. Call after the last
  /// add_event (idempotent: repeat calls are no-ops). All queries below
  /// require a finalized graph.
  void finalize(std::size_t n_threads = 1);

  class SnapshotCache;

  /// Non-consuming finalize: build and return the finalized CSR graph this
  /// graph would become, leaving the ingest shards intact so absorbing and
  /// snapshotting can continue (the rt engine snapshots its running window
  /// merge every tick). The returned graph is bit-identical to calling
  /// finalize() on a copy. An optional SnapshotCache makes repeated
  /// snapshots of a growing graph incremental — see its contract.
  DayGraph finalize_snapshot(std::size_t n_threads = 1,
                             SnapshotCache* cache = nullptr) const;

  /// finalize_snapshot writing into a caller-kept graph instead of a fresh
  /// one, recycling `out`'s existing allocations (per-edge time/UA vectors,
  /// offset rows) across repeated snapshots — the rt engine hands each
  /// tick's consumed snapshot back as the next tick's `out`, turning the
  /// per-edge copy step from malloc-bound into memcpy-bound. Any previous
  /// content of `out` is discarded; the result is bit-identical to
  /// finalize_snapshot(). `out` must not alias this graph.
  void finalize_snapshot_into(DayGraph& out, std::size_t n_threads = 1,
                              SnapshotCache* cache = nullptr) const;

  bool finalized() const { return finalized_; }

  /// Counts are exact after finalize(). Before it, host/edge counts are
  /// exact (a host and its edges live in exactly one shard) while
  /// domain_count is an upper bound (a domain may span shards).
  std::size_t host_count() const;
  std::size_t domain_count() const;
  std::size_t edge_count() const;

  /// Names and id lookups require a finalized graph (ids live in the
  /// merged interners); debug builds assert, matching the ingest-side
  /// abort contract.
  const std::string& host_name(HostId id) const {
    assert(finalized_);
    return hosts_.name(id);
  }
  const std::string& domain_name(DomainId id) const {
    assert(finalized_);
    return domains_.name(id);
  }
  const std::string& ua_name(UaId id) const {
    assert(finalized_);
    return uas_.name(id);
  }

  /// Id lookups; kNoId when the name never appeared this day.
  HostId find_host(std::string_view name) const {
    assert(finalized_);
    return hosts_.find(name);
  }
  DomainId find_domain(std::string_view name) const {
    assert(finalized_);
    return domains_.find(name);
  }

  /// dom_host mapping of Algorithm 1: hosts contacting the domain,
  /// ascending host id.
  std::span<const HostId> domain_hosts(DomainId domain) const;

  /// All domains a host contacted this day, ascending domain id.
  std::span<const DomainId> host_domains(HostId host) const;

  /// Edge data; nullptr when the pair never connected.
  const EdgeData* edge(HostId host, DomainId domain) const;

  /// First connection timestamp of the pair; nullopt when no edge.
  std::optional<util::TimePoint> first_contact(HostId host, DomainId domain) const;

  /// Distinct destination IPs observed for the domain, in order of first
  /// appearance in the event stream.
  std::span<const util::Ipv4> domain_ips(DomainId domain) const;

  /// Visit every (host, domain, edge) triple: fn(HostId, DomainId,
  /// const EdgeData&). Iteration is in ascending (host id, domain id)
  /// order — deterministic and stable across shard/thread counts; call
  /// sites may rely on it (this replaced the old unspecified hash order).
  /// Requires a finalized graph, like every other query.
  template <typename Fn>
  void for_each_edge(Fn&& fn) const {
    assert(finalized_);
    for (std::size_t h = 0; h + 1 < host_offsets_.size(); ++h) {
      for (std::uint32_t e = host_offsets_[h]; e < host_offsets_[h + 1]; ++e) {
        fn(static_cast<HostId>(h), edge_index_[e], edge_data_[e]);
      }
    }
  }

 private:
  std::size_t shard_of(std::string_view host) const {
    return shards_.size() == 1
               ? 0
               : std::hash<std::string_view>{}(host) % shards_.size();
  }

  /// One edge staged for CSR layout: global (host, domain) key plus its
  /// (shard, slot) source location.
  struct StagedEdge {
    std::uint64_t key = 0;
    std::uint32_t shard = 0;
    std::uint32_t slot = 0;
  };

  /// Shared CSR construction behind finalize()/finalize_snapshot(): reads
  /// the ingest shards and installs the finalized state into `out` (which
  /// is *this for the consuming finalize — per-edge payloads are then
  /// moved rather than copied). `cache` (snapshot path only) skips
  /// re-staging edges already staged by a previous call.
  void build_csr(DayGraph& out, std::size_t n_threads, bool consume,
                 SnapshotCache* cache) const;

  // ---- ingest state (consumed by finalize) ----
  std::vector<DayShard> shards_;
  std::shared_ptr<util::Executor> executor_;  ///< nullptr = run fan-outs inline
  std::uint64_t seq_ = 0;  ///< global arrival counter
  bool times_sorted_ = true;  ///< every edge's times sorted (trivially, when empty)
  struct Routed {
    const logs::ConnEvent* event = nullptr;
    std::uint64_t seq = 0;
  };
  std::vector<std::vector<Routed>> staged_;  ///< add_events scratch, per shard

  // ---- finalized CSR state ----
  util::Interner hosts_;
  util::Interner domains_;
  util::Interner uas_;
  std::vector<std::uint32_t> host_offsets_;   ///< hosts + 1 row offsets
  std::vector<DomainId> edge_index_;          ///< flat, (host, domain) sorted
  std::vector<EdgeData> edge_data_;           ///< parallel to edge_index_
  std::vector<std::uint32_t> domain_offsets_; ///< domains + 1 row offsets
  std::vector<HostId> domain_hosts_;          ///< flat, ascending per domain
  std::vector<std::uint32_t> ip_offsets_;     ///< domains + 1 row offsets
  std::vector<util::Ipv4> domain_ips_;        ///< flat, first-appearance order
  bool finalized_ = false;
};

/// Scratch state that makes repeated finalize_snapshot() calls on one
/// *growing* graph incremental: the globally-keyed, sorted edge staging —
/// the dominant per-snapshot cost on large windows — is kept across calls,
/// so each snapshot stages and sorts only the edges added since the last
/// one and merges them into the cached order in O(total edges) flat copies.
///
/// Validity contract: reuse only with the same DayGraph object, and only
/// while it strictly grows between snapshots (add_event / add_events /
/// absorb — the rt window merge's extend path). Cached global keys stay
/// exact under growth because interner ids order by global first
/// appearance and new events carry strictly later sequence tags, so
/// already-assigned ids never move. After replacing or rebuilding the
/// graph, reset() (the rt window does this whenever it rebuilds its
/// running merge).
class DayGraph::SnapshotCache {
 public:
  void reset() {
    slots_done_.clear();
    staged_.clear();
    staged_.shrink_to_fit();
  }

 private:
  friend class DayGraph;
  std::vector<std::size_t> slots_done_;  ///< per-shard edge slots staged
  std::vector<StagedEdge> staged_;       ///< all staged edges, key-sorted
};

}  // namespace eid::graph
