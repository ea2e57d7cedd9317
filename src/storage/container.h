// The versioned, sectioned binary container underlying every eid state
// file: full detector checkpoints and the payload of every delta frame.
//
//   file    := magic(8 = "EIDSTOR1") version(varint) n_sections(varint)
//              section*
//   section := id(varint) payload_size(varint) payload crc32(u32le)
//
// Sections are independent length-prefixed blobs, each closed by a CRC-32
// of its payload, so corruption is localized and detected before any
// decoding; unknown section ids are skipped (forward compatibility).
// Writes go through a tmp-file + rename so a crash mid-save never replaces
// a good checkpoint with a torn one. See src/storage/FORMAT.md for the
// full on-disk specification.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "storage/status.h"

namespace eid::storage {

inline constexpr std::string_view kContainerMagic = "EIDSTOR1";
inline constexpr std::uint64_t kFormatVersion = 1;

/// Section ids used by the state encoder (storage/state.h). The container
/// layer itself treats ids as opaque.
enum class SectionId : std::uint64_t {
  StringTable = 1,    ///< shared interned string table (all other sections
                      ///< reference strings by index into it)
  Config = 2,         ///< core::PipelineConfig
  DomainHistory = 3,  ///< profile::DomainHistory
  UaHistory = 4,      ///< profile::UaHistory
  TopSites = 5,       ///< profile::TopSitesList
  CcModel = 6,        ///< core::ScoredModel (C&C)
  SimModel = 7,       ///< core::ScoredModel (similarity)
  TrainingStats = 8,  ///< WHOIS training aggregates + model readiness
  Intel = 9,          ///< external intelligence (IOC) domain list
  Counters = 10,      ///< days-operated and other lifetime counters
  TrainingRows = 11,  ///< unfinalized regression rows (mid-training resume)
  RtCursor = 12,      ///< rt tail cursor (day + byte offset) for failover
  Incidents = 13,     ///< cross-day incident-store snapshot
  // Only inside EIDDELT1 delta frames (storage/delta.h). Ids 21 and 22
  // belonged to a retired frame layout and are never reused.
  DeltaHeader = 20,   ///< base checkpoint id + frame sequence number + day
};

/// Accumulates sections, then renders the full container byte stream.
class ContainerWriter {
 public:
  void add_section(SectionId id, std::string payload);

  /// Full container: magic + version + section count + sections.
  std::string encode() const;

 private:
  std::vector<std::pair<std::uint64_t, std::string>> sections_;
};

/// A parsed section; `payload` views into the buffer handed to parse().
struct Section {
  std::uint64_t id = 0;
  std::string_view payload;
};

/// Parses a container and verifies every section CRC up front. The reader
/// only holds views — the byte buffer must outlive it.
class ContainerReader {
 public:
  /// nullopt on any structural failure; `status` carries the reason.
  static std::optional<ContainerReader> parse(std::string_view bytes,
                                              LoadStatus* status = nullptr);

  /// First section with the id, nullptr when absent.
  const Section* find(SectionId id) const;

  const std::vector<Section>& sections() const { return sections_; }

 private:
  std::vector<Section> sections_;
};

/// Read a whole file (binary mode). nullopt + status on failure.
std::optional<std::string> read_file(const std::filesystem::path& path,
                                     LoadStatus* status = nullptr);

/// Write bytes atomically: write to "<path>.tmp", flush, then rename over
/// `path`, so readers (and crashes) see either the old or the new file,
/// never a prefix.
bool write_file_atomic(const std::filesystem::path& path,
                       std::string_view bytes, LoadStatus* status = nullptr);

/// fsync a file (or directory — the rename/creation record) to stable
/// storage. Shared by the atomic-write and delta-chain append paths.
void sync_path_durable(const std::filesystem::path& path);

}  // namespace eid::storage
