// Operator tooling for eid state files: inspect what a checkpoint or a
// delta chain contains and verify its integrity (magic, structure, per-
// section CRC32, full decode) — the debugging tool a deployment keeps.
//
// Usage:
//   state_tool inspect <file>
//   state_tool verify [--deep] <file>
//
// The input kind — full checkpoint ("EIDSTOR1") or delta chain ("EIDDELT1"
// frames, storage/delta.h) — is detected by magic; inspecting a full
// checkpoint also summarizes its companion <file>.delta chain.
// verify --deep prints a per-section CRC/size report (and a per-frame
// report for delta chains), decodes every container, and exits nonzero on
// the first failure. Exit status: 0 on success, 1 on bad usage, 2 on a
// failed verify/load.
#include <cstdio>
#include <cstring>
#include <string>

#include "storage/container.h"
#include "storage/delta.h"
#include "storage/state.h"

namespace {

using namespace eid;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s inspect <file>\n"
               "       %s verify [--deep] <file>\n"
               "\n"
               "inspect  describe a checkpoint or delta chain (format, sections,\n"
               "         counts; full checkpoints include their .delta chain)\n"
               "verify   check integrity (magic, structure, section CRC32s,\n"
               "         decode); --deep adds a per-section (and per-delta-\n"
               "         frame) CRC/size report, nonzero exit on first failure\n",
               argv0, argv0);
  return 1;
}

const char* section_name(std::uint64_t id) {
  switch (static_cast<storage::SectionId>(id)) {
    case storage::SectionId::StringTable: return "string-table";
    case storage::SectionId::Config: return "config";
    case storage::SectionId::DomainHistory: return "domain-history";
    case storage::SectionId::UaHistory: return "ua-history";
    case storage::SectionId::TopSites: return "top-sites";
    case storage::SectionId::CcModel: return "cc-model";
    case storage::SectionId::SimModel: return "sim-model";
    case storage::SectionId::TrainingStats: return "training-stats";
    case storage::SectionId::Intel: return "intel";
    case storage::SectionId::Counters: return "counters";
    case storage::SectionId::TrainingRows: return "training-rows";
    case storage::SectionId::RtCursor: return "rt-cursor";
    case storage::SectionId::Incidents: return "incidents";
    case storage::SectionId::DeltaHeader: return "delta-header";
  }
  return "unknown";
}

bool starts_with(const std::string& bytes, std::string_view magic) {
  return std::string_view(bytes).substr(0, magic.size()) == magic;
}

void print_failure(const char* what, const storage::LoadStatus& status) {
  std::fprintf(stderr, "%s: %s%s%s\n", what,
               storage::load_error_name(status.error),
               status.detail.empty() ? "" : " — ", status.detail.c_str());
}

/// Summarize a delta chain file: frame count, seq/day spans, tail state.
/// `base_day` (last-compaction day, from the base checkpoint's counters)
/// is printed when the caller knows it; pass -1 otherwise.
int inspect_chain(const std::filesystem::path& chain_path,
                  long long base_day) {
  storage::DeltaChainInfo info;
  storage::LoadStatus status;
  if (!storage::read_delta_chain(chain_path, info, &status)) {
    print_failure("inspect", status);
    return 2;
  }
  std::printf("delta chain %s: %zu frame(s), %llu of %llu byte(s) valid%s\n",
              chain_path.string().c_str(), info.frames.size(),
              static_cast<unsigned long long>(info.valid_bytes),
              static_cast<unsigned long long>(info.file_bytes),
              info.torn_tail ? ", torn tail (next append truncates it)" : "");
  if (base_day >= 0) {
    std::printf("  last compaction: after operation day %lld\n", base_day);
  }
  std::uint64_t first_seq = 0, last_seq = 0;
  long long first_day = 0, last_day = 0;
  std::size_t decoded = 0;
  for (const auto& frame : info.frames) {
    const auto decoded_frame = storage::decode_delta_frame(frame.payload);
    if (!decoded_frame) continue;
    if (decoded == 0) {
      first_seq = decoded_frame->header.seq;
      first_day = decoded_frame->header.day;
    }
    last_seq = decoded_frame->header.seq;
    last_day = decoded_frame->header.day;
    ++decoded;
  }
  if (decoded > 0) {
    std::printf("  seq %llu..%llu, day %s..%s (%zu decodable frame(s))\n",
                static_cast<unsigned long long>(first_seq),
                static_cast<unsigned long long>(last_seq),
                util::format_day(first_day).c_str(),
                util::format_day(last_day).c_str(), decoded);
  }
  return 0;
}

/// One line per section of a parsed container (parsing verified every
/// section CRC).
void print_sections(const storage::ContainerReader& reader) {
  for (const storage::Section& section : reader.sections()) {
    std::printf("  %-14s id=%-3llu %10zu bytes  crc ok\n",
                section_name(section.id),
                static_cast<unsigned long long>(section.id),
                section.payload.size());
  }
}

/// Deep verify of a delta chain: per-frame CRC (the scan) + full decode.
int deep_verify_chain(const std::filesystem::path& chain_path) {
  storage::DeltaChainInfo info;
  storage::LoadStatus status;
  if (!storage::read_delta_chain(chain_path, info, &status)) {
    print_failure("verify", status);
    return 2;
  }
  std::printf("delta chain %s: %zu frame(s)\n", chain_path.string().c_str(),
              info.frames.size());
  for (std::size_t i = 0; i < info.frames.size(); ++i) {
    const auto& frame = info.frames[i];
    status = {};
    const auto decoded = storage::decode_delta_frame(frame.payload, &status);
    if (!decoded) {
      std::printf("frame %zu @%llu: %zu bytes, crc ok, DECODE FAILED\n", i,
                  static_cast<unsigned long long>(frame.offset),
                  frame.payload.size());
      print_failure("verify", status);
      return 2;
    }
    std::printf("frame %zu @%llu: %zu bytes, crc ok, seq %llu, day %s, "
                "base crc %08llx, decodes\n",
                i, static_cast<unsigned long long>(frame.offset),
                frame.payload.size(),
                static_cast<unsigned long long>(decoded->header.seq),
                util::format_day(decoded->header.day).c_str(),
                static_cast<unsigned long long>(decoded->header.base_crc));
    print_sections(*storage::ContainerReader::parse(frame.payload));
  }
  if (info.torn_tail) {
    std::printf("note: torn tail past byte %llu (%s) — recoverable, the "
                "next append truncates it\n",
                static_cast<unsigned long long>(info.valid_bytes),
                info.tail_detail.c_str());
  }
  return 0;
}

int inspect_container(const std::string& bytes) {
  storage::LoadStatus status;
  const auto reader = storage::ContainerReader::parse(bytes, &status);
  if (!reader) {
    print_failure("inspect", status);
    return 2;
  }
  std::printf("format: eid binary container (EIDSTOR1, version %llu)\n",
              static_cast<unsigned long long>(storage::kFormatVersion));
  std::printf("size: %zu bytes, %zu section(s)\n", bytes.size(),
              reader->sections().size());
  print_sections(*reader);
  status = {};
  const auto state = storage::decode_detector_state(bytes, &status);
  if (!state) {
    print_failure("inspect", status);
    return 2;
  }
  std::printf("domain history: %zu domain(s), %zu day(s) ingested\n",
              state->domain_history.size(),
              state->domain_history.days_ingested());
  std::printf("ua history: %zu distinct UA(s), rare threshold %zu\n",
              state->ua_history.distinct_uas(),
              state->ua_history.rare_threshold());
  std::printf("detector state: models %s, %llu operation day(s), "
              "%zu intel domain(s)%s\n",
              state->training.models_ready ? "trained" : "untrained",
              static_cast<unsigned long long>(state->counters.days_operated),
              state->intel_domains.size(),
              state->has_top_sites ? ", top-sites whitelist" : "");
  return 0;
}

int cmd_inspect(const std::filesystem::path& path) {
  storage::LoadStatus status;
  const auto bytes = storage::read_file(path, &status);
  if (!bytes) {
    print_failure("inspect", status);
    return 2;
  }
  if (starts_with(*bytes, storage::kDeltaMagic)) {
    std::printf("format: eid delta chain (EIDDELT1 frames)\n");
    return inspect_chain(path, -1);
  }
  if (!starts_with(*bytes, storage::kContainerMagic)) {
    std::fprintf(stderr, "inspect: not an eid state file\n");
    return 2;
  }
  const int rc = inspect_container(*bytes);
  if (rc != 0) return rc;
  // A full checkpoint's companion chain, when present.
  const std::filesystem::path chain_path = storage::delta_chain_path(path);
  std::error_code ec;
  if (std::filesystem::exists(chain_path, ec)) {
    long long base_day = -1;
    if (const auto state = storage::decode_detector_state(*bytes)) {
      base_day = static_cast<long long>(state->counters.days_operated);
    }
    return inspect_chain(chain_path, base_day);
  }
  return 0;
}

int cmd_verify(const std::filesystem::path& path, bool deep) {
  storage::LoadStatus status;
  const auto bytes = storage::read_file(path, &status);
  if (!bytes) {
    print_failure("verify", status);
    return 2;
  }
  if (starts_with(*bytes, storage::kDeltaMagic)) {
    if (deep) return deep_verify_chain(path);
    storage::DeltaChainInfo info;
    if (!storage::read_delta_chain(path, info, &status)) {
      print_failure("verify", status);
      return 2;
    }
    for (const auto& frame : info.frames) {
      if (!storage::decode_delta_frame(frame.payload, &status)) {
        print_failure("verify", status);
        return 2;
      }
    }
    if (info.torn_tail) {
      std::printf("note: torn tail past byte %llu — recoverable, the next "
                  "append truncates it\n",
                  static_cast<unsigned long long>(info.valid_bytes));
    }
    std::printf("OK: delta chain verified (%zu frame(s))\n",
                info.frames.size());
    return 0;
  }
  const auto reader = storage::ContainerReader::parse(*bytes, &status);
  if (deep && reader) {
    std::printf("deep verify %s:\n", path.string().c_str());
    print_sections(*reader);
  }
  // Structure + CRCs, then a full decode so semantic corruption (bad ids,
  // inconsistent dimensions) fails too.
  if (!reader || !storage::decode_detector_state(*bytes, &status)) {
    print_failure("verify", status);
    return 2;
  }
  if (!deep) {
    std::printf("OK: container verified (%zu section(s), all checksums "
                "good)\n",
                reader->sections().size());
    return 0;
  }
  std::printf("  checkpoint decodes\n");
  // A full checkpoint's companion chain is part of its durability story:
  // verify it too when present.
  const std::filesystem::path chain_path = storage::delta_chain_path(path);
  std::error_code ec;
  if (std::filesystem::exists(chain_path, ec)) {
    const int chain_rc = deep_verify_chain(chain_path);
    if (chain_rc != 0) return chain_rc;
  }
  std::printf("OK: deep verify passed\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string command = argv[1];
  if (command == "inspect" && argc == 3) return cmd_inspect(argv[2]);
  if (command == "verify" && argc == 3) return cmd_verify(argv[2], false);
  if (command == "verify" && argc == 4 &&
      std::strcmp(argv[2], "--deep") == 0) {
    return cmd_verify(argv[3], true);
  }
  return usage(argv[0]);
}
