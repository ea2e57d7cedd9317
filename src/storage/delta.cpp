#include "storage/delta.h"

#include <fstream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/binary.h"
#include "util/crc32.h"
#include "util/fault_injection.h"

namespace eid::storage {

std::filesystem::path delta_chain_path(const std::filesystem::path& path) {
  return std::filesystem::path(path.string() + ".delta");
}

// ---- Chain file I/O ----

namespace {

/// Frame-scan chain bytes: collect every complete CRC-clean frame and note
/// where (and why) the clean prefix ends.
void scan_chain_bytes(std::string_view bytes, DeltaChainInfo& info) {
  constexpr std::uint64_t kHeader = 12;  // magic(8) + size(4)
  info.file_bytes = bytes.size();
  std::uint64_t offset = 0;
  std::size_t n = 0;
  while (offset < bytes.size()) {
    const std::string at = "frame " + std::to_string(n);
    if (bytes.size() - offset < kHeader) {
      info.tail_detail = at + ": header cut short";
      break;
    }
    if (bytes.substr(offset, kDeltaMagic.size()) != kDeltaMagic) {
      info.tail_detail = at + ": bad frame magic";
      break;
    }
    std::uint32_t size = 0;
    for (int i = 0; i < 4; ++i) {
      size |= static_cast<std::uint32_t>(static_cast<unsigned char>(
                  bytes[offset + kDeltaMagic.size() + i]))
              << (8 * i);
    }
    if (bytes.size() - offset - kHeader < static_cast<std::uint64_t>(size) + 4) {
      info.tail_detail = at + ": payload cut short";
      break;
    }
    const std::string_view payload = bytes.substr(offset + kHeader, size);
    std::uint32_t stored_crc = 0;
    for (int i = 0; i < 4; ++i) {
      stored_crc |= static_cast<std::uint32_t>(static_cast<unsigned char>(
                        bytes[offset + kHeader + size + i]))
                    << (8 * i);
    }
    if (util::crc32(payload) != stored_crc) {
      info.tail_detail = at + ": checksum mismatch";
      break;
    }
    info.frames.push_back({offset, std::string(payload)});
    offset += kHeader + size + 4;
    ++n;
  }
  info.valid_bytes = offset;
  info.torn_tail = offset < bytes.size();
}

}  // namespace

bool read_delta_chain(const std::filesystem::path& chain_path,
                      DeltaChainInfo& info, LoadStatus* status) {
  info = DeltaChainInfo{};
  LoadStatus read_status;
  const auto bytes = read_file(chain_path, &read_status);
  if (!bytes) {
    if (read_status.error == LoadError::FileNotFound) return true;  // no chain
    if (status != nullptr) *status = read_status;
    return false;
  }
  scan_chain_bytes(*bytes, info);
  return true;
}

bool append_delta_frame(const std::filesystem::path& chain_path,
                        std::string_view payload, LoadStatus* status) {
  util::FaultInjector& faults = util::FaultInjector::instance();
  // A previous crash may have left a torn tail; drop it so the new frame
  // starts at a clean boundary. (The scan reads without fault probes —
  // injected read faults target the load path, not this maintenance read.)
  {
    std::ifstream in(chain_path, std::ios::binary);
    if (in) {
      std::string bytes((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
      in.close();
      DeltaChainInfo info;
      scan_chain_bytes(bytes, info);
      if (info.torn_tail) {
        std::error_code ec;
        std::filesystem::resize_file(chain_path, info.valid_bytes, ec);
        if (ec) {
          set_status(status, LoadError::IoError,
                     "cannot truncate torn tail of " + chain_path.string() +
                         ": " + ec.message());
          return false;
        }
      }
    }
  }
  if (faults.any_armed() &&
      faults.fail_open(util::FaultPoint::StorageOpenWrite)) {
    set_status(status, LoadError::IoError,
               "injected open failure on " + chain_path.string());
    return false;
  }
  util::ByteWriter frame;
  frame.reserve(kDeltaMagic.size() + 8 + payload.size());
  frame.bytes(kDeltaMagic);
  frame.u32le(static_cast<std::uint32_t>(payload.size()));
  frame.bytes(payload);
  frame.u32le(util::crc32(payload));
  const std::string& bytes = frame.data();

  std::ofstream out(chain_path, std::ios::binary | std::ios::app);
  if (!out) {
    set_status(status, LoadError::IoError,
               "cannot open " + chain_path.string());
    return false;
  }
  std::size_t allowed = bytes.size();
  bool injected_fail = false;
  if (faults.any_armed()) {
    allowed = faults.filter_write(util::FaultPoint::StorageAppend,
                                  bytes.size(), injected_fail);
  }
  out.write(bytes.data(), static_cast<std::streamsize>(allowed));
  out.flush();
  if (injected_fail) {
    // Simulated crash mid-append: the torn tail stays on disk — exactly
    // what a real crash leaves — and the next append or load handles it.
    set_status(status, LoadError::IoError,
               "injected torn append on " + chain_path.string());
    return false;
  }
  if (!out) {
    set_status(status, LoadError::IoError,
               "append failed on " + chain_path.string());
    return false;
  }
  out.close();
  sync_path_durable(chain_path);
  return true;
}

// ---- Chain-aware load ----

std::optional<DetectorState> load_detector_state_chain(
    const std::filesystem::path& path, ChainLoadReport* report,
    LoadStatus* status) {
  static obs::Histogram& load_seconds = obs::metrics().histogram(
      "eid_state_load_seconds", obs::duration_buckets());
  const obs::TraceSpan span("state_load", load_seconds, "storage");
  ChainLoadReport local;
  ChainLoadReport& out = report != nullptr ? *report : local;
  out = ChainLoadReport{};
  auto state = load_detector_state(path, status, &out.base_crc);
  if (!state) return std::nullopt;

  DeltaChainInfo info;
  LoadStatus chain_status;
  if (!read_delta_chain(delta_chain_path(path), info, &chain_status)) {
    // The base loaded; an unreadable chain degrades to it.
    out.degraded = true;
    out.detail = chain_status.detail;
    return state;
  }
  out.torn_tail = info.torn_tail;
  if (info.torn_tail && out.detail.empty()) out.detail = info.tail_detail;

  std::uint64_t expect_seq = 1;
  for (std::size_t i = 0; i < info.frames.size(); ++i) {
    LoadStatus frame_status;
    auto frame = decode_delta_frame(info.frames[i].payload, &frame_status);
    std::string why;
    if (!frame) {
      why = frame_status.detail;
    } else if (frame->header.base_crc != out.base_crc) {
      why = "built on a different base checkpoint";
    } else if (frame->header.seq != expect_seq) {
      why = "sequence gap (frame says " + std::to_string(frame->header.seq) +
            ", chain expects " + std::to_string(expect_seq) + ")";
    } else if (!apply_delta_frame(*state, *frame, &frame_status)) {
      why = frame_status.detail;  // refused: the state is untouched
    }
    if (!why.empty()) {
      out.degraded = true;
      out.frames_dropped = info.frames.size() - i;
      out.detail = "frame " + std::to_string(i) + ": " + why;
      break;
    }
    ++out.frames_applied;
    out.last_seq = expect_seq++;
    out.applied_bytes = info.frames[i].offset + 12 +
                        info.frames[i].payload.size() + 4;
    if (frame->has_cursor) {
      out.has_cursor = true;
      out.cursor_day = frame->cursor_day;
      out.cursor_offset = frame->cursor_offset;
    }
    if (frame->has_incidents) {
      out.has_incidents = true;
      out.incidents_next_id = frame->incidents_next_id;
      out.incidents = std::move(frame->incidents);
    }
  }
  return state;
}

}  // namespace eid::storage
