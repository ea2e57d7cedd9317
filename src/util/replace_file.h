// Whole-file rewrite that a concurrent reader never sees half done.
#pragma once

#include <filesystem>
#include <fstream>
#include <string_view>
#include <system_error>

namespace eid::util {

/// Write `bytes` to "<path>.tmp", then rename it over `path`: a reader sees
/// the old contents or the new, never a torn file. No fsync — for outputs
/// that are rewritten again soon (metrics, traces, bench records, the
/// heartbeat); the checkpoint writer (storage/container.h) syncs and has
/// fault points. False on any I/O failure.
inline bool replace_file(const std::filesystem::path& path,
                         std::string_view bytes) {
  std::filesystem::path tmp = path;
  tmp += ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();  // surface open failure or disk-full before the rename
    if (!out) return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  return !ec;
}

}  // namespace eid::util
