// Process-wide fault-injection seam for the durability paths. Production
// code probes the singleton at each I/O decision point (file open, bulk
// read, bulk write, tmp->final rename, delta-chain append, tail open/read);
// tests arm one-shot or repeating fault plans to simulate exactly what a
// crash, a flaky disk or a half-written log leaves behind:
//
//   * FailOpen   — the open reports failure (EINTR / transient EACCES);
//   * FailOp     — the read/write reports failure with nothing transferred;
//   * TornWrite  — only the first `byte` bytes land, then the op "dies"
//                  (what a power loss mid-write leaves on disk);
//   * ShortRead  — only the first `byte` bytes come back, silently (a read
//                  racing a writer, or a file truncated under the reader);
//   * BitFlip    — bit `bit` of byte `byte` flips in the data read (media
//                  corruption the per-section CRCs must catch);
//   * SkipRename — the tmp file is fully written but the rename never
//                  happens (crash in the window between write and rename).
//
// Disabled cost is one relaxed atomic load per probe — the seam stays
// compiled into release binaries so the crash-recovery CI smoke and the
// state_tool can exercise it without a special build.
//
// Arming/resetting is test-only and mutex-serialized; probes from I/O
// threads take the same mutex only while at least one plan is armed.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

namespace eid::util {

enum class FaultPoint : std::uint8_t {
  StorageOpenRead = 0,  ///< storage::read_file open
  StorageRead,          ///< storage::read_file bulk read
  StorageOpenWrite,     ///< storage::write_file_atomic / chain-append open
  StorageWrite,         ///< storage::write_file_atomic bulk write (tmp file)
  StorageRename,        ///< storage::write_file_atomic tmp->final rename
  StorageAppend,        ///< storage delta-chain frame append
  TailOpen,             ///< TsvFileSource (re)open
  TailRead,             ///< TsvFileSource tail-mode poll read
  kCount,
};

enum class FaultAction : std::uint8_t {
  None = 0,
  FailOpen,
  FailOp,
  TornWrite,
  ShortRead,
  BitFlip,
  SkipRename,
};

class FaultInjector {
 public:
  /// The process-wide instance every probe site consults.
  static FaultInjector& instance();

  /// Arm `point`: after `skip` matching probes pass through unaffected,
  /// the next `repeat` matching probes trigger `action`. `byte` is the
  /// boundary for TornWrite/ShortRead (bytes that survive) and the target
  /// byte for BitFlip; `bit` selects the flipped bit (0-7). Re-arming a
  /// point replaces its previous plan.
  void arm(FaultPoint point, FaultAction action, std::uint64_t skip = 0,
           std::uint64_t byte = 0, unsigned bit = 0, std::uint64_t repeat = 1);

  /// Disarm every point and zero the trigger counters.
  void reset();

  /// Times an armed plan fired at this point since the last reset().
  std::uint64_t triggered(FaultPoint point) const;

  /// Fast gate for probe sites: false means every probe is a no-op.
  bool any_armed() const {
    return armed_.load(std::memory_order_relaxed) > 0;
  }

  // ---- Probes (called from production I/O paths) ----

  /// True when an armed FailOpen plan says this open must fail.
  bool fail_open(FaultPoint point);

  /// Bytes (of `n`) that actually land; sets `fail` when the operation
  /// must report an error afterwards (FailOp => 0 bytes + fail,
  /// TornWrite => `byte` bytes + fail).
  std::size_t filter_write(FaultPoint point, std::size_t n, bool& fail);

  /// Mutate the bytes a read produced: ShortRead truncates, BitFlip
  /// corrupts in place; FailOp sets `fail` (caller must report an error).
  void filter_read(FaultPoint point, std::string& bytes, bool& fail);

  /// True when an armed SkipRename plan says the rename must be skipped
  /// (the caller leaves the tmp file and reports failure, exactly like a
  /// crash between write and rename).
  bool skip_rename(FaultPoint point);

 private:
  struct Plan {
    FaultAction action = FaultAction::None;
    std::uint64_t skip = 0;
    std::uint64_t byte = 0;
    unsigned bit = 0;
    std::uint64_t repeat = 0;
  };

  FaultInjector() = default;

  /// Consume one matching probe under the lock: skips count down first,
  /// then `repeat` triggers fire. Returns the plan that fired, if any.
  bool consume(FaultPoint point, bool (*matches)(FaultAction), Plan& fired);

  mutable std::mutex mutex_;
  std::atomic<std::size_t> armed_{0};
  Plan plans_[static_cast<std::size_t>(FaultPoint::kCount)];
  std::uint64_t triggered_[static_cast<std::size_t>(FaultPoint::kCount)] = {};
};

}  // namespace eid::util
