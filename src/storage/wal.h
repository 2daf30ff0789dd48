#ifndef VERSO_STORAGE_WAL_H_
#define VERSO_STORAGE_WAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/io.h"
#include "util/result.h"

namespace verso {

/// Append-only write-ahead log of opaque records (the database layers
/// group-commit fact-delta payloads on top). Frame format:
///     u32 length_word | u32 CRC32(length_word) | u32 CRC32(payload) | payload
/// The length word spends its two high bits on flags (payloads are far
/// below 1 GiB, so they are free): bit 31 marks a batched record, bit 30
/// the header CRC. Every frame sets both. The header CRC covers the length
/// word, so a bit-flip in the length never mis-frames the rest of the
/// log. A frame with either flag clear is treated like a corrupt one.
/// Recovery reads records until EOF or the first torn/corrupt record;
/// everything before the tear is returned, the tail is ignored — the
/// standard RocksDB-style contract for crashed writers.
class WalWriter {
 public:
  explicit WalWriter(std::string path, Env* env = nullptr)
      : path_(std::move(path)), env_(env != nullptr ? env : Env::Default()) {}

  Status Append(std::string_view payload);

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  Env* env_;
};

struct WalRecord {
  std::string payload;
};

struct WalReadResult {
  std::vector<WalRecord> records;
  /// True if a torn/corrupt tail was skipped (informational). NOTE: a
  /// corrupt record in the MIDDLE of the log is indistinguishable from a
  /// torn tail at that point, so every record after it — even bit-perfect
  /// ones — is intentionally dropped too: replaying deltas with a gap
  /// would fabricate a state no committed prefix ever had.
  bool truncated_tail = false;
  /// Byte length of the valid record prefix. When `truncated_tail` is
  /// set, recovery truncates the log to this length so later appends
  /// land after valid data instead of after the garbage tail (which
  /// would make them unreachable for every future recovery).
  size_t valid_bytes = 0;
};

/// Reads all valid records; a missing file yields zero records.
Result<WalReadResult> ReadWal(const std::string& path, Env* env = nullptr);

/// Encodes one frame — the exact byte image WalWriter::Append writes.
/// Exposed so other persistence layers (src/store) frame their records
/// identically and recover them with ReadWal: the page-log backend appends
/// these frames, and the mem backend's image file is one such frame
/// installed by atomic rename. Fails for payloads at or past the 1 GiB
/// frame limit (the two high length bits are flags).
Result<std::string> EncodeWalFrame(std::string_view payload);

}  // namespace verso

#endif  // VERSO_STORAGE_WAL_H_
