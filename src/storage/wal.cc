#include "storage/wal.h"

#include "util/crc32.h"

namespace verso {

namespace {

void AppendU32(std::string& out, uint32_t v) {
  char bytes[4];
  bytes[0] = static_cast<char>(v & 0xff);
  bytes[1] = static_cast<char>((v >> 8) & 0xff);
  bytes[2] = static_cast<char>((v >> 16) & 0xff);
  bytes[3] = static_cast<char>((v >> 24) & 0xff);
  out.append(bytes, 4);
}

uint32_t ReadU32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

constexpr uint32_t kBatchBit = 0x80000000u;
constexpr uint32_t kHeaderCrcBit = 0x40000000u;
constexpr uint32_t kFlagBits = kBatchBit | kHeaderCrcBit;
constexpr size_t kHeaderBytes = 12;

}  // namespace

Result<std::string> EncodeWalFrame(std::string_view payload) {
  if (payload.size() >= (1ull << 30)) {
    return Status::InvalidArgument("WAL payload exceeds 1 GiB frame limit");
  }
  uint32_t length_word = static_cast<uint32_t>(payload.size()) | kFlagBits;
  std::string record;
  record.reserve(payload.size() + kHeaderBytes);
  AppendU32(record, length_word);
  // Header CRC over the encoded length word: a bit-flip in the length is
  // caught deterministically instead of mis-framing everything after it.
  AppendU32(record, Crc32(record.data(), 4));
  AppendU32(record, Crc32(payload.data(), payload.size()));
  record.append(payload.data(), payload.size());
  return record;
}

Status WalWriter::Append(std::string_view payload) {
  VERSO_ASSIGN_OR_RETURN(std::string record, EncodeWalFrame(payload));
  return env_->AppendFile(path_, record);
}

Result<WalReadResult> ReadWal(const std::string& path, Env* env) {
  if (env == nullptr) env = Env::Default();
  WalReadResult result;
  if (!env->FileExists(path)) return result;
  VERSO_ASSIGN_OR_RETURN(std::string file, env->ReadFile(path));
  size_t pos = 0;
  while (pos + kHeaderBytes <= file.size()) {
    uint32_t length_word = ReadU32(file.data() + pos);
    if ((length_word & kFlagBits) != kFlagBits) {
      result.truncated_tail = true;  // not a batched, header-CRC frame
      break;
    }
    if (Crc32(file.data() + pos, 4) != ReadU32(file.data() + pos + 4)) {
      result.truncated_tail = true;  // length word is damaged
      break;
    }
    uint32_t crc = ReadU32(file.data() + pos + 8);
    uint32_t length = length_word & ~kFlagBits;
    if (pos + kHeaderBytes + length > file.size()) {
      result.truncated_tail = true;  // torn final record: crashed writer
      break;
    }
    const char* payload = file.data() + pos + kHeaderBytes;
    if (Crc32(payload, length) != crc) {
      result.truncated_tail = true;
      break;
    }
    result.records.push_back({std::string(payload, length)});
    pos += kHeaderBytes + length;
  }
  if (pos != file.size() && !result.truncated_tail) {
    result.truncated_tail = true;  // torn mid-header, or short garbage
  }
  result.valid_bytes = pos;
  return result;
}

}  // namespace verso
