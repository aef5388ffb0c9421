#include "durability/wal.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "durability/codec.h"
#include "util/hash.h"

namespace nela::durability {

namespace {

using codec::PutU32;
using codec::PutU64;
using codec::PutU8;

// A frame header is [u32 len][u64 checksum].
constexpr size_t kFrameHeaderBytes = 12;
// Registering every user into one cluster is the largest legal record;
// anything bigger is corruption, not data.
constexpr uint32_t kMaxPayloadBytes = 64u * 1024u * 1024u;

std::string FrameRecord(const std::string& payload) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU64(&frame, util::FnvHashBytes(payload.data(), payload.size()));
  frame.append(payload);
  return frame;
}

}  // namespace

std::string EncodeWalRecord(const WalRecord& record) {
  std::string payload;
  PutU64(&payload, record.lsn);
  PutU8(&payload, static_cast<uint8_t>(record.type));
  switch (record.type) {
    case WalRecordType::kSetRegion:
      PutU32(&payload, record.cluster_id);
      codec::PutRect(&payload, record.region);
      break;
    case WalRecordType::kShardRegisterBatch:
      PutU32(&payload, record.first_cluster_id);
      PutU32(&payload, static_cast<uint32_t>(record.clusters.size()));
      for (const WalClusterImage& image : record.clusters) {
        codec::PutCluster(&payload, image.members, image.connectivity,
                          image.valid);
      }
      break;
  }
  return payload;
}

util::Result<WalRecord> DecodeWalRecord(std::string_view payload) {
  codec::Reader reader(payload.data(), payload.size());
  WalRecord record;
  uint8_t type = 0;
  if (!reader.TakeU64(&record.lsn) || !reader.TakeU8(&type)) {
    return util::InvalidArgumentError("WAL payload truncated in header");
  }
  switch (type) {
    case static_cast<uint8_t>(WalRecordType::kSetRegion):
      record.type = WalRecordType::kSetRegion;
      if (!reader.TakeU32(&record.cluster_id) ||
          !reader.TakeRect(&record.region)) {
        return util::InvalidArgumentError("WAL set-region payload truncated");
      }
      break;
    case static_cast<uint8_t>(WalRecordType::kShardRegisterBatch): {
      record.type = WalRecordType::kShardRegisterBatch;
      uint32_t cluster_count = 0;
      if (!reader.TakeU32(&record.first_cluster_id) ||
          !reader.TakeU32(&cluster_count)) {
        return util::InvalidArgumentError(
            "WAL shard batch payload truncated");
      }
      record.clusters.reserve(
          std::min<size_t>(cluster_count, reader.remaining() / codec::kMinClusterBytes));
      for (uint32_t c = 0; c < cluster_count; ++c) {
        WalClusterImage image;
        if (!reader.TakeCluster(&image.members, &image.connectivity,
                                &image.valid)) {
          return util::InvalidArgumentError(
              "WAL shard batch payload truncated");
        }
        record.clusters.push_back(std::move(image));
      }
      break;
    }
    default:
      return util::InvalidArgumentError("unknown WAL record type " +
                                        std::to_string(type));
  }
  if (reader.pos != payload.size()) {
    return util::InvalidArgumentError("trailing bytes in WAL payload");
  }
  return record;
}

WalWriter::WalWriter(std::FILE* file) : file_(file) {}

WalWriter::~WalWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

util::Result<std::unique_ptr<WalWriter>> WalWriter::Open(
    const std::string& path, bool truncate) {
  std::FILE* file = std::fopen(path.c_str(), truncate ? "wb" : "ab");
  if (file == nullptr) {
    return util::UnavailableError("cannot open WAL file: " + path);
  }
  return std::unique_ptr<WalWriter>(new WalWriter(file));
}

util::Status WalWriter::Append(const WalRecord& record) {
  const std::string frame = FrameRecord(EncodeWalRecord(record));
  util::MutexLock lock(mu_);
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size()) {
    return util::UnavailableError("short write appending WAL record");
  }
  if (std::fflush(file_) != 0) {
    return util::UnavailableError("flush failed appending WAL record");
  }
  ++records_appended_;
  return util::Status();
}

util::Status WalWriter::AppendTorn(const WalRecord& record,
                                   size_t keep_bytes) {
  std::string frame = FrameRecord(EncodeWalRecord(record));
  if (keep_bytes < frame.size()) frame.resize(keep_bytes);
  util::MutexLock lock(mu_);
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size()) {
    return util::UnavailableError("short write appending torn WAL record");
  }
  if (std::fflush(file_) != 0) {
    return util::UnavailableError("flush failed appending torn WAL record");
  }
  return util::Status();
}

uint64_t WalWriter::records_appended() const {
  util::MutexLock lock(mu_);
  return records_appended_;
}

namespace {

// Scans the framed log in `bytes`; intact records go to `result`, and the
// offset of the first torn frame comes back in `valid_bytes`. A torn append
// writes only a prefix of its frame, so a frame that is short -- its header
// or its declared payload runs past the end of the file -- is a torn tail,
// and everything from it on is reported as torn. A frame that is complete
// but fails its checksum, or that passes its checksum and does not decode,
// cannot come from a torn append: both are errors (kDataLoss and
// kInvalidArgument), so no caller cuts intact records away behind them.
// Payloads are checked and decoded in place.
util::Status ScanWal(const std::string& path, std::string_view bytes,
                     WalReadResult* result, size_t* valid_bytes) {
  codec::Reader reader(bytes.data(), bytes.size());
  *valid_bytes = 0;
  while (true) {
    const size_t frame_start = reader.pos;
    uint32_t payload_len = 0;
    uint64_t checksum = 0;
    if (!reader.TakeU32(&payload_len) || !reader.TakeU64(&checksum) ||
        payload_len > kMaxPayloadBytes ||
        reader.pos + payload_len > reader.size) {
      break;
    }
    const std::string_view payload = bytes.substr(reader.pos, payload_len);
    reader.pos += payload_len;
    if (util::FnvHashBytes(payload.data(), payload.size()) != checksum) {
      return util::DataLossError(
          "WAL frame at byte " + std::to_string(frame_start) + " of " +
          path + " is complete but fails its checksum: the log is "
          "corrupt, not torn");
    }
    auto record = DecodeWalRecord(payload);
    if (!record.ok()) {
      return util::InvalidArgumentError(
          "WAL frame at byte " + std::to_string(frame_start) + " of " +
          path + " has a valid checksum but does not decode (" +
          record.status().message() + ")");
    }
    result->records.push_back(std::move(record).value());
    *valid_bytes = reader.pos;
  }
  result->torn_bytes = bytes.size() - *valid_bytes;
  return util::Status();
}

// Reads `path` once and scans it; when `truncate` is set, cuts a torn tail
// that scan found. A scan error leaves the file untouched.
util::Result<WalReadResult> ReadAndScan(const std::string& path,
                                        bool truncate) {
  WalReadResult result;
  if (!std::filesystem::exists(path)) return result;  // empty log
  auto contents = codec::ReadWholeFile(path);
  if (!contents.ok()) return contents.status();
  size_t valid_bytes = 0;
  const util::Status scanned =
      ScanWal(path, contents.value(), &result, &valid_bytes);
  if (!scanned.ok()) return scanned;
  if (truncate && result.torn_bytes > 0) {
    std::error_code error;
    std::filesystem::resize_file(path, valid_bytes, error);
    if (error) {
      return util::UnavailableError("cannot truncate torn WAL tail: " +
                                    error.message());
    }
  }
  return result;
}

}  // namespace

util::Result<WalReadResult> ReadWal(const std::string& path) {
  return ReadAndScan(path, /*truncate=*/false);
}

util::Result<uint64_t> TruncateTornTail(const std::string& path) {
  auto scanned = ReadAndScan(path, /*truncate=*/true);
  if (!scanned.ok()) return scanned.status();
  return scanned.value().torn_bytes;
}

util::Result<WalReadResult> ReadWalAndTruncateTornTail(
    const std::string& path) {
  return ReadAndScan(path, /*truncate=*/true);
}

}  // namespace nela::durability
