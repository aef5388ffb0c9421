#include "durability/checkpoint.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <string_view>
#include <utility>
#include <vector>

#include "durability/codec.h"
#include "util/hash.h"

namespace nela::durability {

namespace {

// "NELACKP2" as little-endian bytes.
constexpr uint64_t kShardCheckpointMagic = 0x32504b43414c454eull;

util::Status WriteBytes(const std::string& path, const std::string& bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return util::UnavailableError("cannot open checkpoint file: " + path);
  }
  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  const bool flushed = std::fflush(file) == 0;
  std::fclose(file);
  if (!wrote || !flushed) {
    return util::UnavailableError("short write on checkpoint file: " + path);
  }
  return util::Status();
}

}  // namespace

std::string CheckpointPath(const std::string& dir, uint64_t seq) {
  return dir + "/checkpoint-" + std::to_string(seq) + ".ckpt";
}

std::optional<uint64_t> CheckpointSeqOf(const std::string& filename) {
  constexpr std::string_view kPrefix = "checkpoint-";
  if (filename.rfind(kPrefix, 0) != 0) return std::nullopt;
  uint64_t seq = 0;
  const char* end = filename.data() + filename.size();
  if (std::from_chars(filename.data() + kPrefix.size(), end, seq).ec !=
      std::errc()) {
    return std::nullopt;
  }
  if (CheckpointPath("", seq) != "/" + filename) return std::nullopt;
  return seq;
}

util::Result<std::vector<uint64_t>> ListCheckpointSeqs(
    const std::string& dir) {
  std::vector<uint64_t> seqs;
  std::error_code error;
  if (!std::filesystem::exists(dir, error)) return seqs;
  for (std::filesystem::directory_iterator it(dir, error), end;
       !error && it != end; it.increment(error)) {
    const auto seq = CheckpointSeqOf(it->path().filename().string());
    if (seq.has_value()) seqs.push_back(*seq);
  }
  if (error) {
    return util::UnavailableError("cannot list checkpoints in " + dir +
                                  ": " + error.message());
  }
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

util::Status WriteCheckpointFile(const std::string& path,
                                 const std::string& encoded) {
  return WriteBytes(path, encoded);
}

util::Status WriteTornCheckpointFile(const std::string& path,
                                     const std::string& encoded,
                                     size_t keep_bytes) {
  std::string torn = encoded;
  if (keep_bytes < torn.size()) torn.resize(keep_bytes);
  return WriteBytes(path, torn);
}

void AppendShardCheckpointHeader(std::string* out, uint32_t user_count,
                                 uint64_t covered_lsn,
                                 uint32_t cluster_count) {
  codec::PutU64(out, kShardCheckpointMagic);
  codec::PutU32(out, user_count);
  codec::PutU64(out, covered_lsn);
  codec::PutU32(out, cluster_count);
}

void AppendShardCheckpointEntry(std::string* out, cluster::ClusterId id,
                                const cluster::ClusterInfo& info) {
  codec::PutU32(out, id);
  codec::PutCluster(out, info.members, info.connectivity, info.valid);
  codec::PutU8(out, info.region.has_value() ? 1 : 0);
  if (info.region.has_value()) codec::PutRect(out, *info.region);
}

void AppendCheckpointTrailer(std::string* body) {
  codec::PutU64(body, util::FnvHashBytes(body->data(), body->size()));
}

std::string EncodeShardCheckpoint(const ShardCheckpointImage& image) {
  std::string body;
  AppendShardCheckpointHeader(&body, image.user_count, image.covered_lsn,
                              static_cast<uint32_t>(image.clusters.size()));
  for (const ShardCheckpointCluster& entry : image.clusters) {
    AppendShardCheckpointEntry(&body, entry.id, entry.info);
  }
  AppendCheckpointTrailer(&body);
  return body;
}

util::Result<ShardCheckpointImage> ReadShardCheckpoint(
    const std::string& path) {
  auto read = codec::ReadWholeFile(path);
  if (!read.ok()) return read.status();
  const std::string& contents = read.value();

  if (contents.size() < 8) {
    return util::InvalidArgumentError("checkpoint file too small: " + path);
  }
  const size_t body_size = contents.size() - 8;
  codec::Reader trailer(contents.data(), contents.size());
  trailer.pos = body_size;
  uint64_t stored_checksum = 0;
  (void)trailer.TakeU64(&stored_checksum);
  if (util::FnvHashBytes(contents.data(), body_size) != stored_checksum) {
    return util::InvalidArgumentError(
        "checkpoint checksum mismatch (torn write): " + path);
  }

  codec::Reader reader(contents.data(), body_size);
  ShardCheckpointImage image;
  uint64_t magic = 0;
  uint32_t cluster_count = 0;
  if (!reader.TakeU64(&magic) || magic != kShardCheckpointMagic ||
      !reader.TakeU32(&image.user_count) ||
      !reader.TakeU64(&image.covered_lsn) || !reader.TakeU32(&cluster_count)) {
    return util::InvalidArgumentError("malformed checkpoint header: " + path);
  }
  // [u32 id] + cluster image + [u8 has_region] per entry.
  image.clusters.reserve(std::min<size_t>(
      cluster_count, reader.remaining() / (4 + codec::kMinClusterBytes + 1)));
  for (uint32_t i = 0; i < cluster_count; ++i) {
    ShardCheckpointCluster entry;
    uint8_t has_region = 0;
    if (!reader.TakeU32(&entry.id) ||
        !reader.TakeCluster(&entry.info.members, &entry.info.connectivity,
                            &entry.info.valid) ||
        !reader.TakeU8(&has_region)) {
      return util::InvalidArgumentError("malformed checkpoint body: " + path);
    }
    if (has_region != 0) {
      geo::Rect region;
      if (!reader.TakeRect(&region)) {
        return util::InvalidArgumentError("malformed checkpoint body: " +
                                          path);
      }
      entry.info.region = region;
    }
    image.clusters.push_back(std::move(entry));
  }
  if (reader.pos != body_size) {
    return util::InvalidArgumentError("trailing bytes in checkpoint: " + path);
  }
  return image;
}

}  // namespace nela::durability
