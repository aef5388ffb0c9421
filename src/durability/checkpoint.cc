#include "durability/checkpoint.h"

#include <algorithm>
#include <cstdio>
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

std::string EncodeShardCheckpoint(const ShardCheckpointImage& image) {
  std::string body;
  codec::PutU64(&body, kShardCheckpointMagic);
  codec::PutU32(&body, image.user_count);
  codec::PutU64(&body, image.covered_lsn);
  codec::PutU32(&body, static_cast<uint32_t>(image.clusters.size()));
  for (const ShardCheckpointCluster& entry : image.clusters) {
    codec::PutU32(&body, entry.id);
    codec::PutCluster(&body, entry.info.members, entry.info.connectivity,
                      entry.info.valid);
    codec::PutU8(&body, entry.info.region.has_value() ? 1 : 0);
    if (entry.info.region.has_value()) {
      codec::PutRect(&body, *entry.info.region);
    }
  }
  codec::PutU64(&body, util::FnvHashBytes(body.data(), body.size()));
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
