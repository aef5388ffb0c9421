// Write-ahead log of registry mutations.
//
// The anonymizer's only durable state is the cluster registry: which users
// are clustered together and which cloaked region each cluster published.
// Both mutations (register a commit's clusters, set a region) are logged
// here *before* they are applied in memory, so a crash at any instant
// leaves the log holding a prefix of the committed history -- recovery
// replays that prefix and nothing else.
//
// On-disk framing, all integers little-endian:
//
//   record  := [u32 payload_len][u64 fnv1a(payload)][payload]
//   payload := [u64 lsn][u8 type][body]
//   body    := kShardRegisterBatch: [u32 first_cluster_id]
//              [u32 cluster_count] then per cluster
//              [u32 n][n x u32 member][u64 connectivity_bits][u8 valid];
//              cluster c of the batch has global id first_cluster_id + c
//              kSetRegion: [u32 cluster_id][4 x u64 rect coordinate bits]
//
// Type bytes 1 and 3 are retired and never decode.
//
// Appends are serialized on an internal mutex, so a crash can tear at most
// the final record, and a torn append leaves a prefix of its frame: a frame
// whose header or declared payload runs past the end of the file. ReadWal
// stops at such a frame and reports the torn byte count, and
// TruncateTornTail cuts the file back to its valid prefix so a reopened
// writer appends after intact records only. A complete frame that fails
// its checksum (kDataLoss), or that passes it and does not decode
// (kInvalidArgument), cannot come from a torn append: every reader reports
// it as an error and leaves the file untouched, so no later commit is ever
// truncated away behind it.
//
// The service runs one log per spatial shard (durability/shard_layout.h).
// A stream sees only the commits its shard coordinated, so replay cannot
// infer global cluster ids from stream position -- kShardRegisterBatch
// carries the batch's first global id explicitly. One batch record holds
// ALL clusters of one turnstile commit: a crash tearing the middle of that
// group must hide the whole commit, because replaying a partial group would
// leave the host's cluster present but its siblings missing, and a resumed
// workload would rebuild them differently. Batching the group into a
// single checksummed record makes the torn-tail rule ("at most the final
// record is lost") coincide with commit atomicity. kSetRegion records
// always follow their cluster's batch in the same stream, so each shard's
// slice replays from its own files alone.
//
// Durability level: each append is fflush()ed, never fsync()ed. A record
// survives a process kill (the crash model the tests exercise), not a power
// loss or kernel crash.

#ifndef NELA_DURABILITY_WAL_H_
#define NELA_DURABILITY_WAL_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/registry.h"
#include "geo/rect.h"
#include "graph/wpg.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace nela::durability {

enum class WalRecordType : uint8_t {
  kSetRegion = 2,
  kShardRegisterBatch = 4,
};

// One cluster inside a kShardRegisterBatch record.
struct WalClusterImage {
  std::vector<graph::VertexId> members;
  double connectivity = 0.0;
  bool valid = true;
};

struct WalRecord {
  uint64_t lsn = 0;
  WalRecordType type = WalRecordType::kShardRegisterBatch;
  // kShardRegisterBatch fields: the clusters of one atomic commit, in
  // registration order; clusters[0] has global id first_cluster_id and the
  // rest follow consecutively.
  cluster::ClusterId first_cluster_id = 0;
  std::vector<WalClusterImage> clusters;
  // kSetRegion fields.
  cluster::ClusterId cluster_id = 0;
  geo::Rect region;
};

// Serializes the payload (without the [len][checksum] frame).
std::string EncodeWalRecord(const WalRecord& record);

// Parses one payload; rejects truncated or unknown-type payloads.
util::Result<WalRecord> DecodeWalRecord(std::string_view payload);

// Appends framed records to one log file. Thread-safe; each Append is
// flushed before returning so the record survives a process crash (the
// simulated kind this repo tests: the process dies, the file system does
// not).
class WalWriter {
 public:
  // `truncate` starts a fresh log; otherwise appends to an existing one
  // (recovery reopens the log this way after replay).
  static util::Result<std::unique_ptr<WalWriter>> Open(
      const std::string& path, bool truncate);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  [[nodiscard]] util::Status Append(const WalRecord& record) EXCLUDES(mu_);

  // Chaos hook for ProcessCrashPoint::kMidWalAppend: writes only the first
  // `keep_bytes` bytes of the framed record -- the torn tail a crash
  // mid-append leaves behind -- and flushes.
  [[nodiscard]] util::Status AppendTorn(const WalRecord& record,
                                        size_t keep_bytes) EXCLUDES(mu_);

  uint64_t records_appended() const EXCLUDES(mu_);

  // Names the WAL lock so owners can declare ordering against it
  // (durability::ShardedDurableRegistry::mu_ precedes every stream's lock).
  util::Mutex& mu() const RETURN_CAPABILITY(mu_) { return mu_; }

 private:
  explicit WalWriter(std::FILE* file);

  mutable util::Mutex mu_;
  // The FILE handle itself: fwrite/fflush are serialized under mu_ (the
  // destructor's fclose runs race-free by the usual last-owner rule;
  // constructors/destructors are outside the analysis by design).
  std::FILE* file_ GUARDED_BY(mu_);
  uint64_t records_appended_ GUARDED_BY(mu_) = 0;
};

struct WalReadResult {
  std::vector<WalRecord> records;
  // Trailing bytes that do not form an intact record (torn final append).
  uint64_t torn_bytes = 0;
};

// Reads every intact record from `path`. A torn tail (a short final frame)
// is normal after a crash and is reported, not treated as an error; a
// missing file reads as an empty log. A complete frame that fails its
// checksum is kDataLoss; a checksum-valid frame that does not decode is
// kInvalidArgument.
util::Result<WalReadResult> ReadWal(const std::string& path);

// Truncates `path` back to its longest valid record prefix. Returns the
// number of bytes removed (0 when the log was already intact or missing).
// Fails, leaving the file byte-identical, on the frames ReadWal rejects.
util::Result<uint64_t> TruncateTornTail(const std::string& path);

// Recovery's single pass over one stream: ReadWal and TruncateTornTail from
// one read and one scan of the file. `torn_bytes` is what was cut.
util::Result<WalReadResult> ReadWalAndTruncateTornTail(
    const std::string& path);

}  // namespace nela::durability

#endif  // NELA_DURABILITY_WAL_H_
