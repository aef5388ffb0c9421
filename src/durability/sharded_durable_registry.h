// WAL-then-apply wrapper for the service: K independent WAL streams, one
// per shard, in front of the single authoritative registry (K=1 is one
// stream).
//
// Stream discipline: one turnstile commit -- however many clusters it
// registers, and whichever shards own them -- is appended as ONE
// kShardRegisterBatch record to exactly one stream: the *coordinating*
// shard's (the home shard of the request that committed). That keeps the
// single-stream atomicity property per stream (a torn tail hides whole
// commits, never partial ones) without a cross-stream commit protocol.
// Every later kSetRegion for a cluster goes to the stream that logged its
// batch, so each stream replays self-contained: RecoverShard(s) is a pure
// function of shard s's directory.
//
// Because commits are serialized by the service turnstile and each lands
// in one stream, the union of all streams at any crash instant is a prefix
// of the global commit history with at most ONE torn record total -- the
// stream being appended when the process died. That is the "crash one
// shard, recover it, resume" contract: sibling shard directories are
// byte-identical to an uninterrupted run's.
//
// Lock order: ShardedDurableRegistry::mu_ -> WalWriter::mu_ ->
// Registry::mu_, declared to the analysis via ACQUIRED_BEFORE on mu_.
// Holding mu_ across (assign lsn, append, apply) is what lets
// CheckpointAll() claim each stream's exact covered_lsn: no mutation can
// land between the snapshot and the position it records. Callers must not
// hold the registry mutex when calling in.
//
// Checkpoint cost. Every registry mutation in a durable run passes through
// this class, so each stream keeps its slice's checkpoint entries already
// encoded: RegisterBatch appends one entry per cluster and SetRegion
// patches the entry's region bytes in place. A cut writes the header, the
// cached entries and the FNV trailer -- O(slice) bytes, no registry reads,
// no per-cluster copies. A stream whose covered lsn has not moved since
// its last cut in this process is not cut again (its newest checkpoint
// already holds the same image). After a cut is written and flushed, every
// older checkpoint of that stream except the one before it is deleted;
// that is safe because the WAL is never truncated, so a recovery that
// rejects both kept checkpoints replays the whole stream.
//
// Cut writes. CheckpointAll snapshots each moved stream's header and
// cached entries under mu_ and queues them; hashing, writing the file and
// pruning happen under no lock the commit path takes. By default
// CheckpointAll then writes the queue itself, so its files exist when it
// returns. After DeferCutWrites() it returns once the snapshots are
// queued, and the service's workers write them between requests
// (WriteQueuedCuts) and at the end of the run (DrainCuts): file-system
// latency then never stalls a commit. A queued cut that a newer cut of
// the same stream overtakes before it is written is dropped -- a
// checkpoint only bounds replay, and the newer one covers more.
//
// The crash scheduler hook injects ProcessCrashPoint::kMidWalAppend and
// kMidCheckpoint faults: the record or checkpoint is half-written, nothing
// is applied, and the call returns kUnavailable, after which the driver
// halts as crashed. Once any crash point has fired, every later append
// also returns kUnavailable and writes nothing, as in a dead process.

#ifndef NELA_DURABILITY_SHARDED_DURABLE_REGISTRY_H_
#define NELA_DURABILITY_SHARDED_DURABLE_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/registry.h"
#include "durability/crash_scheduler.h"
#include "durability/wal.h"
#include "geo/rect.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace nela::durability {

class ShardedDurableRegistry {
 public:
  // Creates the shard directories under `base_dir` and opens one WAL
  // stream per shard. `next_lsns` (size shard_count) continues each
  // stream's lsn sequence (all 1 on a fresh run); `stream_of` seeds the
  // cluster -> logging-stream map from recovery (empty on a fresh run);
  // `truncate` starts fresh logs. `registry` and `crash` (nullable) must
  // outlive the instance.
  static util::Result<std::unique_ptr<ShardedDurableRegistry>> Open(
      cluster::Registry* registry, const std::string& base_dir,
      uint32_t shard_count, CrashPointScheduler* crash,
      std::vector<uint64_t> next_lsns,
      std::unordered_map<cluster::ClusterId, uint32_t> stream_of,
      bool truncate);

  // Logs one atomic commit (all `clusters`, with their soon-to-be global
  // ids) to `stream`, then applies the registrations to the registry.
  [[nodiscard]] util::Status RegisterBatch(
      uint32_t stream, const std::vector<cluster::ClusterInfo>& clusters)
      EXCLUDES(mu_);

  // Logs the region to the stream that logged `id`'s batch, then applies.
  [[nodiscard]] util::Status SetRegion(cluster::ClusterId id,
                                       const geo::Rect& region) EXCLUDES(mu_);

  // Cuts checkpoint `seq` for every stream that moved since its last cut:
  // shard s's file holds the clusters logged in stream s (current regions
  // included) at stream s's current covered lsn, written from the cached
  // entries. Each written cut prunes the stream to two checkpoints (this
  // one and the one before it). Every stream, moved or not, passes the
  // kMidCheckpoint crash point in order, so a FaultPlan fires at the same
  // stream as it would with no skipping: the crash writes every queued cut,
  // tears that stream's file for `seq` and leaves the remaining shards'
  // files uncut.
  [[nodiscard]] util::Status CheckpointAll(uint64_t seq) EXCLUDES(mu_);

  // From now on CheckpointAll only queues its cuts (see "Cut writes"
  // above); the caller must write them with WriteQueuedCuts or DrainCuts.
  void DeferCutWrites() EXCLUDES(mu_);
  // Writes the queued cuts unless another thread is already writing them;
  // returns at once when there is nothing to do. Returns the first write
  // or prune error.
  [[nodiscard]] util::Status WriteQueuedCuts() EXCLUDES(cuts_mu_);
  // Waits for any thread writing cuts, then writes every queued cut.
  // After it returns OK, every cut CheckpointAll has queued is on disk or
  // was overtaken by one that is.
  [[nodiscard]] util::Status DrainCuts() EXCLUDES(cuts_mu_);

  // Test hook for the differential check of the cached image. While one is
  // installed (process-wide; an empty function removes it), CheckpointAll
  // also encodes each stream's image from the registry -- reading every
  // cluster of the slice back out of it, the reference the cache must
  // match -- and calls `audit(stream, newest_checkpoint_path,
  // reference_bytes)` after the stream is cut or skipped, having written
  // the queue first even when writes are deferred, so every cut is
  // audited. `newest_checkpoint_path` is the file recovery would restore
  // first; a correct cache makes its bytes equal `reference_bytes`. Not
  // for production use: the reference costs what the cache saves.
  using CutAudit = std::function<void(uint32_t stream,
                                      const std::string& newest_checkpoint,
                                      const std::string& reference)>;
  static void SetCutAuditForTesting(CutAudit audit);

  uint32_t stream_count() const {
    return static_cast<uint32_t>(wals_.size());
  }
  uint64_t wal_records() const;
  uint64_t wal_records_for(uint32_t stream) const;
  uint64_t last_lsn(uint32_t stream) const EXCLUDES(mu_);

 private:
  // Appends `record` to `stream`, or -- when the crash scheduler fires
  // kMidWalAppend -- tears it on disk and returns kUnavailable.
  [[nodiscard]] util::Status AppendLocked(uint32_t stream,
                                          const WalRecord& record)
      REQUIRES(mu_);

  // One stream's checkpoint state.
  struct Slice {
    // Ids the stream logged, ascending (commits arrive in id order), and
    // their encoded checkpoint entries: entries[i] is
    // AppendShardCheckpointEntry of ids[i] with its current region.
    std::vector<cluster::ClusterId> ids;
    std::vector<std::string> entries;
    // Covered lsn and seq of this process's last cut of the stream, if any.
    std::optional<uint64_t> cut_lsn;
    uint64_t cut_seq = 0;
  };

  // A stream's newest cut not yet written: header and entries, without
  // the FNV trailer (the writer appends it).
  struct QueuedCut {
    bool queued = false;
    uint64_t seq = 0;
    std::string body;
  };

  ShardedDurableRegistry(cluster::Registry* registry, std::string base_dir,
                         CrashPointScheduler* crash,
                         std::vector<uint64_t> next_lsns,
                         std::unordered_map<cluster::ClusterId, uint32_t>
                             stream_of);

  // Appends the entry of registered cluster `id` to `stream`'s slice.
  void CacheEntryLocked(uint32_t stream, cluster::ClusterId id)
      REQUIRES(mu_);
  // Header and cached entries of `stream`'s checkpoint at its current
  // covered lsn -- the whole file but the FNV trailer; left in cut_bytes_.
  void EncodeCutBodyLocked(uint32_t stream) REQUIRES(mu_);
  // The whole file built from the registry (the CutAudit reference).
  std::string ReferenceCutLocked(uint32_t stream) const REQUIRES(mu_);
  // Takes the writer role -- waiting for it when `wait`, else returning at
  // once if another thread holds it -- and writes queued cuts until none
  // is left or one fails.
  [[nodiscard]] util::Status WriteCuts(bool wait) EXCLUDES(cuts_mu_);
  // Seals `body` with its trailer, writes it as cut `seq` of `stream`,
  // records it and deletes every older checkpoint of the stream except the
  // newest of them. Writer role only.
  [[nodiscard]] util::Status WriteCut(uint32_t stream, uint64_t seq,
                                      std::string* body);

  cluster::Registry* registry_;
  const std::string base_dir_;
  const uint32_t user_count_;
  CrashPointScheduler* crash_;
  // Stream handles are append-only after Open; each WalWriter serializes
  // its own appends internally.
  std::vector<std::unique_ptr<WalWriter>> wals_;

  // This lock precedes every stream's WAL lock and the registry's.
  mutable util::Mutex mu_ ACQUIRED_BEFORE(registry_->mu());
  std::vector<uint64_t> next_lsns_ GUARDED_BY(mu_);
  // Cluster id -> stream that logged it (SetRegion routing).
  std::unordered_map<cluster::ClusterId, uint32_t> stream_of_
      GUARDED_BY(mu_);
  std::vector<Slice> slices_ GUARDED_BY(mu_);
  bool defer_cut_writes_ GUARDED_BY(mu_) = false;
  // Scratch for the file being cut; keeps its capacity between cuts (it
  // trades buffers with the queue).
  std::string cut_bytes_ GUARDED_BY(mu_);

  // The cut queue, one slot per stream. Taken after mu_ (CheckpointAll
  // queues under both); never held across file I/O.
  util::Mutex cuts_mu_ ACQUIRED_AFTER(mu_);
  util::CondVar writer_done_;
  std::vector<QueuedCut> queued_ GUARDED_BY(cuts_mu_);
  // Set while one thread holds the writer role: only that thread touches
  // the members below, which cuts_mu_ hands from holder to holder.
  bool writer_busy_ GUARDED_BY(cuts_mu_) = false;
  // Per stream, the checkpoint seqs on disk, ascending, intact or not
  // (seeded from the directory at Open, so a resumed run prunes what a
  // crash left).
  std::vector<std::vector<uint64_t>> kept_seqs_;
  // The body being written; keeps its capacity between cuts.
  std::string writing_;
};

}  // namespace nela::durability

#endif  // NELA_DURABILITY_SHARDED_DURABLE_REGISTRY_H_
