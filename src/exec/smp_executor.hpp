// The real SMP primary (paper Figs 2-3, on actual hardware threads).
//
// The virtual-time harness reproduces the paper's 4-CPU scaling curves
// through sim::CacheModel; this executor produces the same shape with real
// std::thread workers on wall-clock time:
//
//   workers (N threads)                 sequencer (the caller of run())
//   ─────────────────────               ───────────────────────────────
//   pick a partition                    take the published prefix
//   acquire its core::Latch             per record, in ticket order:
//   run one workload txn                  pipeline.begin()
//   (bus capture -> TxnRecord)              pipeline.stage(...) per span
//   take an order ticket, release           pipeline.commit_async(++seq)
//   publish(ticket, record)   ──ring──▶ recycle the whole batch
//
// The database is partitioned: each partition is an independent Version 3
// store + workload instance over its own pass-through MemBus, mapped at
// global offset `partition_index * partition_db_size`. Workers latch a
// partition for the duration of one transaction; the store's write capture
// (the same mechanism repl::ReplicatedStore uses) globalizes the redo
// offsets into a thread-owned TxnRecord. Records are handed to the sequencer
// through a bounded ring indexed by order ticket. A worker takes its ticket
// (one atomic fetch_add) while the partition latch is still held, so ticket
// order is a linearization of every partition's commit order and the backup
// replays writes to each record in commit order. It publishes the record
// into the ring only after releasing the latch, so no worker blocks on a
// full ring while it holds a latch.
//
// The sequencer is the ONLY thread that touches the RedoPipeline and link
// (the pipeline stays single-writer; no protocol changes). It is the thread
// that calls run(), so the pipeline and link never change threads. Group
// commit and the bounded in-flight ack window are the natural backpressure:
// a 2-safe window stall blocks the sequencer, the bounded ring then blocks
// the workers. Partitioned multi-primary sequencing is the shard layer's job
// (shard/sharded_cluster.hpp).
//
// Threading contract (what the TSan preset verifies):
//   * a partition's store/workload/bus/current-record pointer are touched
//     only under its Latch, or by the owner before run() / after run();
//   * TxnRecords travel worker -> ring -> sequencer -> freelist, with every
//     handoff under a mutex (release/acquire ordered bytes); the sequencer
//     takes the whole published prefix of the ring under one lock and
//     returns a batch to the freelist under one lock;
//   * the pipeline + link are confined to the owner's thread, which is the
//     sequencer while run() is live;
//   * cross-thread counters (committed sequence) are atomics.
//
// Rejoin/sync/checkpoint operations read Source::db(), which gathers the
// partitions into one contiguous image — valid only while quiesced (before
// run() or after it returns); db() CHECKs this.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/api.hpp"
#include "core/latch.hpp"
#include "core/v3_inline_log.hpp"
#include "repl/pipeline.hpp"
#include "rio/arena.hpp"
#include "sim/mem_bus.hpp"
#include "workload/workload.hpp"

namespace vrep::exec {

struct SmpConfig {
  wl::WorkloadKind workload = wl::WorkloadKind::kDebitCredit;
  unsigned workers = 1;
  // Independent store partitions; 0 = 2x workers (random placement keeps
  // latch collisions moderate). Fewer partitions than workers forces
  // contention — useful in tests.
  unsigned partitions = 0;
  // Each partition's database region; the replicated image is the
  // concatenation of the partitions (partition p at offset p * this).
  std::size_t partition_db_size = 2u << 20;
  std::uint64_t txns_per_worker = 10'000;
  // Replication knobs, applied to the pipeline (ignored without a link).
  bool two_safe = false;
  unsigned quorum = 1;
  unsigned commit_window = 1;
  unsigned group_size = 1;
  // Staged-but-unsequenced transactions before workers block (backpressure
  // relayed from the sequencer / the 2-safe ack window): a worker whose
  // ticket is this far ahead of the sequencer waits to publish.
  std::size_t queue_capacity = 256;
  std::uint64_t seed = 1;
};

class SmpExecutor final : private repl::RedoPipeline::Source {
 public:
  // `link` may be null (no replication: the pipeline sequences into history
  // only). The executor seeds every partition's workload at construction.
  SmpExecutor(const SmpConfig& config, repl::ReplicationLink* link);
  ~SmpExecutor();
  SmpExecutor(const SmpExecutor&) = delete;
  SmpExecutor& operator=(const SmpExecutor&) = delete;

  struct Result {
    std::uint64_t committed = 0;
    double seconds = 0;
    double tps = 0;
    std::uint64_t latch_contended = 0;   // worker found a partition latch held
    std::uint64_t queue_full_waits = 0;  // worker blocked on the full ring
  };

  // Ship the current image + sequence to the attached backup (call before
  // run() to seed it; requires a quiesced executor, like every image read).
  bool sync_backup() { return pipeline_.sync_backup(); }

  // Run workers x txns_per_worker transactions on worker threads while the
  // calling thread sequences them, then pipeline.sync() so every commit is
  // resolved (2-safe: quorum-covered). Blocking; callable once.
  Result run();

  // Logical consistency of every partition's committed state (empty string
  // == consistent). Only valid while quiesced.
  std::string check_consistency() const;

  // Gathered contiguous image (what the backup replicates). Only valid
  // while quiesced.
  const std::uint8_t* image() const { return db(); }
  std::size_t image_size() const { return db_size(); }

  std::uint64_t sequenced() const { return committed_.load(std::memory_order_acquire); }
  unsigned partition_count() const { return static_cast<unsigned>(partitions_.size()); }

  // Protocol engine — knobs and stats for tests/benches. Touch only while
  // quiesced (run() drives it).
  repl::RedoPipeline& pipeline() { return pipeline_; }

 private:
  // One committed transaction's captured redo: concatenated payload bytes
  // plus {global offset, length} spans. Pooled and recycled so the steady
  // state allocates nothing per transaction.
  struct TxnRecord {
    std::vector<std::uint8_t> bytes;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> spans;
    void clear() {
      bytes.clear();
      spans.clear();
    }
  };

  // An independent store partition; it is its own capture sink so a store
  // write lands in the right record with a globalized offset. All fields are
  // guarded by `latch` while worker threads run (see the threading contract
  // above).
  struct Partition final : sim::MemBus::CaptureSink {
    rio::Arena arena;
    sim::MemBus bus;  // pass-through: wall-clock deployment, capture only
    std::unique_ptr<core::InlineLogStore> store;
    std::unique_ptr<wl::Workload> workload;
    core::Latch latch;
    std::uint64_t base = 0;         // global offset of this partition's db
    TxnRecord* current = nullptr;   // record of the txn running under latch

    // Coalesces stores adjacent to the previous span (a set_range's writes
    // arrive back to back) so span overhead stays small on the wire.
    void on_captured_store(std::uint64_t off, const void* src, std::size_t len) override;
  };

  // Bounded MPSC handoff worker -> sequencer, ordered by ticket: ticket t
  // lands in slot t % capacity, and the sequencer consumes tickets strictly
  // in order from head_. publish() blocks only while its ticket is a full
  // ring ahead of head_, so the holder of ticket head_ can always publish and
  // the sequencer always makes progress.
  class StagingQueue {
   public:
    explicit StagingQueue(std::size_t capacity) : slots_(capacity, nullptr) {}
    // Take the next order ticket. Call under the partition latch, which then
    // orders the tickets of one partition as it orders their commits.
    std::uint64_t ticket() { return next_ticket_.fetch_add(1); }
    void publish(std::uint64_t ticket, TxnRecord* record);  // blocks while full
    // Blocks until ticket head_ is published, then appends every published
    // record from head_ on to `out`, in ticket order.
    void take(std::vector<TxnRecord*>& out);
    std::size_t capacity() const { return slots_.size(); }
    std::uint64_t full_waits() const;  // call after the threads are joined

   private:
    std::atomic<std::uint64_t> next_ticket_{0};
    mutable std::mutex mu_;
    std::condition_variable can_publish_;
    std::condition_variable can_take_;
    std::vector<TxnRecord*> slots_;  // null = not yet published
    std::uint64_t head_ = 0;         // next ticket the sequencer takes
    std::uint64_t full_waits_ = 0;
  };

  // RedoPipeline::Source — db() gathers the partitions (quiesced only).
  const std::uint8_t* db() const override;
  std::size_t db_size() const override { return stride_ * partitions_.size(); }
  std::uint64_t committed_seq() const override {
    return committed_.load(std::memory_order_acquire);
  }

  void worker_main(unsigned index);
  void sequencer_main();
  TxnRecord* acquire_record();
  void release_records(const std::vector<TxnRecord*>& records);

  SmpConfig config_;
  std::size_t stride_;  // == config_.partition_db_size
  std::vector<std::unique_ptr<Partition>> partitions_;
  StagingQueue queue_;
  std::mutex free_mu_;
  std::vector<std::unique_ptr<TxnRecord>> records_;  // owns every record
  std::vector<TxnRecord*> free_;
  std::atomic<std::uint64_t> committed_{0};
  std::atomic<bool> quiesced_{true};
  bool ran_ = false;
  mutable std::vector<std::uint8_t> image_;  // gather buffer for db()
  repl::RedoPipeline pipeline_;  // last: constructed over *this as Source
};

}  // namespace vrep::exec
