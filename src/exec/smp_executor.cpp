#include "exec/smp_executor.hpp"

#include <chrono>
#include <cstring>
#include <thread>

#include "util/check.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace vrep::exec {

// ---------------------------------------------------------------------------
// Partition capture sink
// ---------------------------------------------------------------------------

void SmpExecutor::Partition::on_captured_store(std::uint64_t off, const void* src,
                                               std::size_t len) {
  // Called with this partition's latch held (the capture window only covers
  // this partition's db region, written by the latched workload txn).
  TxnRecord* rec = current;
  VREP_DCHECK(rec != nullptr);
  if (rec == nullptr) return;  // capture outside a worker txn: nothing to ship
  const std::uint64_t global = base + off;
  if (!rec->spans.empty()) {
    auto& last = rec->spans.back();
    if (last.first + last.second == global) {
      // Contiguous with the previous store (a set_range's writes arrive back
      // to back): extend the span instead of growing the table.
      last.second += static_cast<std::uint32_t>(len);
      const auto* p = static_cast<const std::uint8_t*>(src);
      rec->bytes.insert(rec->bytes.end(), p, p + len);
      return;
    }
  }
  rec->spans.emplace_back(global, static_cast<std::uint32_t>(len));
  const auto* p = static_cast<const std::uint8_t*>(src);
  rec->bytes.insert(rec->bytes.end(), p, p + len);
}

// ---------------------------------------------------------------------------
// StagingQueue
// ---------------------------------------------------------------------------

void SmpExecutor::StagingQueue::publish(std::uint64_t ticket, TxnRecord* record) {
  std::unique_lock<std::mutex> lock(mu_);
  if (ticket >= head_ + slots_.size()) {
    ++full_waits_;
    can_publish_.wait(lock, [&] { return ticket < head_ + slots_.size(); });
  }
  slots_[ticket % slots_.size()] = record;
  // Only ticket head_ can unblock the sequencer, which waits on that slot.
  if (ticket == head_) can_take_.notify_one();
}

void SmpExecutor::StagingQueue::take(std::vector<TxnRecord*>& out) {
  std::unique_lock<std::mutex> lock(mu_);
  const std::size_t capacity = slots_.size();
  can_take_.wait(lock, [&] { return slots_[head_ % capacity] != nullptr; });
  while (TxnRecord*& slot = slots_[head_ % capacity]) {
    out.push_back(slot);
    slot = nullptr;
    ++head_;
  }
  can_publish_.notify_all();
}

std::uint64_t SmpExecutor::StagingQueue::full_waits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return full_waits_;
}

// ---------------------------------------------------------------------------
// SmpExecutor
// ---------------------------------------------------------------------------

SmpExecutor::SmpExecutor(const SmpConfig& config, repl::ReplicationLink* link)
    : config_(config),
      stride_(config.partition_db_size),
      queue_(config.queue_capacity == 0 ? 1 : config.queue_capacity),
      pipeline_(*this, link) {
  VREP_CHECK(config_.workers >= 1);
  if (config_.partitions == 0) config_.partitions = config_.workers * 2;
  partitions_.reserve(config_.partitions);
  for (unsigned p = 0; p < config_.partitions; ++p) {
    auto part = std::make_unique<Partition>();
    core::StoreConfig store_cfg = wl::suggest_config(config_.workload, stride_);
    store_cfg.db_size = stride_;
    part->arena = rio::Arena::create(
        core::required_arena_size(core::VersionKind::kV3InlineLog, store_cfg));
    part->store = std::make_unique<core::InlineLogStore>(part->bus, part->arena,
                                                         store_cfg, /*format=*/true);
    part->workload = wl::make_workload(config_.workload, stride_);
    part->workload->initialize(*part->store);
    part->store->flush_initial_state();
    part->base = static_cast<std::uint64_t>(p) * stride_;
    // Capture from here on: the initial image ships via sync_backup(), only
    // transaction writes become redo.
    part->bus.set_capture(part->store->db(), stride_, part.get());
    partitions_.push_back(std::move(part));
  }
  pipeline_.set_two_safe(config_.two_safe);
  pipeline_.set_commit_window(config_.commit_window);
  pipeline_.set_group_size(config_.group_size);
  // Pre-size the record pool so the steady state never allocates: the ring
  // and the sequencer's batch each hold up to a queue's worth of records,
  // and every worker holds one more in flight.
  std::lock_guard<std::mutex> lock(free_mu_);
  for (std::size_t i = 0; i < 2 * queue_.capacity() + config_.workers + 1; ++i) {
    records_.push_back(std::make_unique<TxnRecord>());
    free_.push_back(records_.back().get());
  }
}

SmpExecutor::~SmpExecutor() = default;

const std::uint8_t* SmpExecutor::db() const {
  // Gathering partitions into one contiguous image is only coherent while no
  // worker can write: before run() (seeding backups) or after it returned
  // (final sync, rejoins, checkpoints).
  VREP_CHECK(quiesced_.load(std::memory_order_acquire));
  image_.resize(db_size());
  for (const auto& part : partitions_) {
    std::memcpy(image_.data() + part->base, part->store->db(), stride_);
  }
  return image_.data();
}

SmpExecutor::TxnRecord* SmpExecutor::acquire_record() {
  std::lock_guard<std::mutex> lock(free_mu_);
  if (free_.empty()) {
    records_.push_back(std::make_unique<TxnRecord>());
    return records_.back().get();
  }
  TxnRecord* record = free_.back();
  free_.pop_back();
  return record;
}

void SmpExecutor::release_records(const std::vector<TxnRecord*>& records) {
  std::lock_guard<std::mutex> lock(free_mu_);
  free_.insert(free_.end(), records.begin(), records.end());
}

void SmpExecutor::worker_main(unsigned index) {
  // Distinct deterministic stream per worker; the partition pick and the
  // workload's own randomness both draw from it.
  Rng rng(config_.seed * 0x9e3779b97f4a7c15ull + index + 1);
  const std::size_t nparts = partitions_.size();
  for (std::uint64_t i = 0; i < config_.txns_per_worker; ++i) {
    Partition& part = *partitions_[rng.next_u32() % nparts];
    TxnRecord* rec = acquire_record();
    rec->clear();
    std::uint64_t ticket = 0;
    {
      core::LatchGuard guard(part.latch);
      part.current = rec;
      part.workload->run_txn(*part.store, rng);
      part.current = nullptr;
      // Take the ticket before releasing the latch: ticket order is then a
      // linearization of this partition's commit order, so the backup
      // applies overlapping writes in the order they committed.
      ticket = queue_.ticket();
    }
    // Publish with the latch released: a full ring blocks this worker only,
    // never the next transaction on its partition.
    queue_.publish(ticket, rec);
  }
}

void SmpExecutor::sequencer_main() {
  // The lone writer into the pipeline: replays each record's captured spans
  // as staged redo and commits it under the next global sequence. 2-safe
  // window stalls block here; the bounded ring relays the backpressure to
  // the workers. Every worker publishes exactly txns_per_worker records.
  const std::uint64_t total = std::uint64_t{config_.workers} * config_.txns_per_worker;
  std::vector<TxnRecord*> batch;
  batch.reserve(queue_.capacity());
  for (std::uint64_t taken = 0; taken < total; taken += batch.size()) {
    batch.clear();
    queue_.take(batch);
    for (TxnRecord* rec : batch) {
      pipeline_.begin();
      const std::uint8_t* p = rec->bytes.data();
      for (const auto& [off, len] : rec->spans) {
        pipeline_.stage(off, p, len);
        p += len;
      }
      const std::uint64_t seq = committed_.load(std::memory_order_relaxed) + 1;
      // Publish before commit_async: the pipeline reads Source::committed_seq
      // on its commit path (shipped watermark), expecting the local commit to
      // precede it — same order as repl::ReplicatedStore.
      committed_.store(seq, std::memory_order_release);
      pipeline_.commit_async(seq);
    }
    release_records(batch);
  }
}

SmpExecutor::Result SmpExecutor::run() {
  VREP_CHECK(!ran_);
  ran_ = true;
  quiesced_.store(false, std::memory_order_release);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(config_.workers);
  for (unsigned w = 0; w < config_.workers; ++w) {
    workers.emplace_back([this, w] { worker_main(w); });
  }
  // Sequence on this thread rather than a fresh one: besides keeping the
  // pipeline on its owner's thread, the redo history it allocates then stays
  // in this thread's malloc arena from one executor to the next, where a new
  // thread per run() could leave a history-sized free block in every arena.
  sequencer_main();
  for (auto& t : workers) t.join();
  // Resolve everything still in flight (ship a partial group, wait out the
  // 2-safe window) so `committed` below is fully replicated.
  pipeline_.sync();
  const auto t1 = std::chrono::steady_clock::now();
  quiesced_.store(true, std::memory_order_release);

  Result r;
  r.committed = sequenced();
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.tps = r.seconds > 0 ? static_cast<double>(r.committed) / r.seconds : 0;
  for (const auto& part : partitions_) r.latch_contended += part->latch.contended();
  r.queue_full_waits = queue_.full_waits();
  metrics::counter("exec.smp.txns_committed").add(r.committed);
  metrics::counter("exec.smp.latch_contended").add(r.latch_contended);
  metrics::counter("exec.smp.queue_full_waits").add(r.queue_full_waits);
  return r;
}

std::string SmpExecutor::check_consistency() const {
  VREP_CHECK(quiesced_.load(std::memory_order_acquire));
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    const std::string err = partitions_[p]->workload->check_consistency(*partitions_[p]->store);
    if (!err.empty()) {
      return "partition " + std::to_string(p) + ": " + err;
    }
  }
  return "";
}

}  // namespace vrep::exec
