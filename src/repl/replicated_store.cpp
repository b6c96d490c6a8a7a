#include "repl/replicated_store.hpp"

#include <cstring>

#include "util/check.hpp"

namespace vrep::repl {

ReplicatedStore::ReplicatedStore(sim::MemBus& bus, rio::Arena& arena,
                                 const core::StoreConfig& config, bool format,
                                 cluster::Membership* membership, Lineage lineage,
                                 std::size_t redo_history_bytes)
    : bus_(&bus),
      local_(std::make_unique<core::InlineLogStore>(bus, arena, config, format)),
      pipeline_(static_cast<RedoPipeline::Source&>(*this), nullptr, membership, lineage,
                redo_history_bytes) {
  bus.set_capture(local_->db(), local_->db_size(), this);
}

std::size_t ReplicatedStore::add_link(std::unique_ptr<ReplicationLink> link) {
  links_.push_back(std::move(link));
  if (links_.size() == 1) {
    pipeline_.attach_link(0, links_.back().get());
    return 0;
  }
  return pipeline_.add_peer(links_.back().get());
}

void ReplicatedStore::seed_from(const std::uint8_t* db, std::size_t size, std::uint64_t seq) {
  VREP_CHECK(size == local_->db_size());
  std::memcpy(local_->db(), db, size);
  local_->seed_committed_seq(seq);
}

void ReplicatedStore::on_captured_store(std::uint64_t off, const void* src, std::size_t len) {
  // The charge is free on a pass-through bus (no clock).
  bus_->charge(bus_->cost().io_store_base_ns +
               static_cast<sim::SimTime>(static_cast<double>(len) *
                                         bus_->cost().io_store_byte_ns));
  pipeline_.stage(off, src, len);
}

void ReplicatedStore::begin_transaction() {
  pipeline_.begin();
  local_->begin_transaction();
}

void ReplicatedStore::set_range(void* base, std::size_t len) { local_->set_range(base, len); }

void ReplicatedStore::abort_transaction() {
  local_->abort_transaction();
  pipeline_.discard();
}

void ReplicatedStore::commit_transaction() {
  local_->commit_transaction();
  // Asynchronous group commit: with the default window (W=1) and group size
  // (G=1) this ships and waits exactly like a blocking commit; wider
  // settings return once the in-flight window has room (the pipeline's
  // wait()/sync() give back the blocking semantics per ticket).
  pipeline_.commit_async(local_->committed_seq());
}

int ReplicatedStore::recover() {
  pipeline_.discard();
  return local_->recover();
}

}  // namespace vrep::repl
