#include "shard/rebalancer.hpp"

#include <chrono>
#include <cstring>

#include "core/latch.hpp"
#include "util/check.hpp"
#include "util/metrics.hpp"

namespace vrep::shard {

namespace {

std::int32_t read_balance(const std::uint8_t* db, std::uint64_t off) {
  std::int32_t v;
  std::memcpy(&v, db + off, sizeof v);
  return v;
}

// Enumerate the moving set of live -> target over every balance-carrying
// record kind (the ownership rule lives in ShardedCluster::record_key).
template <typename Fn>
void for_each_move(const ShardMap& live, const ShardMap& target,
                   const wl::DebitCredit& workload, Fn&& fn) {
  const auto scan = [&](unsigned kind, std::size_t count, auto offset_of) {
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t hash = hash_key(ShardedCluster::record_key(kind, i));
      const ShardId src = live.shard_of(hash);
      const ShardId dst = target.shard_of(hash);
      if (src != dst) fn(src, dst, static_cast<std::uint64_t>(offset_of(i)));
    }
  };
  scan(0, workload.num_accounts(), [&](std::size_t i) { return workload.account_offset(i); });
  scan(1, workload.num_tellers(), [&](std::size_t i) { return workload.teller_offset(i); });
  scan(2, workload.num_branches(), [&](std::size_t i) { return workload.branch_offset(i); });
}

}  // namespace

std::size_t Rebalancer::moving_records(const ShardMap& live, const ShardMap& target,
                                       const wl::DebitCredit& workload) {
  std::size_t n = 0;
  for_each_move(live, target, workload, [&](ShardId, ShardId, std::uint64_t) { ++n; });
  return n;
}

void Rebalancer::begin(const ShardMap& target) {
  VREP_CHECK(cluster_.migration_ == nullptr);
  VREP_CHECK(target.version() == cluster_.map_.version() + 1);
  // Materialize any shards the target names before any byte moves; they
  // replicate from their first commit but the live map routes nothing to
  // them until the cutover.
  while (cluster_.num_shards() < target.num_shards()) cluster_.add_shard();

  std::vector<ShardedCluster::Migration::Move> moves;
  for_each_move(cluster_.map_, target, cluster_.workload_,
                [&](ShardId src, ShardId dst, std::uint64_t off) {
                  moves.push_back({src, dst, off});
                });
  auto migration = std::make_unique<ShardedCluster::Migration>(target, std::move(moves));

  // Publish under every shard latch: any committer that could observe the
  // tracking holds one of these, so after this block note_write sees the
  // migration or the pre-migration null, never a torn state.
  const unsigned n = cluster_.num_shards();
  for (unsigned i = 0; i < n; ++i) cluster_.shard_latch(i).lock();
  {
    std::lock_guard<std::mutex> map_lock(cluster_.map_mu_);
    cluster_.migration_ = std::move(migration);
  }
  for (unsigned i = n; i-- > 0;) cluster_.shard_latch(i).unlock();
  metrics::counter("shard.rebalance.migrations").add(1);
}

std::uint64_t Rebalancer::begin_split(ShardId shard, std::uint64_t at_hash) {
  if (at_hash == 0) {
    // Midpoint of the shard's first owned range: (lower, upper].
    std::uint64_t lower = 0;
    bool found = false;
    for (std::size_t r = 0; r < cluster_.map_.num_ranges(); ++r) {
      const std::uint64_t upper = cluster_.map_.upper_bound(r);
      if (cluster_.map_.owner(r) == shard) {
        at_hash = lower + (upper - lower) / 2;
        found = true;
        break;
      }
      lower = upper;
    }
    VREP_CHECK(found);
  }
  begin(cluster_.map_.split(at_hash));
  return at_hash;
}

void Rebalancer::begin_merge(ShardId victim) { begin(cluster_.map_.merged_out(victim)); }

bool Rebalancer::step() {
  ShardedCluster::Migration* m = cluster_.migration_.get();
  if (m == nullptr) return false;

  // Collect one src->dst flow's chunk. Flags and source balances are only
  // touched under the source shard's latch; zero balances are absorbed
  // right here (nothing to ship — marking them transferred is safe because
  // any later bump lands via note_write as dirty).
  std::vector<std::size_t> chunk;
  ShardId src = 0;
  ShardId dst = 0;
  bool more = false;
  const unsigned shards = cluster_.num_shards();
  for (unsigned s = 0; s < shards && chunk.empty(); ++s) {
    core::LatchGuard guard(cluster_.shard_latch(s));
    const std::uint8_t* db = cluster_.shard_db_ptr(s);
    for (std::size_t i = 0; i < m->moves.size(); ++i) {
      const auto& move = m->moves[i];
      if (move.src != s) continue;
      if (m->transferred[i] != 0 && m->dirty[i] == 0) continue;
      if (read_balance(db, move.off) == 0) {
        // Nothing to ship; if it was dirty the residual is already zero.
        m->transferred[i] = 1;
        m->dirty[i] = 0;
        continue;
      }
      if (!chunk.empty() && move.dst != dst) {
        more = true;  // another flow still has work after this chunk
        continue;
      }
      if (chunk.size() >= config_.chunk_records) {
        more = true;
        break;
      }
      src = move.src;
      dst = move.dst;
      chunk.push_back(i);
    }
  }
  if (chunk.empty()) return more;

  // Ship the chunk as one cross-shard 2PC transaction homed on the SOURCE:
  // its decision record rides the source's redo stream, so a mid-chunk
  // death resolves through the same in-doubt machinery as any cross-shard
  // txn. The write generators run under both shard latches; the
  // bookkeeping flips inside the home generator, atomically with the
  // commit — an aborted chunk leaves every flag untouched and is retried.
  const ShardedCluster::WriteGen remote_writes = [this, m, &chunk, src, dst] {
    std::vector<ShardedCluster::Write> w;
    for (const std::size_t i : chunk) {
      const std::uint64_t off = m->moves[i].off;
      const std::int32_t v = read_balance(cluster_.shard_db_ptr(src), off);
      if (v != 0) {
        const std::int32_t landed = read_balance(cluster_.shard_db_ptr(dst), off) + v;
        std::vector<std::uint8_t> bytes(sizeof landed);
        std::memcpy(bytes.data(), &landed, sizeof landed);
        w.push_back({off, std::move(bytes)});
      }
    }
    return w;
  };
  const ShardedCluster::WriteGen home_writes = [this, m, &chunk, src] {
    std::vector<ShardedCluster::Write> w;
    std::uint64_t moved = 0;
    for (const std::size_t i : chunk) {
      const std::uint64_t off = m->moves[i].off;
      if (read_balance(cluster_.shard_db_ptr(src), off) != 0) {
        w.push_back({off, std::vector<std::uint8_t>(sizeof(std::int32_t), 0)});
        moved += 1;
      }
      m->transferred[i] = 1;
      m->dirty[i] = 0;
    }
    cluster_.rb_records_moved_.fetch_add(moved, std::memory_order_relaxed);
    cluster_.rb_bytes_moved_.fetch_add(moved * sizeof(std::int32_t),
                                       std::memory_order_relaxed);
    metrics::counter("shard.rebalance.bytes_moved").add(moved * sizeof(std::int32_t));
    return w;
  };

  const std::uint64_t home_seq = cluster_.commit_cross(src, dst, home_writes, remote_writes,
                                                       ShardedCluster::InCommitKill{});
  VREP_CHECK(home_seq != 0);  // no chaos kill: a live chunk always commits
  cluster_.rb_chunks_.fetch_add(1, std::memory_order_relaxed);
  metrics::counter("shard.rebalance.chunks").add(1);
  return true;
}

bool Rebalancer::cutover() {
  ShardedCluster::Migration* m = cluster_.migration_.get();
  if (m == nullptr) return false;

  // The fence: hold every shard latch while verifying the moving set is
  // fully drained, then flip the map. Any record still pending means a
  // commit raced the drain — back off and keep stepping.
  const auto t0 = std::chrono::steady_clock::now();
  const unsigned n = cluster_.num_shards();
  for (unsigned i = 0; i < n; ++i) cluster_.shard_latch(i).lock();
  bool clean = true;
  for (std::size_t i = 0; i < m->moves.size() && clean; ++i) {
    clean = m->transferred[i] != 0 && m->dirty[i] == 0;
  }
  if (clean) {
    std::lock_guard<std::mutex> map_lock(cluster_.map_mu_);
    cluster_.map_ = m->target;
    cluster_.migration_.reset();
  }
  for (unsigned i = n; i-- > 0;) cluster_.shard_latch(i).unlock();
  if (clean) {
    const auto stall = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
    cluster_.rb_cutover_stall_ns_.fetch_add(static_cast<std::uint64_t>(stall),
                                            std::memory_order_relaxed);
    cluster_.rb_cutovers_.fetch_add(1, std::memory_order_relaxed);
    metrics::counter("shard.rebalance.cutovers").add(1);
    metrics::counter("shard.rebalance.cutover_stall_ns")
        .add(static_cast<std::uint64_t>(stall));
  }
  return clean;
}

void Rebalancer::run_to_completion() {
  while (active()) {
    if (!step()) cutover();
  }
}

}  // namespace vrep::shard
