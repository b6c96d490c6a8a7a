// Randomized cross-version conformance: seeded random histories — commit /
// abort / crash interleavings over variable-size, overlapping ranges — are
// driven through every store version (V0 Vista, V1 mirror-copy, V2
// mirror-diff, V3 inline-log) and checked against a pure in-memory oracle.
//
// The oracle is derived from the seed alone (no store involved): committed
// transactions apply their bytes, aborted ones vanish. A fault-free run must
// leave the store's database bit-identical to the oracle (so all four
// versions agree with each other by transitivity). A crash run reboots and
// recovers the surviving arena; the survivor must then match the oracle
// image at exactly its recovered commit count — all-or-nothing, never torn.
//
// The seed matrix is fixed (kSeeds of them, every kCrashEvery-th armed with
// a random mid-history crash) so CI is deterministic; each check is wrapped
// in a SCOPED_TRACE that prints the seed, so a failure names the exact
// history to replay.
#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "repl/applier.hpp"
#include "repl/link.hpp"
#include "repl/pipeline.hpp"
#include "rio/arena.hpp"
#include "rio/crash.hpp"
#include "sim/mem_bus.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace vrep {
namespace {

using core::StoreConfig;
using core::VersionKind;

constexpr VersionKind kAllVersions[] = {
    VersionKind::kV0Vista,
    VersionKind::kV1MirrorCopy,
    VersionKind::kV2MirrorDiff,
    VersionKind::kV3InlineLog,
};

constexpr std::uint64_t kSeeds = 32;
constexpr std::uint64_t kCrashEvery = 4;  // seeds 0,4,8,... get a crash

StoreConfig random_config() {
  StoreConfig config;
  config.db_size = 32 * 1024;
  config.max_ranges_per_txn = 16;
  config.undo_log_capacity = 32 * 1024;
  config.heap_size = 512 * 1024;
  config.v0_meta_pad_bytes = 32;
  return config;
}

// Drive the seed's deterministic history through `store`. When `oracle` is
// non-null, committed writes are mirrored into it and `crc_at` records the
// oracle CRC after every commit (index = committed count; slot 0, the
// initial image, is pushed by the caller). Aborts leave both untouched.
// Throws rio::SimulatedCrash if the bus write hook is armed.
void run_history(core::TransactionStore& store, std::uint64_t seed,
                 std::vector<std::uint8_t>* oracle, std::vector<std::uint32_t>* crc_at) {
  Rng rng(seed * 2654435761u + 1);
  const int txns = 24 + static_cast<int>(rng.below(24));
  std::uint8_t* db = store.db();
  for (int t = 0; t < txns; ++t) {
    const bool abort = rng.below(8) == 0;
    const int ranges = 1 + static_cast<int>(rng.below(5));
    struct Write {
      std::size_t off;
      std::vector<std::uint8_t> bytes;
    };
    std::vector<Write> writes;
    store.begin_transaction();
    for (int r = 0; r < ranges; ++r) {
      // Variable lengths, unaligned offsets, natural overlap across ranges.
      const std::size_t len = 4 + rng.below(60);
      const std::size_t off = rng.below(store.db_size() - len);
      store.set_range(db + off, len);
      Write w{off, std::vector<std::uint8_t>(len)};
      for (auto& b : w.bytes) b = static_cast<std::uint8_t>(rng.next_u32());
      store.bus().write(db + off, w.bytes.data(), len, sim::TrafficClass::kModified);
      writes.push_back(std::move(w));
    }
    if (abort) {
      store.abort_transaction();
      continue;
    }
    store.commit_transaction();
    if (oracle != nullptr) {
      for (const Write& w : writes) {
        std::memcpy(oracle->data() + w.off, w.bytes.data(), w.bytes.size());
      }
      if (crc_at != nullptr) crc_at->push_back(Crc32::of(oracle->data(), oracle->size()));
    }
  }
}

class RandomConformanceTest : public ::testing::TestWithParam<VersionKind> {};

TEST_P(RandomConformanceTest, SeedMatrixMatchesOracle) {
  const VersionKind kind = GetParam();
  const StoreConfig config = random_config();

  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const bool crash_seed = seed % kCrashEvery == 0;
    SCOPED_TRACE("seed=" + std::to_string(seed) + (crash_seed ? " (crash)" : "") +
                 " — rerun with this seed to reproduce");

    // Reference pass: build the oracle and its per-commit CRC trajectory,
    // and count the victim run's store writes for the crash sweep.
    std::vector<std::uint8_t> oracle(config.db_size, 0);
    std::vector<std::uint32_t> crc_at;
    std::uint64_t total_writes = 0;
    {
      sim::MemBus bus;
      rio::CrashInjector counter;
      rio::Arena arena = rio::Arena::create(core::required_arena_size(kind, config));
      auto store = core::make_store(kind, bus, arena, config, /*format=*/true);
      oracle.assign(store->db(), store->db() + config.db_size);
      crc_at.push_back(Crc32::of(oracle.data(), oracle.size()));  // commit count 0
      bus.set_write_hook(&counter);
      run_history(*store, seed, &oracle, &crc_at);
      bus.set_write_hook(nullptr);
      total_writes = counter.writes_seen();

      // Fault-free conformance: final database == oracle, bit for bit. All
      // four versions therefore agree with each other by transitivity.
      ASSERT_TRUE(store->validate());
      EXPECT_EQ(Crc32::of(store->db(), config.db_size),
                Crc32::of(oracle.data(), oracle.size()))
          << "fault-free image diverged from the oracle";
      EXPECT_EQ(store->committed_seq() + 1, crc_at.size());
    }
    if (!crash_seed) continue;

    // Crash pass: arm a crash at a seed-derived write inside the history,
    // reboot over the surviving bytes, and demand the recovered image equal
    // the oracle at exactly the recovered commit count — never a torn mix.
    ASSERT_GT(total_writes, 2u);
    Rng crash_rng(seed + 7777);
    const std::uint64_t crash_at = 1 + crash_rng.below(total_writes - 1);
    sim::MemBus bus;
    rio::Arena arena = rio::Arena::create(core::required_arena_size(kind, config));
    {
      rio::CrashInjector injector;
      auto store = core::make_store(kind, bus, arena, config, /*format=*/true);
      bus.set_write_hook(&injector);
      injector.arm(crash_at);
      try {
        run_history(*store, seed, nullptr, nullptr);
        FAIL() << "crash at write " << crash_at << " of " << total_writes << " never fired";
      } catch (const rio::SimulatedCrash&) {
      }
      bus.set_write_hook(nullptr);
    }
    auto survivor = core::make_store(kind, bus, arena, config, /*format=*/false);
    survivor->recover();
    ASSERT_TRUE(survivor->validate()) << "crash at write " << crash_at;
    const std::uint64_t committed = survivor->committed_seq();
    ASSERT_LT(committed, crc_at.size()) << "recovered past the reference history";
    EXPECT_EQ(Crc32::of(survivor->db(), config.db_size), crc_at[committed])
        << "crash at write " << crash_at << " recovered commit count " << committed
        << " but the image does not match the oracle at that point";
  }
}

// ---- pipeline-level seed matrix: truncation + rejoin ------------------------
//
// The replication engine under randomized histories: every 2nd seed runs
// with fuzzy checkpointing enabled (seeded interval and copy step), the redo
// history is kept tiny so eviction and watermark truncation both happen, and
// a laggard backup frozen at a seeded mid-history point rejoins at the end.
// Whatever repair path the policy picks — delta, checkpoint+delta, or full
// image — the laggard must converge to the primary's exact bytes with zero
// committed-transaction loss.

class RecordingLink final : public repl::ReplicationLink {
 public:
  bool send(repl::FrameKind kind, std::uint64_t epoch, const void* payload,
            std::size_t len) override {
    const auto* p = static_cast<const std::uint8_t*>(payload);
    sent.push_back(repl::Frame{kind, epoch, std::vector<std::uint8_t>(p, p + len)});
    return true;
  }
  std::optional<repl::Frame> recv(int) override {
    if (inbound.empty()) {
      error_ = repl::LinkError::kTimeout;
      return std::nullopt;
    }
    repl::Frame frame = std::move(inbound.front());
    inbound.pop_front();
    error_ = repl::LinkError::kNone;
    return frame;
  }
  repl::LinkError last_error() const override { return error_; }
  bool connected() const override { return true; }

  std::deque<repl::Frame> inbound;
  std::vector<repl::Frame> sent;

 private:
  repl::LinkError error_ = repl::LinkError::kNone;
};

class VecSource final : public repl::RedoPipeline::Source {
 public:
  explicit VecSource(std::size_t size) : db_(size, 0) {}
  const std::uint8_t* db() const override { return db_.data(); }
  std::size_t db_size() const override { return db_.size(); }
  std::uint64_t committed_seq() const override { return committed; }
  std::uint8_t* mutable_db() { return db_.data(); }

  std::uint64_t committed = 0;

 private:
  std::vector<std::uint8_t> db_;
};

class VecTarget final : public repl::RedoApplier::Target {
 public:
  explicit VecTarget(std::size_t size) : mem(size, 0) {}
  void write(std::uint64_t off, const void* src, std::size_t len) override {
    std::memcpy(mem.data() + off, src, len);
  }
  std::size_t capacity() const override { return mem.size(); }
  const std::uint8_t* data() const override { return mem.data(); }

  std::vector<std::uint8_t> mem;
};

TEST(RandomPipelineConformance, TruncatedHistoryRejoinsConvergeAcrossSeedMatrix) {
  constexpr std::size_t kDb = 32 * 1024;
  std::map<repl::RedoPipeline::RejoinDecision, int> decisions;
  std::uint64_t checkpoints_total = 0, truncated_total = 0;

  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const bool ckpt_seed = seed % 2 == 0;
    SCOPED_TRACE("seed=" + std::to_string(seed) + (ckpt_seed ? " (checkpointed)" : "") +
                 " — rerun with this seed to reproduce");

    VecSource source(kDb);
    RecordingLink link;
    // ~17 average batches of history: far less than the longest seeded gap,
    // so un-checkpointed laggards genuinely fall off the history window.
    repl::RedoPipeline pipe(source, &link, nullptr, {}, /*redo_history_bytes=*/1536);
    if (ckpt_seed) {
      pipe.enable_checkpoints(/*interval_txns=*/3 + seed % 5,
                              /*copy_bytes_per_commit=*/4096 + (seed % 3) * 4096);
    }

    Rng rng(seed * 96321u + 17);
    const int txns = 24 + static_cast<int>(rng.below(24));
    const std::uint64_t lag_at = 8 + rng.below(8);  // laggard freezes here
    std::vector<std::uint8_t> lag_image;
    for (std::uint64_t seq = 1; seq <= static_cast<std::uint64_t>(txns); ++seq) {
      pipe.begin();
      const int ranges = 1 + static_cast<int>(rng.below(3));
      for (int r = 0; r < ranges; ++r) {
        const std::size_t len = 4 + rng.below(60);
        const std::size_t off = rng.below(kDb - len);
        std::vector<std::uint8_t> bytes(len);
        for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u32());
        std::memcpy(source.mutable_db() + off, bytes.data(), len);
        pipe.stage(off, bytes.data(), len);
      }
      source.committed = seq;
      pipe.commit(seq);
      if (seq == lag_at) lag_image.assign(source.db(), source.db() + kDb);
    }
    if (ckpt_seed) {
      checkpoints_total += pipe.stats().checkpoints_completed;
      truncated_total += pipe.stats().redo_truncated_bytes;
    }

    // The laggard rejoins: record which repair the policy picked, then prove
    // that path converges to the primary's exact bytes.
    decisions[pipe.decide_rejoin(lag_at, 1)]++;
    VecTarget target(kDb);
    repl::RedoApplier applier(target);
    applier.seed(lag_image.data(), kDb, lag_at, /*state_epoch=*/1);
    repl::Frame request{repl::FrameKind::kRejoinRequest, 1, std::vector<std::uint8_t>(24)};
    const std::uint64_t node = 9, state_epoch = 1;
    std::memcpy(request.payload.data(), &lag_at, 8);
    std::memcpy(request.payload.data() + 8, &node, 8);
    std::memcpy(request.payload.data() + 16, &state_epoch, 8);
    link.inbound.push_back(std::move(request));
    link.sent.clear();
    ASSERT_TRUE(pipe.handle_rejoin(/*timeout_ms=*/0));
    RecordingLink backup_link;
    for (const auto& f : link.sent) applier.on_frame(f, backup_link);

    ASSERT_EQ(applier.applied_seq(), static_cast<std::uint64_t>(txns))
        << "rejoin lost committed transactions";
    ASSERT_EQ(std::memcmp(target.mem.data(), source.db(), kDb), 0)
        << "rejoined laggard != primary bytes";
    ASSERT_EQ(applier.stats().checkpoint_aborts, 0u) << "clean serve must not abort";
  }

  // The matrix must have exercised every repair path, and the checkpointed
  // half must have genuinely checkpointed and truncated.
  EXPECT_GE(decisions[repl::RedoPipeline::RejoinDecision::kDelta], 1);
  EXPECT_GE(decisions[repl::RedoPipeline::RejoinDecision::kCheckpointDelta], 1);
  EXPECT_GE(decisions[repl::RedoPipeline::RejoinDecision::kFullImage], 1);
  EXPECT_GT(checkpoints_total, 0u);
  EXPECT_GT(truncated_total, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllVersions, RandomConformanceTest, ::testing::ValuesIn(kAllVersions),
                         [](const auto& info) {
                           switch (info.param) {
                             case VersionKind::kV0Vista: return "V0Vista";
                             case VersionKind::kV1MirrorCopy: return "V1MirrorCopy";
                             case VersionKind::kV2MirrorDiff: return "V2MirrorDiff";
                             case VersionKind::kV3InlineLog: return "V3InlineLog";
                           }
                           return "unknown";
                         });

}  // namespace
}  // namespace vrep
