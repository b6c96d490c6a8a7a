// Two-process failover demo over the TCP transport.
//
//   build/examples/bank_failover            # forks primary + backup, kills
//                                           # the primary mid-stream, shows
//                                           # the backup taking over
//   build/examples/bank_failover --chaos --seed 7   # same, with a seeded
//                                           # fault-injecting transport
//   build/examples/bank_failover --role backup --port 7007
//   build/examples/bank_failover --role primary --port 7007
//
// The primary runs Debit-Credit banking transactions on a Version 3 store
// and ships each commit's redo data to the backup (active replication,
// 1-safe). Both sides carry a membership epoch in every frame, so a stale
// primary would be fenced rather than believed. The backup applies the
// stream to its file-backed replica, debouncing silence through the
// heartbeat detector and riding out connection losses (reconnect + rejoin);
// only sustained silence makes it declare the primary dead, take over the
// membership epoch, promote its replica to a full store, and prove the
// bank's books still balance. With --chaos the primary's frames pass
// through a seeded fault injector (drops, delays, duplicates, bit-flips),
// exercising the in-band resync machinery on a live run.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>

#include "cluster/failure_detector.hpp"
#include "cluster/membership.hpp"
#include "net/fault_transport.hpp"
#include "net/transport.hpp"
#include "net/wire_repl.hpp"
#include "util/backoff.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "workload/debit_credit.hpp"

using namespace vrep;

namespace {

constexpr std::size_t kDbSize = 4 << 20;

core::StoreConfig bank_config() {
  core::StoreConfig config = wl::suggest_config(wl::WorkloadKind::kDebitCredit, kDbSize);
  return config;
}

int run_primary(std::uint16_t port, int txns_before_death, bool chaos,
                std::uint64_t chaos_seed) {
  net::TcpTransport tcp;
  if (!tcp.connect_to("127.0.0.1", port)) {
    std::fprintf(stderr, "[primary] cannot reach backup\n");
    return 1;
  }
  net::FaultPlan plan;
  plan.seed = chaos_seed;
  if (chaos) {
    plan.drop = 0.02;
    plan.delay = 0.02;
    plan.duplicate = 0.02;
    plan.bitflip = 0.01;
    plan.start_after_frames = 32;  // let the initial image sync through
  }
  net::FaultInjectingTransport transport(tcp, plan);

  const core::StoreConfig config = bank_config();
  rio::Arena arena =
      rio::Arena::create(core::required_arena_size(core::VersionKind::kV3InlineLog, config));
  cluster::Membership membership(0, cluster::Role::kPrimary);
  net::WirePrimary store(arena, config, &transport, /*format=*/true, &membership);

  wl::DebitCredit bank(kDbSize);
  bank.initialize(store);
  store.flush_initial_state();
  // The backup introduces itself with a rejoin request (from sequence 0,
  // which yields the full image sync for a fresh replica).
  if (!store.pipeline().handle_rejoin(/*timeout_ms=*/5'000)) {
    std::fprintf(stderr, "[primary] backup never asked to join\n");
    return 1;
  }
  std::printf("[primary] synced backup (epoch %llu), running transactions...\n",
              static_cast<unsigned long long>(store.pipeline().epoch()));

  Backoff backoff({/*base_ms=*/10, /*max_ms=*/500, /*multiplier=*/2.0, /*jitter=*/0.5},
                  chaos_seed);
  Rng rng(2026);
  for (int i = 0; i < txns_before_death || txns_before_death < 0; ++i) {
    if (store.pipeline().fenced()) {
      // A newer epoch exists: someone took over while we were presumed
      // dead. A real deployment would demote_to_backup() and rejoin; the
      // demo just refuses to keep writing (that is the split-brain fix).
      std::printf("[primary] fenced by epoch %llu: stepping down\n",
                  static_cast<unsigned long long>(store.pipeline().fenced_by_epoch()));
      return 3;
    }
    if (!store.pipeline().connection_alive()) {
      // Reconnect with bounded exponential backoff + jitter, then serve the
      // backup's rejoin request (delta from its last applied sequence, or a
      // full image if the gap outgrew the redo history).
      const auto delay = backoff.next_delay_ms();
      if (!delay.has_value()) break;
      usleep(static_cast<useconds_t>(*delay * 1000));
      if (tcp.connect_to("127.0.0.1", port, /*timeout_ms=*/500)) {
        store.attach_transport(&transport);
        if (store.pipeline().handle_rejoin(/*timeout_ms=*/1'000)) backoff.reset();
      }
    }
    bank.run_txn(store, rng);
    if (i % 64 == 0) store.pipeline().send_heartbeat();
  }
  if (chaos) {
    const auto& s = transport.stats();
    std::printf("[primary] chaos stats: %llu frames, %llu drops, %llu dups, "
                "%llu delays, %llu bitflips\n",
                static_cast<unsigned long long>(s.frames),
                static_cast<unsigned long long>(s.drops),
                static_cast<unsigned long long>(s.duplicates),
                static_cast<unsigned long long>(s.delays),
                static_cast<unsigned long long>(s.bitflips));
  }
  std::printf("[primary] committed %llu transactions; dying WITHOUT warning now\n",
              static_cast<unsigned long long>(store.committed_seq()));
  std::fflush(stdout);
  _exit(42);  // simulate a hard crash: no destructors, no goodbye message
}

int run_backup(std::uint16_t port) {
  net::TcpTransport transport;
  if (!transport.listen(port)) return 1;
  std::printf("[backup] listening on port %u\n", transport.bound_port());
  std::fflush(stdout);
  if (!transport.accept_peer()) return 1;

  cluster::Membership membership(1, cluster::Role::kBackup);
  rio::Arena replica = rio::Arena::map_file("/tmp/vrep_bank_replica.db", kDbSize);
  net::WireBackup backup(replica, &membership, /*node_id=*/1);
  if (!backup.request_rejoin(transport)) return 1;

  // Debounce silence through the heartbeat detector: a single late frame
  // (chaos delay fault, scheduler hiccup) must not trigger a takeover.
  cluster::HeartbeatDetector detector(/*timeout_ms=*/500, /*suspicion_threshold=*/3);
  net::WireBackup::ServeOptions options;
  options.idle_timeout_ms = 250;
  options.detector = &detector;

  // Serve until the primary is *failed* — a lost connection alone only means
  // the socket died: re-accept and let the primary rejoin us.
  while (true) {
    const auto result = backup.serve(transport, options);
    if (result == net::WireBackup::ServeResult::kConnectionLost) {
      std::printf("[backup] connection lost at seq %llu; awaiting reconnect\n",
                  static_cast<unsigned long long>(backup.applied_seq()));
      if (transport.accept_peer(/*timeout_ms=*/2'000)) {
        backup.request_rejoin(transport);
        continue;
      }
    }
    if (result == net::WireBackup::ServeResult::kCorrupt) {
      std::fprintf(stderr, "[backup] stream irrecoverably corrupt?!\n");
      return 1;
    }
    break;  // kPrimaryFailed, or no reconnect: the primary is gone
  }
  std::printf("[backup] primary went silent: taking over (epoch %llu -> %llu)\n",
              static_cast<unsigned long long>(membership.view().epoch),
              static_cast<unsigned long long>(membership.view().epoch + 1));
  membership.take_over();

  const auto& stats = backup.applier().stats();
  std::printf("[backup] stream stats: %llu applied, %llu dups ignored, %llu gaps, "
              "%llu corrupt skipped, %llu resyncs, %llu stale fenced\n",
              static_cast<unsigned long long>(stats.batches_applied),
              static_cast<unsigned long long>(stats.duplicates_ignored),
              static_cast<unsigned long long>(stats.gaps_detected),
              static_cast<unsigned long long>(stats.corrupt_skipped),
              static_cast<unsigned long long>(stats.resyncs),
              static_cast<unsigned long long>(stats.stale_fenced));

  const core::StoreConfig config = bank_config();
  sim::MemBus bus;
  rio::Arena arena =
      rio::Arena::create(core::required_arena_size(core::VersionKind::kV3InlineLog, config));
  auto store = backup.promote(bus, arena, config);

  wl::DebitCredit bank(kDbSize);
  const std::string violation = bank.check_consistency(*store);
  std::printf("[backup] promoted at applied seq %llu; books %s\n",
              static_cast<unsigned long long>(backup.applied_seq()),
              violation.empty() ? "BALANCE (accounts == tellers == branches)"
                                : violation.c_str());

  // Serve a few transactions as the new primary to prove we are live.
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) bank.run_txn(*store, rng);
  const std::string after = bank.check_consistency(*store);
  std::printf("[backup] served 1000 transactions as new primary; books %s\n",
              after.empty() ? "still balance" : after.c_str());
  std::remove("/tmp/vrep_bank_replica.db");
  std::fflush(stdout);  // the demo parent spawns us via fork + _exit
  return violation.empty() && after.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const std::string role = args.get_string("role", "demo");
  const auto port = static_cast<std::uint16_t>(args.get_int("port", 0));
  const int kill_after = static_cast<int>(args.get_int("kill-after", 20'000));
  const bool chaos = args.get_int("chaos", 0) != 0;  // --chaos parses as 1
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  if (role == "primary") return run_primary(port, kill_after, chaos, seed);
  if (role == "backup") return run_backup(port);

  // Demo mode: orchestrate both processes ourselves.
  net::TcpTransport probe;
  if (!probe.listen(0)) return 1;
  const std::uint16_t demo_port = probe.bound_port();
  // Free the port again for the child (small race, fine for a demo).
  probe.~TcpTransport();
  new (&probe) net::TcpTransport();

  const pid_t backup_pid = fork();
  if (backup_pid == 0) {
    _exit(run_backup(demo_port));
  }
  usleep(200'000);
  const pid_t primary_pid = fork();
  if (primary_pid == 0) {
    _exit(run_primary(demo_port, kill_after, chaos, seed));
  }

  int status = 0;
  waitpid(primary_pid, &status, 0);
  std::printf("[demo] primary exited with status %d (simulated crash)\n",
              WEXITSTATUS(status));
  waitpid(backup_pid, &status, 0);
  std::printf("[demo] backup exited with status %d\n", WEXITSTATUS(status));
  return WEXITSTATUS(status);
}
