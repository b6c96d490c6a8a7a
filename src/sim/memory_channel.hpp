// Memory Channel write-through SAN emulation.
//
// The Memory Channel (paper Section 2.3) lets a node map a region of another
// node's physical memory into its own I/O space; stores to that I/O space are
// transmitted and DMA'd into the remote memory without involving the remote
// CPU. Remote reads are not supported, so shared data is "write doubled":
// each store is performed once on the local copy and once on the I/O space.
//
// We emulate this with two cooperating classes:
//
//  * McFabric — one per (sender -> receiver) direction. Owns the I/O-space
//    segment table (io offset -> remote memory), the link occupancy state
//    shared by every CPU of the sending node, and the in-flight packet
//    journal. Packets physically deliver their payload bytes into the remote
//    memory when virtual time reaches their delivery timestamp, which gives
//    real 1-safe semantics: a primary crash drops packets still in flight.
//
//  * McInterface — one per sending CPU. Owns that CPU's write buffers
//    (coalescing model) and its adapter FIFO: when the FIFO is full the CPU
//    stalls until the oldest packet leaves on the link. This is how link
//    bandwidth back-pressures the transaction engine.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <queue>
#include <vector>

#include "sim/clock.hpp"
#include "sim/link_model.hpp"
#include "sim/traffic.hpp"
#include "sim/write_buffer.hpp"

namespace vrep::sim {

class McFabric {
 public:
  explicit McFabric(const LinkModel& model) : model_(model) {}

  // Map `len` bytes of receiver memory into this fabric's I/O space.
  // Returns the I/O-space base offset for the segment.
  std::uint64_t map_segment(void* remote_base, std::size_t len);

  // Hand a completed packet to the wire; it will land in remote memory at
  // `deliver_at` (completion + propagation).
  void submit(const Packet& pkt, SimTime deliver_at);

  // Apply every packet whose delivery time is <= t.
  void deliver_until(SimTime t);
  void deliver_all();

  // Primary crash at time t: packets already delivered stay, packets still
  // in flight are lost. Returns the number of packets dropped.
  std::size_t crash_at(SimTime t);

  const LinkModel& model() const { return model_; }
  LinkState& link() { return link_; }

  std::uint64_t packets_of_size(std::size_t s) const { return packets_of_size_[s]; }
  std::uint64_t total_packets() const { return link_.packets; }
  std::uint64_t total_bytes() const { return link_.bytes; }
  void count_packet(const Packet& pkt);

 private:
  struct Segment {
    std::uint64_t io_base;
    std::size_t len;
    std::uint8_t* remote;
  };

  struct InFlight {
    SimTime deliver_at;
    std::uint64_t seq;
    Packet pkt;
    bool operator>(const InFlight& o) const {
      return deliver_at != o.deliver_at ? deliver_at > o.deliver_at : seq > o.seq;
    }
  };

  std::uint8_t* resolve(std::uint64_t io_offset, std::size_t len);

  LinkModel model_;
  LinkState link_;
  std::vector<Segment> segments_;
  std::uint64_t next_io_ = 1 << 20;  // leave a guard gap at the bottom
  std::uint64_t next_seq_ = 0;
  std::priority_queue<InFlight, std::vector<InFlight>, std::greater<>> in_flight_;
  std::uint64_t packets_of_size_[kWriteBufferBytes + 1] = {};
};

class McInterface {
 public:
  // `store_base_ns`/`store_byte_ns` model the CPU cost of the doubled store
  // into I/O space (the store itself; draining is asynchronous).
  // `small_packet_penalty_ns` is charged per sub-32-byte packet (non-burst
  // PCI transaction; see AlphaCostModel::io_small_packet_penalty_ns).
  McInterface(McFabric* fabric, VirtualClock* clk, int fifo_depth, SimTime store_base_ns,
              double store_byte_ns, SimTime small_packet_penalty_ns, bool coalescing = true);

  // Write-through `len` bytes at I/O-space offset `io_offset`.
  void io_write(std::uint64_t io_offset, const void* src, std::size_t len, TrafficClass cls);

  // Memory barrier: drain the write buffers (used before advancing a commit
  // flag / producer pointer so the remote side observes a consistent order).
  void flush();

  // Drop all buffered-but-unsent stores (CPU crash before they left the
  // write buffers).
  void drop_pending();

  const TrafficStats& traffic() const { return traffic_; }
  SimTime stall_ns() const { return stall_ns_; }
  McFabric* fabric() { return fabric_; }

 private:
  void on_packet(const Packet& pkt);

  McFabric* fabric_;
  VirtualClock* clk_;
  WriteBufferSet wbufs_;
  std::deque<SimTime> fifo_;  // completion times of packets queued in the adapter
  std::size_t fifo_depth_;
  SimTime store_base_ns_;
  double store_byte_ns_;
  SimTime small_packet_penalty_ns_;
  TrafficStats traffic_;
  SimTime stall_ns_ = 0;
};

}  // namespace vrep::sim
