// Order-Entry: the Vista TPC-C variant, restricted (as in the paper) to the
// three transaction types that update the database: New-Order, Payment, and
// Delivery, in the standard TPC-C mix (~45/43/12).
//
// Database layout (within the store's flat db region):
//   [warehouses][districts][customers][stock][order ring]
//
// Compared with Debit-Credit, transactions cover larger set_range areas
// (whole order-line arrays, 100-200 byte customer records) while modifying a
// modest number of scattered small fields inside them — which is exactly the
// traffic profile the paper reports for Order-Entry (undo volume ~5x the
// modified bytes, meta-data per transaction larger for the active scheme
// than the passive one because the modified chunks are discontiguous).
//
// Consistency invariant for recovery tests: for every warehouse,
//   warehouse.ytd == sum(district.ytd over its districts)
// and every order slot is either fully present (header.magic valid and the
// order-line count consistent) or untouched.
#pragma once

#include "workload/workload.hpp"

namespace vrep::wl {

class OrderEntry final : public Workload {
 public:
  explicit OrderEntry(std::size_t db_size);

  const char* name() const override { return "Order-Entry"; }
  void initialize(core::TransactionStore& store) override;
  void run_txn(core::TransactionStore& store, Rng& rng) override;
  std::string check_consistency(const core::TransactionStore& store) const override;

 private:
  static constexpr std::size_t kDistrictsPerWarehouse = 10;
  static constexpr std::size_t kCustomersPerDistrict = 3000;
  static constexpr std::size_t kMaxOrderLines = 15;

  struct Warehouse {  // 64 bytes
    std::int64_t ytd;
    char filler[56];
  };
  struct District {  // 64 bytes
    std::int64_t ytd;
    std::uint32_t next_o_id;
    char filler[52];
  };
  struct Customer {  // 192 bytes
    std::int64_t balance;
    std::int64_t ytd_payment;
    std::uint32_t payment_cnt;
    std::uint32_t delivery_cnt;
    char data[168];
  };
  struct StockItem {  // 64 bytes
    std::int32_t quantity;
    std::int32_t order_cnt;
    char filler[56];
  };
  struct OrderLine {  // 32 bytes
    std::uint32_t item;
    std::uint32_t supply_w;
    std::int32_t quantity;
    std::int32_t amount;
    char info[16];
  };
  struct OrderHeader {  // 48 bytes
    std::uint32_t magic;  // kOrderMagic when the slot holds an order
    std::uint32_t o_id;
    std::uint32_t district;
    std::uint32_t customer;
    std::uint32_t line_count;
    std::uint32_t carrier;  // 0 until delivered
    char filler[24];
  };
  struct OrderSlot {  // header + full line array
    OrderHeader header;
    OrderLine lines[kMaxOrderLines];
  };
  static constexpr std::uint32_t kOrderMagic = 0x4f524445u;  // "ORDE"

  void txn_new_order(core::TransactionStore& store, Rng& rng);
  void txn_payment(core::TransactionStore& store, Rng& rng);
  void txn_delivery(core::TransactionStore& store, Rng& rng);

  std::size_t warehouse_off(std::size_t w) const { return warehouses_off_ + w * sizeof(Warehouse); }
  std::size_t district_off(std::size_t w, std::size_t d) const {
    return districts_off_ + (w * kDistrictsPerWarehouse + d) * sizeof(District);
  }
  std::size_t customer_off(std::size_t w, std::size_t d, std::size_t c) const {
    return customers_off_ +
           ((w * kDistrictsPerWarehouse + d) * customers_per_district_ + c) * sizeof(Customer);
  }
  std::size_t stock_off(std::size_t i) const { return stock_off_ + i * sizeof(StockItem); }
  std::size_t order_slot_off(std::size_t s) const { return orders_off_ + s * sizeof(OrderSlot); }

  std::size_t db_size_;
  std::size_t num_warehouses_ = 1;
  std::size_t customers_per_district_ = kCustomersPerDistrict;
  std::size_t num_stock_items_ = 0;
  std::size_t num_order_slots_ = 0;
  std::size_t warehouses_off_ = 0, districts_off_ = 0, customers_off_ = 0, stock_off_ = 0,
              orders_off_ = 0;
};

}  // namespace vrep::wl
