// Monitoring controller specialization: a statistics iApp that subscribes
// to the stats SMs of every connecting agent and saves incoming messages to
// an in-memory data structure (the workload of §5.3 / Fig. 8 — "the FlexRIC
// controller consists of the server library and a statistics iApp that
// saves incoming messages to an in-memory data structure").
#pragma once

#include <algorithm>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ctrl/broker.hpp"
#include "e2sm/mac_sm.hpp"
#include "e2sm/pdcp_sm.hpp"
#include "e2sm/rlc_sm.hpp"
#include "server/server.hpp"
#include "telemetry/ingest.hpp"

namespace flexric::ctrl {

/// The latest record per key, in one key-sorted vector: iterates, finds and
/// copies like the `std::map` it replaces, without a node per key.
template <typename K, typename V>
class FlatRecords {
 public:
  using value_type = std::pair<K, V>;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  [[nodiscard]] const_iterator begin() const noexcept { return v_.begin(); }
  [[nodiscard]] const_iterator end() const noexcept { return v_.end(); }
  [[nodiscard]] std::size_t size() const noexcept { return v_.size(); }
  [[nodiscard]] bool empty() const noexcept { return v_.empty(); }
  [[nodiscard]] const_iterator find(const K& k) const {
    auto it = lower_bound(k);
    return it != v_.end() && it->first == k ? it : v_.end();
  }

  /// Store every record of one report under `key_of(record)`. A key the
  /// report leaves out keeps its last record. A cursor walks the records in
  /// report order, so a report in ascending key order (a base station lists
  /// its UEs so) costs one compare per known key; a key the cursor does not
  /// point at costs a binary search, and a new key an insert.
  template <typename Report, typename KeyOf>
  void update(const Report& report, KeyOf key_of) {
    std::size_t cur = 0;
    for (const auto& rec : report) {
      const K k = key_of(rec);
      if (cur >= v_.size() || v_[cur].first != k) {
        auto it = lower_bound(k);
        if (it == v_.end() || it->first != k) it = v_.insert(it, {k, rec});
        cur = static_cast<std::size_t>(it - v_.begin());
      }
      v_[cur++].second = rec;
    }
  }

 private:
  [[nodiscard]] const_iterator lower_bound(const K& k) const {
    return std::lower_bound(
        v_.begin(), v_.end(), k,
        [](const value_type& e, const K& key) { return e.first < key; });
  }

  std::vector<value_type> v_;
};

class MonitorIApp final : public server::IApp {
 public:
  struct Config {
    WireFormat sm_format = WireFormat::flat;
    std::uint32_t period_ms = 1;
    /// RLC stats are always subscribed; MAC and PDCP can be left out.
    bool want_mac = true;
    bool want_pdcp = true;
    /// true: parse payloads into typed maps (mandatory for ASN.1, which is
    /// unusable unparsed). false: keep the latest raw message per SM — the
    /// FlatBuffers mode of operation, where the stored bytes ARE the
    /// queryable object and no decode step exists (§5.3's FB advantage).
    bool decode_payloads = true;
    bool retain_on_disconnect = false;  ///< keep DBs after agents leave
    Broker* broker = nullptr;  ///< optional: republish stats northbound
    /// Optional: feed every indication into the telemetry time-series store.
    /// Works in both modes — decoded indications reuse the iApp's decode;
    /// zero-copy mode hands the raw bytes to Ingest::wire().
    telemetry::Ingest* telemetry = nullptr;
  };

  explicit MonitorIApp(Config cfg) : cfg_(cfg) {}
  [[nodiscard]] const char* name() const override { return "monitor"; }

  void on_agent_connected(const server::AgentInfo& info) override;
  void on_agent_disconnected(server::AgentId id) override;
  void on_agent_quarantined(server::AgentId id) override;
  void on_agent_reconnected(const server::AgentInfo& info) override;

  /// In-memory DB: latest stats per agent per UE/bearer.
  struct AgentDb {
    FlatRecords<std::uint16_t, e2sm::mac::UeStats> mac;
    FlatRecords<std::pair<std::uint16_t, std::uint8_t>, e2sm::rlc::BearerStats>
        rlc;
    FlatRecords<std::pair<std::uint16_t, std::uint8_t>,
                e2sm::pdcp::BearerStats>
        pdcp;
    /// Zero-copy mode: latest raw SM message per RAN function id.
    std::map<std::uint16_t, Buffer> raw;
    std::uint64_t indications = 0;
  };
  /// Hashed by agent: iterate it in no particular order.
  [[nodiscard]] const std::unordered_map<server::AgentId, AgentDb>& db()
      const noexcept {
    return db_;
  }
  [[nodiscard]] std::uint64_t total_indications() const noexcept {
    return total_indications_;
  }
  /// Resilience visibility: agents that went quiet / came back with their
  /// subscriptions replayed under the same handles.
  [[nodiscard]] std::uint64_t quarantines() const noexcept {
    return quarantines_;
  }
  [[nodiscard]] std::uint64_t reconnects() const noexcept {
    return reconnects_;
  }

 private:
  void subscribe_stats(server::AgentId agent, std::uint16_t fn_id);

  Config cfg_;
  std::unordered_map<server::AgentId, AgentDb> db_;
  std::uint64_t total_indications_ = 0;
  std::uint64_t quarantines_ = 0;
  std::uint64_t reconnects_ = 0;
};

}  // namespace flexric::ctrl
