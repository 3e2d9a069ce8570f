// Ingestion adapter: E2SM statistics indications -> TelemetryStore samples.
//
// Two entry styles, matching the two ways a monitoring iApp consumes
// indications (§5.3):
//
//   decoded  mac()/rlc()/pdcp() take an already-decoded IndicationMsg — the
//            iApp decoded it anyway for its own logic, so ingestion adds no
//            second decode.
//   wire     wire() takes the raw header/message bytes (the zero-copy FLAT
//            path where the iApp never materializes the message) and decodes
//            internally, dispatching on the RAN function id.
//
// Timestamps come from the indication *header* (tstamp_ns, stamped by the
// agent at collection time), not controller arrival time, so series align
// across agents regardless of northbound latency. All three statistics SMs
// share the same {tstamp_ns, cell_id} header layout; header_tstamp() relies
// on that to decode any of them uniformly.
#pragma once

#include <cstdint>

#include "codec/wire.hpp"
#include "common/buffer.hpp"
#include "common/clock.hpp"
#include "common/result.hpp"
#include "e2sm/mac_sm.hpp"
#include "e2sm/pdcp_sm.hpp"
#include "e2sm/rlc_sm.hpp"
#include "telemetry/store.hpp"

namespace flexric::telemetry {

struct IngestConfig {
  /// false: record the core KPI set (6 MAC + 4 RLC + 2 PDCP metrics per
  /// entity). true: record every mapped metric (10 + 8 + 5) — more series,
  /// same per-series cost.
  bool extended_metrics = false;
};

// @hotpath
class Ingest {
 public:
  explicit Ingest(TelemetryStore& store, IngestConfig cfg = {})
      : store_(store), cfg_(cfg) {}

  // -- decoded entry points --
  void mac(AgentId agent, Nanos t, const e2sm::mac::IndicationMsg& msg);
  void rlc(AgentId agent, Nanos t, const e2sm::rlc::IndicationMsg& msg);
  void pdcp(AgentId agent, Nanos t, const e2sm::pdcp::IndicationMsg& msg);

  /// Raw-bytes entry point: decodes the header for the timestamp and the
  /// message by `fn_id` (MAC/RLC/PDCP statistics SMs), then records.
  /// Errc::unsupported for other RAN functions; decode errors pass through.
  Status wire(AgentId agent, std::uint16_t fn_id, BytesView header,
              BytesView message, WireFormat format);

  /// Agent-side collection timestamp from a statistics indication header.
  static Result<Nanos> header_tstamp(BytesView header, WireFormat format);

  [[nodiscard]] std::uint64_t samples_in() const noexcept {
    return samples_in_;
  }
  [[nodiscard]] std::uint64_t decode_errors() const noexcept {
    return decode_errors_;
  }

 private:
  /// One entity's samples as one batched store write.
  void write(AgentId agent, std::uint32_t entity, Nanos t,
             std::span<const MetricSample> samples);

  TelemetryStore& store_;
  IngestConfig cfg_;
  std::uint64_t samples_in_ = 0;
  std::uint64_t decode_errors_ = 0;
};

}  // namespace flexric::telemetry
