#include "telemetry/ingest.hpp"

#include "e2sm/serde.hpp"

namespace flexric::telemetry {

void Ingest::write(AgentId agent, std::uint32_t entity, Nanos t,
                   std::span<const MetricSample> samples) {
  // Budget rejections are counted by the store (dropped_samples); ingestion
  // keeps going so one saturated series cannot stall the rest of the report.
  static_cast<void>(store_.record_entity(agent, entity, t, samples));
  samples_in_ += samples.size();
}

// Each entity's array lists the core metrics first; extended_metrics
// widens the span to the rest.
void Ingest::mac(AgentId agent, Nanos t, const e2sm::mac::IndicationMsg& msg) {
  for (const e2sm::mac::UeStats& ue : msg.ues) {
    const MetricSample s[] = {
        {Metric::mac_cqi, static_cast<double>(ue.cqi)},
        {Metric::mac_mcs_dl, static_cast<double>(ue.mcs_dl)},
        {Metric::mac_prbs_dl, static_cast<double>(ue.prbs_dl)},
        {Metric::mac_bytes_dl, static_cast<double>(ue.bytes_dl)},
        {Metric::mac_bytes_ul, static_cast<double>(ue.bytes_ul)},
        {Metric::mac_bsr, static_cast<double>(ue.bsr)},
        {Metric::mac_mcs_ul, static_cast<double>(ue.mcs_ul)},
        {Metric::mac_prbs_ul, static_cast<double>(ue.prbs_ul)},
        {Metric::mac_phr_db, static_cast<double>(ue.phr_db)},
        {Metric::mac_harq_retx, static_cast<double>(ue.harq_retx)},
    };
    write(agent, make_entity(ue.rnti), t,
          std::span(s).first(cfg_.extended_metrics ? 10 : 6));
  }
}

void Ingest::rlc(AgentId agent, Nanos t, const e2sm::rlc::IndicationMsg& msg) {
  for (const e2sm::rlc::BearerStats& b : msg.bearers) {
    const MetricSample s[] = {
        {Metric::rlc_tx_bytes, static_cast<double>(b.tx_bytes)},
        {Metric::rlc_buffer_bytes, static_cast<double>(b.buffer_bytes)},
        {Metric::rlc_sojourn_avg_ms, b.sojourn_avg_ms},
        {Metric::rlc_sojourn_max_ms, b.sojourn_max_ms},
        {Metric::rlc_rx_bytes, static_cast<double>(b.rx_bytes)},
        {Metric::rlc_buffer_pkts, static_cast<double>(b.buffer_pkts)},
        {Metric::rlc_retx_pdus, static_cast<double>(b.retx_pdus)},
        {Metric::rlc_dropped_sdus, static_cast<double>(b.dropped_sdus)},
    };
    write(agent, make_entity(b.rnti, b.drb_id), t,
          std::span(s).first(cfg_.extended_metrics ? 8 : 4));
  }
}

void Ingest::pdcp(AgentId agent, Nanos t,
                  const e2sm::pdcp::IndicationMsg& msg) {
  for (const e2sm::pdcp::BearerStats& b : msg.bearers) {
    const MetricSample s[] = {
        {Metric::pdcp_tx_sdu_bytes, static_cast<double>(b.tx_sdu_bytes)},
        {Metric::pdcp_rx_sdu_bytes, static_cast<double>(b.rx_sdu_bytes)},
        {Metric::pdcp_tx_pdus, static_cast<double>(b.tx_pdus)},
        {Metric::pdcp_rx_pdus, static_cast<double>(b.rx_pdus)},
        {Metric::pdcp_discarded_sdus, static_cast<double>(b.discarded_sdus)},
    };
    write(agent, make_entity(b.rnti, b.drb_id), t,
          std::span(s).first(cfg_.extended_metrics ? 5 : 2));
  }
}

Result<Nanos> Ingest::header_tstamp(BytesView header, WireFormat format) {
  // All statistics SM headers share the {tstamp_ns, cell_id} serde layout,
  // so the MAC decoder reads any of them.
  auto hdr = e2sm::sm_decode<e2sm::mac::IndicationHdr>(header, format);
  if (!hdr.is_ok()) return hdr.error();
  return static_cast<Nanos>(hdr->tstamp_ns);
}

Status Ingest::wire(AgentId agent, std::uint16_t fn_id, BytesView header,
                    BytesView message, WireFormat format) {
  auto t = header_tstamp(header, format);
  if (!t.is_ok()) {
    decode_errors_++;
    return t.status();
  }
  switch (fn_id) {
    case e2sm::mac::Sm::kId: {
      auto msg = e2sm::sm_decode<e2sm::mac::IndicationMsg>(message, format);
      if (!msg.is_ok()) {
        decode_errors_++;
        return msg.status();
      }
      mac(agent, *t, *msg);
      return Status::ok();
    }
    case e2sm::rlc::Sm::kId: {
      auto msg = e2sm::sm_decode<e2sm::rlc::IndicationMsg>(message, format);
      if (!msg.is_ok()) {
        decode_errors_++;
        return msg.status();
      }
      rlc(agent, *t, *msg);
      return Status::ok();
    }
    case e2sm::pdcp::Sm::kId: {
      auto msg = e2sm::sm_decode<e2sm::pdcp::IndicationMsg>(message, format);
      if (!msg.is_ok()) {
        decode_errors_++;
        return msg.status();
      }
      pdcp(agent, *t, *msg);
      return Status::ok();
    }
    default:
      return Status{Errc::unsupported, "no telemetry mapping for RAN fn"};
  }
}

}  // namespace flexric::telemetry
