#include "ctrl/supervision_rest.hpp"

#include "ctrl/json.hpp"

namespace flexric::ctrl {

using server::ShardSupervisor;

SupervisionRest::SupervisionRest(HttpServer& http,
                                 const server::ShardedE2Server& ric)
    : ric_(ric) {
  http.route("GET", "/shards",
             [this](const HttpRequest& req, HttpResponse& resp) {
               handle_shards(req, resp);
             });
  http.route("GET", "/supervision",
             [this](const HttpRequest& req, HttpResponse& resp) {
               handle_supervision(req, resp);
             });
}

void SupervisionRest::handle_shards(const HttpRequest&,
                                    HttpResponse& resp) const {
  const ShardSupervisor& sup = ric_.supervisor();
  JsonArray shards;
  for (std::uint32_t i = 0; i < ric_.num_shards(); ++i) {
    JsonObject o;
    o["shard"] = i;
    o["health"] = server::shard_health_name(sup.health(i));
    o["beat_age_ms"] = sup.last_age(i) / kMilli;
    o["accepting"] = ric_.accepting(i);
    o["restarts"] = static_cast<std::uint64_t>(sup.restarts_of(i));
    o["retired_frames"] = ric_.retired_ledger(i).dispatched;
    shards.emplace_back(std::move(o));
  }
  JsonObject top;
  top["shards"] = std::move(shards);
  resp.body = Json(top).dump();
}

void SupervisionRest::handle_supervision(const HttpRequest&,
                                         HttpResponse& resp) const {
  const ShardSupervisor::Stats& st = ric_.supervisor().stats();
  JsonObject o;
  counters(
      [&o](std::string_view k, std::uint64_t v) {
        o["supervisor_" + std::string(k)] = v;
      },
      st);
  o["mttr_last_ms"] = st.mttr_last / kMilli;
  o["supervisor_shed"] = ric_.supervisor_shed();
  o["queries_failed"] = ric_.queries_failed();
  resp.body = Json(o).dump();
}

}  // namespace flexric::ctrl
