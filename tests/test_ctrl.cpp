// Controller specialization tests: JSON, REST server/client, broker,
// monitoring iApp, slicing iApp (REST + SC SM), TC xApp policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <random>
#include <thread>

#include "agent/agent.hpp"
#include "ctrl/broker.hpp"
#include "ctrl/json.hpp"
#include "ctrl/monitor.hpp"
#include "ctrl/rest.hpp"
#include "ctrl/slicing.hpp"
#include "ctrl/tc_xapp.hpp"
#include "helpers.hpp"
#include "ran/functions.hpp"

namespace flexric::ctrl {
namespace {

using test::pump;
using test::pump_until;

constexpr WireFormat kFmt = WireFormat::flat;

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

TEST(Json, ParsePrimitives) {
  EXPECT_TRUE(Json::parse("null")->is_null());
  EXPECT_EQ(Json::parse("true")->as_bool(), true);
  EXPECT_EQ(Json::parse("42")->as_number(), 42.0);
  EXPECT_EQ(Json::parse("-3.5")->as_number(), -3.5);
  EXPECT_EQ(Json::parse("\"hi\"")->as_string(), "hi");
}

TEST(Json, ParseNested) {
  auto j = Json::parse(R"({"a": [1, 2, {"b": "x"}], "c": {"d": false}})");
  ASSERT_TRUE(j.is_ok());
  EXPECT_EQ((*j)["a"].as_array().size(), 3u);
  EXPECT_EQ((*j)["a"].as_array()[2]["b"].as_string(), "x");
  EXPECT_EQ((*j)["c"]["d"].as_bool(true), false);
  EXPECT_TRUE((*j)["missing"].is_null());
}

TEST(Json, DumpRoundTrip) {
  JsonObject obj;
  obj["name"] = "slice \"one\"";
  obj["share"] = 0.66;
  obj["count"] = 3;
  obj["on"] = true;
  obj["list"] = Json(JsonArray{Json(1), Json(2)});
  std::string text = Json(std::move(obj)).dump();
  auto parsed = Json::parse(text);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ((*parsed)["name"].as_string(), "slice \"one\"");
  EXPECT_DOUBLE_EQ((*parsed)["share"].as_number(), 0.66);
  EXPECT_EQ((*parsed)["count"].as_number(), 3.0);
}

TEST(Json, MalformedInputsRejected) {
  for (const char* bad : {"", "{", "[1,", "{\"a\":}", "tru", "\"unterminated",
                          "{\"a\" 1}", "1 2", "{'single':1}"}) {
    EXPECT_FALSE(Json::parse(bad).is_ok()) << bad;
  }
}

TEST(Json, IntegersDumpWithoutDecimalPoint) {
  EXPECT_EQ(Json(5).dump(), "5");
  EXPECT_EQ(Json(0.5).dump(), "0.5");
}

// ---------------------------------------------------------------------------
// Broker
// ---------------------------------------------------------------------------

TEST(Broker, PubSubDeliversToTopicSubscribers) {
  Reactor reactor;
  Broker broker(reactor);
  std::vector<std::string> got_a, got_b;
  broker.subscribe("topic/a", [&](const std::string&, BytesView b) {
    got_a.emplace_back(b.begin(), b.end());
  });
  broker.subscribe("topic/b", [&](const std::string&, BytesView b) {
    got_b.emplace_back(b.begin(), b.end());
  });
  Buffer payload{'h', 'i'};
  broker.publish("topic/a", payload);
  pump(reactor);
  EXPECT_EQ(got_a.size(), 1u);
  EXPECT_TRUE(got_b.empty());
}

TEST(Broker, UnsubscribeStops) {
  Reactor reactor;
  Broker broker(reactor);
  int got = 0;
  auto id = broker.subscribe("t", [&](const std::string&, BytesView) { got++; });
  Buffer p{1};
  broker.publish("t", p);
  pump(reactor);
  broker.unsubscribe(id);
  broker.publish("t", p);
  pump(reactor);
  EXPECT_EQ(got, 1);
}

TEST(Broker, DeliveryIsAsynchronous) {
  Reactor reactor;
  Broker broker(reactor);
  bool delivered = false;
  broker.subscribe("t", [&](const std::string&, BytesView) { delivered = true; });
  Buffer p{1};
  broker.publish("t", p);
  EXPECT_FALSE(delivered);  // not synchronous (a real broker hop)
  pump(reactor);
  EXPECT_TRUE(delivered);
}

// Regression for the posted-lambda use-after-free: publish() queues a task on
// the reactor; destroying the Broker before the loop turns must void the
// delivery (weak alive token), not dereference the dead broker. Under ASan
// the old `[this, ...]` capture made this test crash.
TEST(Broker, DestroyWithPublishInFlightIsSafe) {
  Reactor reactor;
  int got = 0;
  {
    Broker broker(reactor);
    broker.subscribe("t", [&](const std::string&, BytesView) { got++; });
    Buffer p{1};
    broker.publish("t", p);
    broker.publish("t", p);
    EXPECT_EQ(broker.published(), 2u);
  }  // broker dies with both deliveries still queued
  pump(reactor);
  EXPECT_EQ(got, 0);  // voided, not delivered — and no use-after-free
}

// ---------------------------------------------------------------------------
// REST server + client
// ---------------------------------------------------------------------------

TEST(Rest, GetAndPostRoundTrip) {
  Reactor reactor;
  HttpServer http(reactor);
  http.route("GET", "/hello", [](const HttpRequest&, HttpResponse& resp) {
    resp.body = R"({"msg":"world"})";
  });
  std::string posted;
  http.route("POST", "/config", [&](const HttpRequest& req, HttpResponse& resp) {
    posted = req.body;
    resp.code = 201;
    resp.body = R"({"ok":true})";
  });
  ASSERT_TRUE(http.listen(0).is_ok());
  std::uint16_t port = http.port();

  // curl-like client on its own thread (blocking), reactor pumped here.
  std::atomic<bool> done{false};
  HttpResponse get_resp, post_resp;
  std::thread client([&] {
    auto r1 = HttpClient::request("127.0.0.1", port, "GET", "/hello");
    if (r1) get_resp = *r1;
    auto r2 = HttpClient::request("127.0.0.1", port, "POST", "/config",
                                  R"({"x":1})");
    if (r2) post_resp = *r2;
    done = true;
  });
  pump_until(reactor, [&] { return done.load(); }, 20000);
  client.join();

  EXPECT_EQ(get_resp.code, 200);
  EXPECT_EQ(get_resp.body, R"({"msg":"world"})");
  EXPECT_EQ(post_resp.code, 201);
  EXPECT_EQ(posted, R"({"x":1})");
}

TEST(Rest, UnknownRouteIs404) {
  Reactor reactor;
  HttpServer http(reactor);
  ASSERT_TRUE(http.listen(0).is_ok());
  std::atomic<bool> done{false};
  HttpResponse resp;
  std::thread client([&] {
    auto r = HttpClient::request("127.0.0.1", http.port(), "GET", "/nope");
    if (r) resp = *r;
    done = true;
  });
  pump_until(reactor, [&] { return done.load(); }, 20000);
  client.join();
  EXPECT_EQ(resp.code, 404);
}

TEST(Rest, PrefixRoutes) {
  Reactor reactor;
  HttpServer http(reactor);
  std::string last_path;
  http.route("GET", "/api/", [&](const HttpRequest& req, HttpResponse& resp) {
    last_path = req.path;
    resp.body = "{}";
  });
  ASSERT_TRUE(http.listen(0).is_ok());
  std::atomic<bool> done{false};
  int code = 0;
  std::thread client([&] {
    auto r = HttpClient::request("127.0.0.1", http.port(), "GET",
                                 "/api/slices/3");
    if (r) code = r->code;
    done = true;
  });
  pump_until(reactor, [&] { return done.load(); }, 20000);
  client.join();
  EXPECT_EQ(code, 200);
  EXPECT_EQ(last_path, "/api/slices/3");
}

TEST(Rest, OversizedRequestBodyIs413WithRetryAfter) {
  Reactor reactor;
  HttpServer http(reactor);
  http.set_max_request_bytes(512);
  int handler_calls = 0;
  http.route("POST", "/config", [&](const HttpRequest&, HttpResponse& resp) {
    handler_calls++;
    resp.body = "{}";
  });
  ASSERT_TRUE(http.listen(0).is_ok());

  std::atomic<bool> done{false};
  HttpResponse resp;
  std::thread client([&] {
    auto r = HttpClient::request("127.0.0.1", http.port(), "POST", "/config",
                                 std::string(4096, 'x'));
    if (r) resp = *r;
    done = true;
  });
  pump_until(reactor, [&] { return done.load(); }, 20000);
  client.join();

  EXPECT_EQ(resp.code, 413);
  EXPECT_EQ(resp.retry_after_s, 1) << "413 must carry a Retry-After hint";
  EXPECT_EQ(handler_calls, 0) << "the oversized body must never reach a handler";
  // A right-sized request on the same server still succeeds afterwards.
  done = false;
  std::thread client2([&] {
    auto r = HttpClient::request("127.0.0.1", http.port(), "POST", "/config",
                                 R"({"x":1})");
    if (r) resp = *r;
    done = true;
  });
  pump_until(reactor, [&] { return done.load(); }, 20000);
  client2.join();
  EXPECT_EQ(resp.code, 200);
  EXPECT_EQ(handler_calls, 1);
}

TEST(Rest, OversizedResponseIs503WithRetryAfter) {
  Reactor reactor;
  HttpServer http(reactor);
  http.set_max_response_bytes(256);
  http.route("GET", "/dump", [](const HttpRequest&, HttpResponse& resp) {
    resp.body = std::string(4096, 'y');  // handler overproduces
  });
  ASSERT_TRUE(http.listen(0).is_ok());

  std::atomic<bool> done{false};
  HttpResponse resp;
  std::thread client([&] {
    auto r = HttpClient::request("127.0.0.1", http.port(), "GET", "/dump");
    if (r) resp = *r;
    done = true;
  });
  pump_until(reactor, [&] { return done.load(); }, 20000);
  client.join();

  EXPECT_EQ(resp.code, 503);
  EXPECT_EQ(resp.retry_after_s, 1);
  EXPECT_LE(resp.body.size(), 256u)
      << "the oversized payload must be shed, not shipped";
}

// ---------------------------------------------------------------------------
// Monitoring iApp (the Fig. 8 workload)
// ---------------------------------------------------------------------------

ran::CellConfig nr_cell() {
  ran::CellConfig cfg;
  cfg.rat = ran::Rat::nr;
  cfg.num_prbs = 106;
  cfg.default_mcs = 20;
  return cfg;
}

struct MonitorWorld {
  Reactor reactor;
  ran::BaseStation bs{nr_cell()};
  agent::E2Agent agent{reactor, {{1, 10, e2ap::NodeType::gnb}, kFmt, {}}};
  ran::BsFunctionBundle bundle{bs, agent, kFmt};
  server::E2Server server{reactor, {.ric_id = 21,
                                    .e2ap_format = kFmt,
                                    .quarantine_after = 3 * kSecond,
                                    .expire_after = 10 * kSecond}};
  Nanos now = 0;

  void connect() {
    auto [a_side, s_side] = LocalTransport::make_pair(reactor);
    server.attach(s_side);
    (void)agent.add_controller(a_side);
    test::pump_until(reactor,
                     [this] { return server.ran_db().num_agents() == 1; });
  }
  void run_ttis(int n) {
    for (int t = 0; t < n; ++t) {
      now += kMilli;
      bs.tick(now);
      bundle.on_tti(now);
      reactor.run_once(0);
    }
  }
};

TEST(Monitor, SubscribesAndPopulatesDb) {
  MonitorWorld w;
  auto monitor = std::make_shared<MonitorIApp>(MonitorIApp::Config{kFmt, 1});
  w.server.add_iapp(monitor);
  w.connect();
  (void)w.bs.attach_ue({100, 1, 0, 15, 20});
  (void)w.bs.attach_ue({101, 1, 0, 15, 20});
  w.run_ttis(20);
  pump(w.reactor, 5);

  ASSERT_EQ(monitor->db().size(), 1u);
  const auto& db = monitor->db().begin()->second;
  EXPECT_EQ(db.mac.size(), 2u);
  EXPECT_EQ(db.rlc.size(), 2u);
  EXPECT_EQ(db.pdcp.size(), 2u);
  EXPECT_GT(monitor->total_indications(), 30u);  // 3 SMs x ~20 reports
}

TEST(Monitor, RepublishesToBroker) {
  MonitorWorld w;
  Broker broker(w.reactor);
  MonitorIApp::Config cfg{kFmt, 1};
  cfg.broker = &broker;
  cfg.want_mac = false;
  cfg.want_pdcp = false;  // only RLC (the TC xApp feed)
  auto monitor = std::make_shared<MonitorIApp>(cfg);
  w.server.add_iapp(monitor);
  int published = 0;
  broker.subscribe("stats/rlc",
                   [&](const std::string&, BytesView) { published++; });
  w.connect();
  (void)w.bs.attach_ue({100, 1, 0, 15, 20});
  w.run_ttis(10);
  pump(w.reactor, 5);
  EXPECT_GT(published, 5);
}

// The monitor's flat records against a std::map oracle: seeded reports in
// which UEs join, leave and change order. After every report both must hold
// the same records in the same order, and find() must agree.
TEST(FlatRecords, MatchStdMapOracleOverSeededReports) {
  using Key = std::pair<std::uint16_t, std::uint8_t>;
  auto key = [](const e2sm::rlc::BearerStats& b) {
    return Key{b.rnti, b.drb_id};
  };
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    std::mt19937_64 rng(seed);
    FlatRecords<Key, e2sm::rlc::BearerStats> flat;
    std::map<Key, e2sm::rlc::BearerStats> oracle;
    std::vector<Key> attached;
    for (int report = 0; report < 300; ++report) {
      const auto roll = rng() % 8;
      if (roll == 0 || attached.empty()) {  // a UE joins with 1-2 bearers
        const auto rnti = static_cast<std::uint16_t>(rng() % 200);
        for (std::uint8_t drb = 1; drb <= 1 + rng() % 2; ++drb)
          if (std::find(attached.begin(), attached.end(), Key{rnti, drb}) ==
              attached.end())
            attached.emplace_back(rnti, drb);
      } else if (roll == 1) {  // one leaves: its last record stays
        attached.erase(attached.begin() +
                       static_cast<long>(rng() % attached.size()));
      } else if (roll == 2) {  // the agent lists them in a new order
        std::shuffle(attached.begin(), attached.end(), rng);
      }
      std::vector<e2sm::rlc::BearerStats> msg;
      for (const Key& k : attached)
        if (rng() % 10 != 0) {  // now and then a bearer skips a report
          e2sm::rlc::BearerStats b;
          b.rnti = k.first;
          b.drb_id = k.second;
          b.tx_bytes = rng();
          b.buffer_bytes = static_cast<std::uint32_t>(report);
          msg.push_back(b);
        }
      flat.update(msg, key);
      for (const auto& b : msg) oracle[key(b)] = b;
      ASSERT_EQ(flat.size(), oracle.size()) << "seed " << seed;
      ASSERT_TRUE(std::equal(flat.begin(), flat.end(), oracle.begin(),
                             oracle.end(),
                             [](const auto& x, const auto& y) {
                               return x.first == y.first &&
                                      x.second == y.second;
                             }))
          << "seed " << seed << ", report " << report;
      for (const auto& [k, v] : oracle) {
        auto it = flat.find(k);
        ASSERT_NE(it, flat.end());
        EXPECT_EQ(it->second, v);
      }
      EXPECT_EQ(flat.find(Key{999, 0}), flat.end());
    }
  }
}

// ---------------------------------------------------------------------------
// Slicing iApp
// ---------------------------------------------------------------------------

TEST(SlicingIApp, JsonToCtrlMsgTranslation) {
  auto j = Json::parse(R"({
    "algo": "nvs",
    "slices": [
      {"id": 1, "label": "embb", "share": 0.66, "sched": "pf"},
      {"id": 2, "rate_mbps": 5, "ref_rate_mbps": 50, "sched": "rr"}
    ]})");
  ASSERT_TRUE(j.is_ok());
  auto msg = SlicingIApp::ctrl_from_json(*j);
  ASSERT_TRUE(msg.is_ok());
  EXPECT_EQ(msg->kind, e2sm::slice::CtrlKind::add_mod);
  EXPECT_EQ(msg->algo, e2sm::slice::Algo::nvs);
  ASSERT_EQ(msg->slices.size(), 2u);
  EXPECT_EQ(msg->slices[0].nvs.kind, e2sm::slice::NvsKind::capacity);
  EXPECT_DOUBLE_EQ(msg->slices[0].nvs.capacity_share, 0.66);
  EXPECT_EQ(msg->slices[1].nvs.kind, e2sm::slice::NvsKind::rate);
  EXPECT_DOUBLE_EQ(msg->slices[1].nvs.rate_mbps, 5.0);
  EXPECT_EQ(msg->slices[1].ue_sched, e2sm::slice::UeSched::rr);
}

TEST(SlicingIApp, JsonAssocAndDelete) {
  auto assoc = SlicingIApp::ctrl_from_json(
      *Json::parse(R"({"assoc":[{"rnti":100,"slice":1}]})"));
  ASSERT_TRUE(assoc.is_ok());
  EXPECT_EQ(assoc->kind, e2sm::slice::CtrlKind::assoc_ue);
  ASSERT_EQ(assoc->assoc.size(), 1u);
  EXPECT_EQ(assoc->assoc[0].rnti, 100);

  auto del = SlicingIApp::ctrl_from_json(*Json::parse(R"({"delete":[1,2]})"));
  ASSERT_TRUE(del.is_ok());
  EXPECT_EQ(del->kind, e2sm::slice::CtrlKind::del);
  EXPECT_EQ(del->del_ids, (std::vector<std::uint32_t>{1, 2}));
}

TEST(SlicingIApp, BadJsonRejected) {
  EXPECT_FALSE(
      SlicingIApp::ctrl_from_json(*Json::parse(R"({"algo":"bogus"})")).is_ok());
  EXPECT_FALSE(
      SlicingIApp::ctrl_from_json(*Json::parse(R"({"algo":"nvs"})")).is_ok());
}

TEST(SlicingIApp, ConfiguresSlicesAndLearnsUes) {
  MonitorWorld w;
  auto slicing =
      std::make_shared<SlicingIApp>(SlicingIApp::Config{kFmt, 10});
  w.server.add_iapp(slicing);
  w.connect();
  (void)w.bs.attach_ue({100, 20899, 1, 15, 20});
  pump(w.reactor, 5);
  // UE discovery through RRC events.
  ASSERT_EQ(slicing->ues().size(), 1u);
  EXPECT_EQ(slicing->ues().at(100).plmn, 20899u);

  // Configure a slice through the iApp.
  auto msg = SlicingIApp::ctrl_from_json(
      *Json::parse(R"({"algo":"nvs","slices":[{"id":1,"share":0.5}]})"));
  std::optional<bool> ok;
  ASSERT_TRUE(slicing
                  ->configure(*slicing->first_agent(), *msg,
                              [&](const e2sm::slice::CtrlOutcome& o) {
                                ok = o.success;
                              })
                  .is_ok());
  ASSERT_TRUE(pump_until(w.reactor, [&] { return ok.has_value(); }));
  EXPECT_TRUE(*ok);
  EXPECT_EQ(w.bs.mac().num_slices(), 2u);

  // Status reports flow back.
  w.run_ttis(30);
  pump(w.reactor, 5);
  ASSERT_EQ(slicing->status().size(), 1u);
  EXPECT_EQ(slicing->status().begin()->second.algo, e2sm::slice::Algo::nvs);
}

// ---------------------------------------------------------------------------
// TC xApp policy
// ---------------------------------------------------------------------------

TEST(TcXappPolicy, JsonToTcCtrl) {
  auto add_q = TcSmManagerIApp::ctrl_from_json(*Json::parse(
      R"({"cmd":"add_queue","rnti":100,"drb":1,"qid":1})"));
  ASSERT_TRUE(add_q.is_ok());
  EXPECT_EQ(add_q->kind, e2sm::tc::CtrlKind::add_queue);
  EXPECT_EQ(add_q->queue.qid, 1u);

  auto add_f = TcSmManagerIApp::ctrl_from_json(*Json::parse(
      R"({"cmd":"add_filter","rnti":100,"filter_id":1,"qid":1,
          "match":{"dst_port":5060,"proto":17}})"));
  ASSERT_TRUE(add_f.is_ok());
  EXPECT_EQ(add_f->filter.match.dst_port, 5060);

  auto pacer = TcSmManagerIApp::ctrl_from_json(*Json::parse(
      R"({"cmd":"pacer","rnti":100,"mode":"bdp","target_ms":5})"));
  ASSERT_TRUE(pacer.is_ok());
  EXPECT_EQ(pacer->pacer.kind, e2sm::tc::PacerKind::bdp);

  EXPECT_FALSE(TcSmManagerIApp::ctrl_from_json(
                   *Json::parse(R"({"cmd":"launch_missiles"})"))
                   .is_ok());
}

TEST(TcXappPolicy, AppliesSegregationWhenSojournExceedsLimit) {
  MonitorWorld w;
  Broker broker(w.reactor);
  MonitorIApp::Config mon_cfg{kFmt, 1};
  mon_cfg.broker = &broker;
  auto monitor = std::make_shared<MonitorIApp>(mon_cfg);
  auto manager = std::make_shared<TcSmManagerIApp>(kFmt);
  w.server.add_iapp(monitor);
  w.server.add_iapp(manager);

  TcXapp::Config xcfg;
  xcfg.sm_format = kFmt;
  xcfg.sojourn_limit_ms = 20.0;
  xcfg.rnti = 100;
  xcfg.low_latency_flow.dst_port = 5060;
  xcfg.low_latency_flow.proto = 17;
  TcXapp xapp(broker, *manager, xcfg);

  w.connect();
  (void)w.bs.attach_ue({100, 1, 0, 15, 3});  // low MCS: easy to bloat
  EXPECT_FALSE(xapp.applied());

  // Overload the bearer: sojourn climbs past the limit, the xApp reacts.
  for (int t = 0; t < 300 && !xapp.applied(); ++t) {
    w.now += kMilli;
    for (int k = 0; k < 8; ++k) {
      ran::Packet p;
      p.size_bytes = 1400;
      p.tuple.dst_port = 443;
      p.tuple.proto = 6;
      w.bs.deliver_downlink(100, 1, p);
    }
    w.bs.tick(w.now);
    w.bundle.on_tti(w.now);
    w.reactor.run_once(0);
  }
  ASSERT_TRUE(xapp.applied());
  EXPECT_GT(xapp.stats_seen(), 0u);
  pump(w.reactor, 10);

  // The three actions materialized in the user plane.
  tc::TcChain* chain = w.bs.tc_chain(100, 1);
  ASSERT_NE(chain, nullptr);
  EXPECT_EQ(chain->num_queues(), 2u);
  EXPECT_EQ(chain->pacer().kind, e2sm::tc::PacerKind::bdp);
}

}  // namespace
}  // namespace flexric::ctrl
