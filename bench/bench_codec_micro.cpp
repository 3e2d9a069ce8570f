// Ablation — encode/decode micro-costs of the three wire formats.
//
// Separates the mechanisms behind Figs. 7/8: PER pays on both encode and
// decode and scales with payload size (bit-level processing); FLAT encode
// is cheap and "decode" is near-constant (header validation + in-place
// reads); PROTO sits in between. Also measures the double-encoding cost
// E2 imposes (SM payload wrapped in E2AP).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "e2ap/codec.hpp"
#include "e2sm/mac_sm.hpp"
#include "e2sm/serde.hpp"

using namespace flexric;

namespace {

e2sm::mac::IndicationMsg stats_msg(int ues) {
  e2sm::mac::IndicationMsg msg;
  for (int i = 0; i < ues; ++i) {
    e2sm::mac::UeStats s;
    s.rnti = static_cast<std::uint16_t>(100 + i);
    s.cqi = 15;
    s.mcs_dl = 28;
    s.prbs_dl = 25;
    s.bytes_dl = 123456;
    s.bsr = 999;
    s.phr_db = 20;
    msg.ues.push_back(s);
  }
  return msg;
}

WireFormat fmt_of(std::int64_t f) { return static_cast<WireFormat>(f); }

void BM_SmEncode(benchmark::State& state) {
  auto msg = stats_msg(static_cast<int>(state.range(1)));
  WireFormat fmt = fmt_of(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(e2sm::sm_encode(msg, fmt));
  state.SetLabel(std::string(wire_format_name(fmt)) + "/" +
                 std::to_string(state.range(1)) + "ues");
}

void BM_SmDecode(benchmark::State& state) {
  WireFormat fmt = fmt_of(state.range(0));
  Buffer wire = e2sm::sm_encode(stats_msg(static_cast<int>(state.range(1))),
                                fmt);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        e2sm::sm_decode<e2sm::mac::IndicationMsg>(wire, fmt));
  state.SetLabel(std::string(wire_format_name(fmt)) + "/" +
                 std::to_string(state.range(1)) + "ues");
}

/// Full E2 double encoding: SM payload + E2AP indication wrap.
void BM_DoubleEncode(benchmark::State& state) {
  WireFormat fmt = fmt_of(state.range(0));
  auto msg = stats_msg(32);
  const e2ap::Codec& codec = e2ap::codec_for(fmt);
  for (auto _ : state) {
    e2ap::Indication ind;
    ind.request = {1, 1};
    ind.ran_function_id = 142;
    ind.message = e2sm::sm_encode(msg, fmt);  // inner encoding
    benchmark::DoNotOptimize(codec.encode(e2ap::Msg{ind}));  // outer
  }
  state.SetLabel(std::string(wire_format_name(fmt)) + "/double");
}

void BM_DoubleDecode(benchmark::State& state) {
  WireFormat fmt = fmt_of(state.range(0));
  const e2ap::Codec& codec = e2ap::codec_for(fmt);
  e2ap::Indication ind;
  ind.request = {1, 1};
  ind.ran_function_id = 142;
  ind.message = e2sm::sm_encode(stats_msg(32), fmt);
  Buffer wire = *codec.encode(e2ap::Msg{ind});
  for (auto _ : state) {
    auto outer = codec.decode(wire);
    const auto& inner = std::get<e2ap::Indication>(*outer);
    benchmark::DoNotOptimize(
        e2sm::sm_decode<e2sm::mac::IndicationMsg>(inner.message, fmt));
  }
  state.SetLabel(std::string(wire_format_name(fmt)) + "/double");
}

/// E2AP alone. Kind 0: an indication around a pre-encoded 32-UE payload;
/// kind 1: a subscription request with four actions (lists + ranged ids).
e2ap::Msg e2ap_msg(std::int64_t kind, WireFormat fmt) {
  if (kind == 0) {
    e2ap::Indication ind;
    ind.request = {1, 1};
    ind.ran_function_id = 142;
    ind.header = Buffer(12, 0x5A);
    ind.message = e2sm::sm_encode(stats_msg(32), fmt);
    return ind;
  }
  e2ap::SubscriptionRequest req;
  req.request = {1, 1};
  req.ran_function_id = 142;
  req.event_trigger = Buffer{0, 0, 0, 1};
  for (std::uint8_t id = 1; id <= 4; ++id)
    req.actions.push_back({id, e2ap::ActionType::report, Buffer(8, id)});
  return req;
}

std::string e2ap_label(const benchmark::State& state, WireFormat fmt) {
  return std::string(wire_format_name(fmt)) +
         (state.range(1) == 0 ? "/indication" : "/subscription");
}

void BM_E2apEncode(benchmark::State& state) {
  WireFormat fmt = fmt_of(state.range(0));
  const e2ap::Codec& codec = e2ap::codec_for(fmt);
  const e2ap::Msg msg = e2ap_msg(state.range(1), fmt);
  for (auto _ : state) benchmark::DoNotOptimize(codec.encode(msg));
  state.SetLabel(e2ap_label(state, fmt));
}

void BM_E2apDecode(benchmark::State& state) {
  WireFormat fmt = fmt_of(state.range(0));
  const e2ap::Codec& codec = e2ap::codec_for(fmt);
  const Buffer wire = *codec.encode(e2ap_msg(state.range(1), fmt));
  for (auto _ : state) benchmark::DoNotOptimize(codec.decode(wire));
  state.SetLabel(e2ap_label(state, fmt));
}

void BM_WireSize(benchmark::State& state) {
  WireFormat fmt = fmt_of(state.range(0));
  auto msg = stats_msg(static_cast<int>(state.range(1)));
  std::size_t size = 0;
  for (auto _ : state) {
    Buffer wire = e2sm::sm_encode(msg, fmt);
    size = wire.size();
    benchmark::DoNotOptimize(wire);
  }
  state.counters["wire_bytes"] = static_cast<double>(size);
  state.SetLabel(std::string(wire_format_name(fmt)) + "/" +
                 std::to_string(state.range(1)) + "ues");
}

}  // namespace

// formats: 0 = ASN.1 (PER), 1 = FB (flat), 2 = PROTO
BENCHMARK(BM_SmEncode)->ArgsProduct({{0, 1, 2}, {1, 8, 32}});
BENCHMARK(BM_SmDecode)->ArgsProduct({{0, 1, 2}, {1, 8, 32}});
BENCHMARK(BM_DoubleEncode)->Args({0})->Args({1});
BENCHMARK(BM_DoubleDecode)->Args({0})->Args({1});
// E2AP alone: formats {ASN, FB} x {indication, subscription request}
BENCHMARK(BM_E2apEncode)->ArgsProduct({{0, 1}, {0, 1}});
BENCHMARK(BM_E2apDecode)->ArgsProduct({{0, 1}, {0, 1}});
BENCHMARK(BM_WireSize)->ArgsProduct({{0, 1, 2}, {32}});

namespace {

// Console reporter that also tees each run's real time (plus any counters,
// e.g. wire_bytes) into the shared --json results file.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonTeeReporter(bench::JsonWriter& writer) : writer_(writer) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      std::string name = run.benchmark_name();
      if (!run.report_label.empty()) name += "/" + run.report_label;
      writer_.add(name, run.GetAdjustedRealTime(),
                  benchmark::GetTimeUnitString(run.time_unit));
      for (const auto& [counter_name, counter] : run.counters)
        writer_.add(name + "/" + counter_name,
                    static_cast<double>(counter.value), "");
    }
  }

 private:
  bench::JsonWriter& writer_;
};

}  // namespace

// Custom BENCHMARK_MAIN(): identical console output, plus `--json <path>`
// support via the shared bench harness. The flag is consumed before
// benchmark::Initialize so google-benchmark's own argument parsing (which
// rejects unknown flags) never sees it.
int main(int argc, char** argv) {
  std::string json_path = bench::json_path_from_args(argc, argv);
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json" && i + 1 < argc) {
      ++i;
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data()))
    return 1;
  bench::JsonWriter json("bench_codec_micro");
  JsonTeeReporter reporter(json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return json.write(json_path) ? 0 : 1;
}
