// Federation plane throughput + resilience bench (docs/FEDERATION.md).
//
// Three measurements over an in-process node -> sender -> aggregator
// pipeline shipping real LAT state deltas (v2 raw-moment codec):
//   1. delta export throughput: inserts per epoch + ExportEpoch (diff vs
//      baseline, spool publish, durable baseline rewrite), wall-clock;
//   2. ingest throughput: sender drain into FleetAggregator (journal
//      fsync + validate + merge), wall-clock;
//   3. spool-drain latency under injected `fed.send` failures: the same
//      drain with a 30% retryable send-failure rate. Backoff sleeps go
//      through a MockClock, so the reported p50/p95 drain latency is
//      *virtual* (publish -> removed, including backoff), while retry
//      counts and wall-clock drain time show the real resilience cost.
// After each drain the fleet LAT must answer exactly what the node LAT
// answers (same groups and counts, doubles within 1 ulp); `"exact"` in the
// JSON line reports it and CI fails on `"exact":false`.
//
// The final stdout line is machine-readable: `BENCH_JSON
// {"bench":"fed",...}` so CI can diff runs (schema in docs/PERFORMANCE.md).
//
//   build/bench/bench_fed [--quick]
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/fault.h"
#include "fed/aggregator.h"
#include "fed/node.h"
#include "fed/sender.h"
#include "fed/spool.h"
#include "sqlcm/lat.h"

using namespace sqlcm;

namespace {

constexpr double kSendFailureProb = 0.3;

cm::LatSpec FleetSpec() {
  cm::LatSpec spec;
  spec.name = "FleetQ";
  spec.object_class = cm::MonitoredClass::kQuery;
  spec.group_by = {{"Logical_Signature", "Sig"}};
  spec.aggregates = {
      {cm::LatAggFunc::kCount, "", "N", false},
      {cm::LatAggFunc::kSum, "Duration", "SumDur", false},
      {cm::LatAggFunc::kAvg, "Duration", "AvgDur", false},
      {cm::LatAggFunc::kStdev, "Duration", "SdDur", false},
      {cm::LatAggFunc::kMin, "Duration", "MinDur", false},
      {cm::LatAggFunc::kMax, "Duration", "MaxDur", false},
      {cm::LatAggFunc::kCount, "", "AgN", true},
      {cm::LatAggFunc::kSum, "Duration", "AgSum", true}};
  spec.aging_window_micros = 60'000'000;
  spec.aging_block_micros = 1'000'000;
  return spec;
}

double WallMicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::string JsonNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

struct DrainResult {
  double wall_micros = 0;
  uint64_t retries = 0;
  double p50_us = 0, p95_us = 0;
  bool exact = false;  // fleet LAT == node LAT after the drain
};

/// Equal cells; doubles may differ by 1 ulp (the fed_chaos_test bound).
bool CellsAgree(const common::Value& a, const common::Value& b) {
  if (a.kind() != b.kind()) return false;
  if (!a.is_double()) return a.Compare(b) == 0;
  const double x = a.double_value(), y = b.double_value();
  if (std::isnan(x) || std::isnan(y)) return std::isnan(x) && std::isnan(y);
  return x == y || std::nextafter(x, y) == y;
}

/// True when `fleet` holds exactly `node`'s groups, every cell agreeing.
bool FleetMatchesNode(const cm::Lat& node, const cm::Lat& fleet,
                      int64_t now_micros) {
  if (fleet.size() != node.size()) return false;
  for (const common::Row& want : node.Snapshot(now_micros)) {
    const common::Row key(want.begin(),
                          want.begin() + static_cast<long>(node.group_width()));
    common::Row got;
    if (!fleet.LookupByKey(key, now_micros, &got)) return false;
    for (size_t c = 0; c < want.size(); ++c) {
      if (!CellsAgree(want[c], got[c])) return false;
    }
  }
  return true;
}

/// Inserts `records_per_epoch` rows across `groups` keys per epoch, exports
/// `epochs` epochs, then drains them into a fresh aggregator. Returns the
/// drain measurements; export wall time goes to *export_micros.
DrainResult RunPipeline(const std::string& dir, int epochs,
                        int records_per_epoch, int groups,
                        common::MockClock* clock, double* export_micros) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto node_lat = *cm::Lat::Create(FleetSpec());
  auto fleet_lat = *cm::Lat::Create(FleetSpec());

  fed::FedNode::Options node_options;
  node_options.node_id = "bench-node";
  node_options.dir = dir + "/node";
  node_options.clock = clock;
  auto node = fed::FedNode::Open(node_options, {node_lat.get()});
  if (!node.ok()) {
    std::fprintf(stderr, "node open: %s\n", node.status().ToString().c_str());
    std::exit(1);
  }

  fed::FleetAggregator::Options agg_options;
  agg_options.dir = dir + "/agg";
  agg_options.clock = clock;
  auto agg = fed::FleetAggregator::Open(agg_options, {fleet_lat.get()});
  if (!agg.ok()) {
    std::fprintf(stderr, "agg open: %s\n", agg.status().ToString().c_str());
    std::exit(1);
  }

  const auto export_start = std::chrono::steady_clock::now();
  for (int e = 0; e < epochs; ++e) {
    for (int r = 0; r < records_per_epoch; ++r) {
      cm::QueryRecord rec;
      rec.logical_signature = "sig" + std::to_string(r % groups);
      rec.text = "q:" + rec.logical_signature;
      rec.duration_secs = 0.001 * static_cast<double>(r % 100);
      node_lat->Insert(&rec, clock->NowMicros());
    }
    clock->SleepMicros(1'000);  // one virtual ms per epoch
    auto epoch = (*node)->ExportEpoch();
    if (!epoch.ok()) {
      std::fprintf(stderr, "export: %s\n", epoch.status().ToString().c_str());
      std::exit(1);
    }
  }
  *export_micros = WallMicrosSince(export_start);

  fed::DeltaSender::Options sender_options;
  sender_options.clock = clock;
  sender_options.max_attempts_per_pump = 8;
  sender_options.poison_attempts = 1'000'000;
  fed::DeltaSender sender(node->get(), agg->get(), sender_options);

  DrainResult result;
  const auto drain_start = std::chrono::steady_clock::now();
  while (!(*node)->spool()->List().empty()) {
    auto acked = sender.Pump();
    if (!acked.ok()) {
      std::fprintf(stderr, "pump: %s\n", acked.status().ToString().c_str());
      std::exit(1);
    }
  }
  result.wall_micros = WallMicrosSince(drain_start);
  result.retries = sender.stats().send_retries.value();
  const auto pct = sender.stats().drain_micros.ComputePercentiles();
  result.p50_us = pct.p50;
  result.p95_us = pct.p95;
  result.exact = FleetMatchesNode(*node_lat, *fleet_lat, clock->NowMicros());
  std::filesystem::remove_all(dir);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  const int epochs = quick ? 32 : 128;
  const int records_per_epoch = quick ? 2'000 : 10'000;
  const int groups = quick ? 128 : 512;
  const std::string dir =
      std::filesystem::temp_directory_path().string() + "/sqlcm_bench_fed";

  std::printf("bench_fed: %d epochs x %d records (%d groups) per epoch\n\n",
              epochs, records_per_epoch, groups);

  // Clean run: export + ingest throughput without faults.
  common::FaultRegistry::Get()->Reset();
  common::MockClock clean_clock(1'000'000);
  double export_micros = 0;
  const DrainResult clean = RunPipeline(dir + "_clean", epochs,
                                        records_per_epoch, groups,
                                        &clean_clock, &export_micros);
  const double total_records =
      static_cast<double>(epochs) * static_cast<double>(records_per_epoch);
  const double export_eps = 1e6 * epochs / export_micros;
  const double export_rps = 1e6 * total_records / export_micros;
  const double ingest_eps = 1e6 * epochs / clean.wall_micros;
  std::printf("export: %8.1f epochs/s  %10.0f records/s\n", export_eps,
              export_rps);
  std::printf("ingest: %8.1f epochs/s  (journal fsync + validate + merge)\n",
              ingest_eps);

  // Faulty run: same pipeline with a 30% retryable send-failure rate.
  common::FaultRegistry::Get()->Seed(0xBEAC4F0A);
  common::FaultRegistry::Get()->Arm(
      fed::kFaultFedSend,
      {common::FaultKind::kIOError, kSendFailureProb, -1});
  common::MockClock faulty_clock(1'000'000);
  double faulty_export_micros = 0;
  const DrainResult faulty = RunPipeline(dir + "_faulty", epochs,
                                         records_per_epoch, groups,
                                         &faulty_clock,
                                         &faulty_export_micros);
  common::FaultRegistry::Get()->Reset();
  const bool exact = clean.exact && faulty.exact;
  std::printf("fleet LAT == node LAT: clean %s, faulty %s\n",
              clean.exact ? "yes" : "NO", faulty.exact ? "yes" : "NO");
  std::printf("drain @ %.0f%% send failure: %llu retries, virtual latency "
              "p50 %.0fus p95 %.0fus, wall %.1fms\n",
              kSendFailureProb * 100,
              static_cast<unsigned long long>(faulty.retries), faulty.p50_us,
              faulty.p95_us, faulty.wall_micros / 1e3);

  std::string out = "BENCH_JSON {\"bench\":\"fed\"";
  out += ",\"epochs\":" + std::to_string(epochs);
  out += ",\"records_per_epoch\":" + std::to_string(records_per_epoch);
  out += ",\"groups\":" + std::to_string(groups);
  out += ",\"export_epochs_per_sec\":" + JsonNum(export_eps);
  out += ",\"export_records_per_sec\":" + JsonNum(export_rps);
  out += ",\"ingest_epochs_per_sec\":" + JsonNum(ingest_eps);
  out += std::string(",\"exact\":") + (exact ? "true" : "false");
  out += ",\"faulty_drain\":{\"send_failure_prob\":" +
         JsonNum(kSendFailureProb);
  out += ",\"retries\":" + std::to_string(faulty.retries);
  out += ",\"drain_p50_us\":" + JsonNum(faulty.p50_us);
  out += ",\"drain_p95_us\":" + JsonNum(faulty.p95_us);
  out += ",\"drain_wall_ms\":" + JsonNum(faulty.wall_micros / 1e3) + "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
