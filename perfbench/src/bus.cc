// bus-live-sharded: a live BusTracker primary at a fixed offered rate, shipped
// through a 2-lane sharded LogShipper into 2 in-process AETS shards with
// DBSCAN access-rate grouping. 65 narrow tables, 37% hot-log share: after the
// epoch fill, replay and the shard frontier carry the visibility delay; disk,
// TCP and scans stay out. The rate is a third of the rate at which the
// open-loop writer stops keeping its schedule (README: rate sweep).
#include <algorithm>
#include <cstdio>

#include "aets/catalog/shard_map.h"
#include "aets/replay/sharded_backup.h"
#include "aets/workload/bustracker.h"
#include "live.h"

namespace perfbench {

using namespace aets;

namespace {

constexpr int kShards = 2;
constexpr size_t kEpochSize = 256;
constexpr double kRate = 8000;
constexpr double kProbeRate = 1200;  // a 10 s run: 120 probes beyond the p99
constexpr int64_t kHeartbeatUs = 50'000;  // the paper's and LogShipper's default

struct BusRig {
  explicit BusRig(const Args& args)
      : map(ShardMap::Hash(workload.catalog().num_tables(), kShards)) {
    EpochStamps* st = args.trace ? &stamps : nullptr;
    shipper.SetShardMap(&map);
    std::vector<EpochChannel*> lanes;
    for (int s = 0; s < kShards; ++s) {
      channels.push_back(std::make_unique<ArrivalChannel>(4096, st));
      recorders.push_back(std::make_unique<RecorderChannel>(st));
      shipper.AttachShardChannel(s, channels.back().get());
      shipper.AttachShardChannel(s, recorders.back().get());
      lanes.push_back(channels.back().get());
    }
    AetsOptions base;  // 4 replay + 4 commit threads in total, split by shard
    base.grouping = GroupingMode::kByAccessRate;
    base.initial_rates = workload.TrueRates(0);
    backup = MakeShardedAetsBackup(&workload.catalog(), &map, lanes, base);
    for (int s = 0; s < kShards; ++s) backup->SetShardEpochSource(s, shipper.shard_source(s));
    started = backup->Start();
    db.SetCommitSink(MakeSink(&shipper, &sink));
    shipper.StartHeartbeats([this] { return db.AcquireHeartbeatTs(); }, kHeartbeatUs);
    Rng rng(args.seed);
    workload.Load(&db, &rng);
    shipper.FlushEpoch();
    int64_t deadline = NowNs() + 60'000'000'000;
    while (backup->GlobalVisibleTs() < db.last_commit_ts() && NowNs() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  ~BusRig() {
    shipper.Finish();
    backup->Stop();
  }

  BusTrackerWorkload workload;
  LogicalClock clock;
  PrimaryDb db{&workload.catalog(), &clock};
  ShardMap map;
  EpochStamps stamps;
  SinkLog sink;
  std::vector<std::unique_ptr<ArrivalChannel>> channels;
  std::vector<std::unique_ptr<RecorderChannel>> recorders;
  std::unique_ptr<ShardedBackup> backup;
  Status started;
  LogShipper shipper{kEpochSize};  // last: stops before what it delivers to
};

}  // namespace

int RunBusLiveSharded(const Args& args) {
  std::unique_ptr<BusRig> rig;
  double setup_s = MedianSetupSeconds(
      kLiveSetupRepeats, [&] { rig.reset(); }, [&] { rig = std::make_unique<BusRig>(args); });
  Checks checks;
  checks.Expect(rig->started.ok(), "backup start: " + rig->started.ToString());
  checks.Expect(rig->backup->GlobalVisibleTs() >= rig->db.last_commit_ts(),
                "backup did not catch up with the load phase");

  LivePlan plan;
  plan.workload = &rig->workload;
  plan.db = &rig->db;
  plan.shipper = &rig->shipper;
  plan.backup = rig->backup.get();
  plan.sink = &rig->sink;
  for (int s = 0; s < kShards; ++s) plan.shards.push_back(rig->backup->shard(s));
  plan.rate = kRate;
  plan.probe_rate = kProbeRate;
  std::vector<size_t> from;
  for (auto& r : rig->recorders) from.push_back(r->size());
  LiveResult r = RunLive(plan, args);

  rig->shipper.Finish();
  rig->backup->Stop();
  uint64_t shipped_bytes = 0;
  for (int s = 0; s < kShards; ++s) {
    shipped_bytes += StreamBytes(rig->recorders[s]->epochs(), from[s]);
  }

  Report report;
  OpCount probes;
  Dist hot_lead_ms;
  AddLiveEndToEnd(plan, r, setup_s, shipped_bytes, &report, &probes, &hot_lead_ms, &checks);

  // ---- Check phase.
  LogShipper& shipper = rig->shipper;
  checks.Expect(shipper.epochs_produced() == shipper.epochs_shipped() + shipper.epochs_dropped(),
                "shipper conservation");
  checks.Expect(shipper.epochs_dropped() == 0,
                std::to_string(shipper.epochs_dropped()) + " epochs dropped");
  std::vector<std::unique_ptr<sim::ReferenceModel>> models;
  for (int s = 0; s < kShards; ++s) {
    auto* shard = dynamic_cast<ReplayerBase*>(rig->backup->shard(s));
    checks.Expect(shard != nullptr && shard->error().ok(),
                  "shard " + std::to_string(s) + " replay error");
    models.push_back(std::make_unique<sim::ReferenceModel>(rig->workload.catalog().num_tables()));
    for (const ShippedEpoch& e : rig->recorders[s]->epochs()) {
      Status st = models.back()->Apply(e);
      checks.Expect(st.ok(), "reference model: " + st.ToString());
    }
  }
  Timestamp final_ts = rig->backup->GlobalVisibleTs();
  for (int s = 0; s < kShards; ++s) {
    Timestamp shard_ts = rig->backup->shard(s)->GlobalVisibleTs();
    // A data sub-epoch carries the whole epoch's max commit timestamp, which
    // may belong to a transaction of the other shard, so the lane's headers
    // (not its transactions) say how far the shard must have published.
    Timestamp lane_ts = 0;
    for (const ShippedEpoch& e : rig->recorders[static_cast<size_t>(s)]->epochs()) {
      lane_ts = std::max({lane_ts, e.max_commit_ts, e.heartbeat_ts});
    }
    checks.Expect(shard_ts == lane_ts && shard_ts >= final_ts,
                  "shard " + std::to_string(s) + " watermark " + std::to_string(shard_ts) +
                      ", its lane's last epoch " + std::to_string(lane_ts) + ", global " +
                      std::to_string(final_ts));
  }
  CheckFinalState(
      rig->backup.get(), rig->workload.catalog(),
      [&](TableId t) { return models[static_cast<size_t>(rig->map.shard_of(t))].get(); },
      final_ts, args.perturb == "row", &checks);

  if (args.trace) {
    const uint64_t committed = r.writer.txns.attempted - r.writer.txns.failed;
    const double ktxn = static_cast<double>(committed) / 1e3;
    std::vector<EpochSpan> spans = BuildTimeline(rig->recorders[0]->epochs(), from[0],
                                                 rig->sink, &rig->stamps, *r.observer);
    // Shard frontier: per data epoch, how far the slowest shard's watermark
    // trailed the fastest one's in reaching it.
    Dist frontier_ms;
    for (const EpochSpan& s : spans) {
      if (s.txns == 0) continue;
      int64_t lo = INT64_MAX, hi = -1;
      for (const auto& wm : r.observer->shard_wm()) {
        int64_t t = FirstReach(wm, s.end_ts);
        if (t < 0) continue;
        lo = std::min(lo, t);
        hi = std::max(hi, t);
      }
      if (hi >= 0) frontier_ms.Add(static_cast<double>(hi - lo) / 1e6);
    }
    std::vector<std::vector<ShippedEpoch>> lanes;
    for (int s = 0; s < kShards; ++s) {
      const auto& all = rig->recorders[s]->epochs();
      lanes.emplace_back(all.begin() + static_cast<std::ptrdiff_t>(from[s]), all.end());
    }
    OfflineLayerCosts offline = MeasureOffline(lanes, args.workdir + "/offline", &checks);
    LayerInputs in;
    in.writer = &r.writer;
    in.sink = &rig->sink;
    in.spans = &spans;
    in.offline = &offline;
    in.replay = r.replay;
    in.cpu_ns = r.cpu_ns;
    in.ktxn = ktxn;
    in.hot_lead_ms = &hot_lead_ms;
    in.observer_cpu_ns = r.observer->thread_cpu_ns();
    AddLayerRows(in, &report);
    report.AddTail("replay.frontier_lag_ms", frontier_ms, 1.0, "ms", 0.90);
    WriteSpans(args.workdir + "/spans-bus-live-sharded.jsonl", spans, r.start_ns);
  }
  report.Note("config: " + std::to_string(kShards) + " shards, epoch " +
              std::to_string(kEpochSize) + " txns, offered " + std::to_string(int(kRate)) +
              " txn/s, probes " + std::to_string(int(kProbeRate)) + "/s, heartbeat " +
              std::to_string(kHeartbeatUs) + " us");
  report.Note("ops attempted/failed: txns " + std::to_string(r.writer.txns.attempted) + "/" +
              std::to_string(r.writer.txns.failed) + ", probes " +
              std::to_string(probes.attempted) + "/" + std::to_string(probes.failed) +
              "; epochs produced " + std::to_string(shipper.epochs_produced()) + ", shipped " +
              std::to_string(shipper.epochs_shipped()) + ", dropped " +
              std::to_string(shipper.epochs_dropped()) + ", retransmitted " +
              std::to_string(shipper.retransmits()) + ", corrupt-dropped " +
              std::to_string(r.replay.corrupt));
  return Finish("bus-live-sharded", report, checks,
                r.writer.txns.attempted + probes.attempted, r.writer.txns.failed + probes.failed);
}

}  // namespace perfbench
