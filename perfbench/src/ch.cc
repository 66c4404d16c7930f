// ch-live-tcp: the full live path. A live CH-benCHmark primary at a fixed rate
// below replay capacity ships through a durable SegmentStore and a loopback
// EpochStreamServer/EpochStreamClient (TcpEpochSource for NACKs) into one
// AETS backup with columnar projections, while one closed-loop reader
// alternates Q1/Q6 (ChQueryExecutor) and QueryServer scans over one TCP
// connection. Encode, durable append, wire, column merge and scans carry the
// work, with writes beside reads.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "aets/net/epoch_stream.h"
#include "aets/net/query_server.h"
#include "aets/net/tcp_source.h"
#include "aets/obs/metrics.h"
#include "aets/replay/aets_replayer.h"
#include "aets/replay/snapshot_coordinator.h"
#include "aets/storage/segment_store.h"
#include "aets/workload/chbenchmark.h"
#include "aets/workload/query_exec.h"
#include "live.h"

namespace perfbench {

using namespace aets;

namespace {

constexpr size_t kEpochSize = 256;
constexpr double kRate = 4000;  // half the rate at which the writer falls behind (README)
constexpr double kProbeRate = 1200;  // a 10 s run: 120 probes beyond the p99
constexpr int64_t kHeartbeatUs = 50'000;  // the paper's and LogShipper's default
constexpr FsyncPolicy kFsync = FsyncPolicy::kSegment;
const char* const kHost = "127.0.0.1";
constexpr uint64_t kScansPerQuery1 = 5;  // one query, then four scans

// order_line columns Q1/Q6 aggregate (TpccWorkload's schema).
constexpr ColumnId kOlNumber = 1;
constexpr ColumnId kOlQuantity = 4;
constexpr ColumnId kOlAmount = 5;
constexpr ColumnId kOlDeliveryD = 6;

struct QueryObs {
  bool q1 = true;
  Timestamp qts = 0;
  int64_t issue_ns = 0, visible_ns = 0, done_ns = 0;
  ChQueryExecutor::Q1Result q1_result;
  ChQueryExecutor::Q6Result q6_result;
  int64_t qty_lo = 0, qty_hi = 0;
};

struct ScanObs {
  TableId table = 0;
  bool ok = false;
  Timestamp pinned_ts = 0;
  uint64_t row_count = 0;
  Timestamp primary_bound = 0;  // primary's last commit or heartbeat after the reply
  int64_t rtt_ns = 0;
};

struct ChRig {
  ChRig(const Args& args, int index) {
    EpochStamps* st = args.trace ? &stamps : nullptr;
    dir = args.workdir + "/ch-segments-" + std::to_string(index);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    SegmentStoreOptions so;
    so.dir = dir;
    so.fsync_policy = kFsync;
    auto opened = SegmentStore::Open(so);
    if (!opened.ok()) {
      status = opened.status();
      return;
    }
    store = std::move(*opened);
    shipper = std::make_unique<LogShipper>(kEpochSize);
    shipper->AttachSegmentStore(store.get());
    recorder = std::make_unique<RecorderChannel>(st);
    shipper->AttachChannel(recorder.get());
    server = std::make_unique<net::EpochStreamServer>(shipper.get());
    status = server->Start(0);
    if (!status.ok()) return;
    sink = std::make_unique<ArrivalChannel>(4096, st);
    client = std::make_unique<net::EpochStreamClient>(kHost, server->port(), 0, sink.get());
    source = std::make_unique<net::TcpEpochSource>(kHost, server->port(), 0);
    status = client->Start();
    if (status.ok()) status = source->Connect();
    if (!status.ok()) return;
    AetsOptions o;  // per-table groups (CH), 4 + 4 threads, columns on
    o.initial_rates = QueryRates(workload);
    backup = std::make_unique<AetsReplayer>(&workload.catalog(), sink.get(), o);
    backup->SetEpochSource(source.get());
    status = backup->Start();
    if (!status.ok()) return;
    AetsReplayer* b = backup.get();
    coordinator.AttachShard([b] { return b->GlobalVisibleTs(); });
    net::QueryServerOptions qo;
    qo.max_sessions = 1;
    qo.admission_queue = 4;
    queries = std::make_unique<net::QueryServer>(backup.get(), &coordinator, qo);
    status = queries->Start(0);
    if (!status.ok()) return;
    auto conn = net::QueryClient::Connect(kHost, queries->port());
    if (!conn.ok()) {
      status = conn.status();
      return;
    }
    query_client = std::make_unique<net::QueryClient>(std::move(*conn));
    // Let the subscriber attach before the first epoch ships; an epoch it
    // misses anyway is recovered through the NACK source.
    int64_t deadline = NowNs() + 5'000'000'000;
    while (server->subscribers_accepted() == 0 && NowNs() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    db.SetCommitSink(MakeSink(shipper.get(), &sinklog));
    shipper->StartHeartbeats(
        [this] {
          Timestamp ts = db.AcquireHeartbeatTs();
          heartbeat_max.store(ts);
          return ts;
        },
        kHeartbeatUs);
    Rng rng(args.seed);
    workload.Load(&db, &rng);
    shipper->FlushEpoch();
    deadline = NowNs() + 60'000'000'000;
    while (backup->GlobalVisibleTs() < db.last_commit_ts() && NowNs() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    if (backup->GlobalVisibleTs() < db.last_commit_ts()) {
      status = Status::Internal("backup did not catch up with the load phase");
    }
  }

  /// Ends the stream and stops every node; idempotent.
  void Stop() {
    if (stopped) return;
    stopped = true;
    if (shipper) shipper->Finish();
    if (client) {
      int64_t deadline = NowNs() + 30'000'000'000;
      while (!client->clean_end() && NowNs() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    if (backup) backup->Stop();
    if (query_client) query_client->Close();
    if (queries) queries->Stop();
    if (client) client->Stop();
    if (server) server->Stop();
  }

  ~ChRig() {
    Stop();
    queries.reset();
    backup.reset();
    client.reset();
    source.reset();
    server.reset();
    shipper.reset();
    store.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  ChBenchmarkWorkload workload;
  LogicalClock clock;
  PrimaryDb db{&workload.catalog(), &clock};
  EpochStamps stamps;
  SinkLog sinklog;
  std::string dir;
  Status status;
  bool stopped = false;
  std::atomic<Timestamp> heartbeat_max{0};
  std::unique_ptr<SegmentStore> store;
  std::unique_ptr<LogShipper> shipper;
  std::unique_ptr<RecorderChannel> recorder;
  std::unique_ptr<net::EpochStreamServer> server;
  std::unique_ptr<ArrivalChannel> sink;
  std::unique_ptr<net::EpochStreamClient> client;
  std::unique_ptr<net::TcpEpochSource> source;
  std::unique_ptr<AetsReplayer> backup;
  GlobalSnapshotCoordinator coordinator;
  std::unique_ptr<net::QueryServer> queries;
  std::unique_ptr<net::QueryClient> query_client;
};

bool Near(double a, double b) {
  return std::abs(a - b) <= 1e-6 + 1e-9 * std::max(std::abs(a), std::abs(b));
}

/// The benchmark's own Q1/Q6 over order_line rows.
void Aggregate(const std::function<void(const std::function<void(const Row&)>&)>& rows,
               QueryObs* want) {
  want->q1_result.clear();
  want->q6_result = {};
  rows([&](const Row& row) {
    const Value* num = row.Find(kOlNumber);
    const Value* qty = row.Find(kOlQuantity);
    const Value* amt = row.Find(kOlAmount);
    const Value* dd = row.Find(kOlDeliveryD);
    if (!num || !qty || !amt || !dd || !num->is_int64() || !qty->is_int64() ||
        !amt->is_double() || !dd->is_int64()) {
      return;
    }
    if (want->q1) {
      auto& agg = want->q1_result[num->as_int64()];
      agg.count += 1;
      agg.sum_quantity += qty->as_int64();
      agg.sum_amount += amt->as_double();
    } else if (qty->as_int64() >= want->qty_lo && qty->as_int64() <= want->qty_hi) {
      want->q6_result.lines += 1;
      want->q6_result.revenue += amt->as_double();
    }
  });
}

bool SameAnswer(const QueryObs& got, const QueryObs& want) {
  if (!got.q1) {
    return got.q6_result.lines == want.q6_result.lines &&
           Near(got.q6_result.revenue, want.q6_result.revenue);
  }
  if (got.q1_result.size() != want.q1_result.size()) return false;
  for (const auto& [num, agg] : want.q1_result) {
    auto it = got.q1_result.find(num);
    if (it == got.q1_result.end() || it->second.count != agg.count ||
        it->second.sum_quantity != agg.sum_quantity ||
        !Near(it->second.sum_amount, agg.sum_amount)) {
      return false;
    }
  }
  return true;
}

/// Replays the recorded epoch stream in commit order with the reference
/// model's semantics (inserts and updates upsert their columns, deletes
/// remove the row), so every observation can be checked at its own snapshot
/// in one pass: sim::ReferenceModel answers one snapshot per full table walk,
/// which is too slow for thousands of observations. The sweep itself is
/// checked against the reference model at sampled snapshots and at the end.
class Sweep {
 public:
  Sweep(const std::vector<ShippedEpoch>& epochs, size_t num_tables, TableId order_line)
      : epochs_(epochs), live_(num_tables), order_line_(order_line) {}

  /// Applies every transaction with commit_ts <= ts.
  Status AdvanceTo(Timestamp ts) {
    while (true) {
      if (txn_ >= decoded_.txns.size()) {
        if (epoch_ >= epochs_.size()) return Status::OK();
        const ShippedEpoch& e = epochs_[epoch_++];
        if (e.is_heartbeat()) continue;
        auto decoded = DecodeEpoch(e);
        if (!decoded.ok()) return decoded.status();
        decoded_ = std::move(*decoded);
        txn_ = 0;
        continue;
      }
      const TxnLog& txn = decoded_.txns[txn_];
      if (txn.commit_ts > ts) return Status::OK();
      for (const LogRecord& r : txn.records) {
        if (!r.is_dml()) continue;
        auto& keys = live_[r.table_id];
        if (r.type == LogRecordType::kDelete) {
          keys.erase(r.row_key);
          if (r.table_id == order_line_) lines_.erase(r.row_key);
          continue;
        }
        keys.insert(r.row_key);
        if (r.table_id == order_line_) {
          Row& row = lines_[r.row_key];
          for (const ColumnValue& cv : r.values) row.Set(cv.column_id, cv.value);
        }
      }
      ++txn_;
    }
  }
  size_t LiveRows(TableId t) const { return live_[t].size(); }
  void ForEachLine(const std::function<void(const Row&)>& visit) const {
    for (const auto& [key, row] : lines_) visit(row);
  }
  std::map<int64_t, Row> Lines() const { return {lines_.begin(), lines_.end()}; }

 private:
  const std::vector<ShippedEpoch>& epochs_;
  size_t epoch_ = 0;
  Epoch decoded_;
  size_t txn_ = 0;
  std::vector<std::unordered_set<int64_t>> live_;
  TableId order_line_;
  std::unordered_map<int64_t, Row> lines_;
};

}  // namespace

int RunChLiveTcp(const Args& args) {
  std::unique_ptr<ChRig> rig;
  int index = 0;
  double setup_s = MedianSetupSeconds(
      kLiveSetupRepeats, [&] { rig.reset(); },
      [&] { rig = std::make_unique<ChRig>(args, index++); });
  Checks checks;
  if (!rig->status.ok()) {
    std::printf("set-up failed: %s\n", rig->status.ToString().c_str());
    return 1;
  }
  ChBenchmarkWorkload& wl = rig->workload;
  const TableId order_line = wl.tpcc().orderline();

  // Closed-loop reader: Q1, 4 scans, Q6, 4 scans, ... over one connection.
  std::vector<QueryObs> queries;
  std::vector<ScanObs> scans;
  OpCount query_ops, scan_ops;
  uint64_t scans_busy = 0;
  ChQueryExecutor exec(&wl, rig->backup->StoreForTable(order_line),
                       rig->backup->ColumnStoreForTable(order_line));
  const std::vector<TableId> tables = wl.catalog().TableIds();
  LivePlan plan;
  int64_t reader_cpu_ns = 0;
  plan.reader = [&](int64_t end_ns) {
    const int64_t cpu0 = ThreadCpuNs();
    Rng rng(args.seed * 613 + 5);
    for (uint64_t k = 0; NowNs() < end_ns; ++k) {
      if (k % kScansPerQuery1 == 0) {
        QueryObs q;
        q.q1 = k % (2 * kScansPerQuery1) == 0;
        q.issue_ns = NowNs();
        q.qts = rig->db.last_commit_ts();
        WaitVisible(*rig->backup, {order_line}, q.qts);
        q.visible_ns = NowNs();
        if (q.q1) {
          q.q1_result = exec.RunQ1(q.qts, std::numeric_limits<int64_t>::max());
        } else {
          q.qty_lo = rng.UniformInt(1, 7);
          q.qty_hi = q.qty_lo + 3;
          q.q6_result = exec.RunQ6(q.qts, q.qty_lo, q.qty_hi);
        }
        q.done_ns = NowNs();
        ++query_ops.attempted;
        queries.push_back(std::move(q));
      } else {
        ScanObs s;
        s.table = tables[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(tables.size()) - 1))];
        int64_t t0 = NowNs();
        auto reply = rig->query_client->Scan(s.table, 0, false);
        s.rtt_ns = NowNs() - t0;
        s.primary_bound = std::max(rig->db.last_commit_ts(), rig->heartbeat_max.load());
        ++scan_ops.attempted;
        if (reply.ok() && !reply->busy) {
          s.ok = true;
          s.pinned_ts = reply->pinned_ts;
          s.row_count = reply->row_count;
        } else {
          if (reply.ok()) ++scans_busy; else ++scan_ops.failed;
          auto conn = net::QueryClient::Connect(kHost, rig->queries->port());
          if (conn.ok()) rig->query_client = std::make_unique<net::QueryClient>(std::move(*conn));
        }
        scans.push_back(s);
      }
    }
    reader_cpu_ns = ThreadCpuNs() - cpu0;
  };
  plan.workload = &wl;
  plan.db = &rig->db;
  plan.shipper = rig->shipper.get();
  plan.backup = rig->backup.get();
  plan.sink = &rig->sinklog;
  plan.rate = kRate;
  plan.probe_rate = kProbeRate;
  if (args.trace) {
    plan.columns = rig->backup->ColumnStoreForTable(order_line);
    plan.column_table = order_line;
  }
  const size_t from = rig->recorder->size();
  LiveResult r = RunLive(plan, args);
  obs::MetricsSnapshot snap = obs::MetricsRegistry::Instance().Snapshot();
  rig->Stop();
  uint64_t shipped_bytes = StreamBytes(rig->recorder->epochs(), from);

  Report report;
  OpCount probes;
  Dist hot_lead_ms;
  AddLiveEndToEnd(plan, r, setup_s, shipped_bytes, &report, &probes, &hot_lead_ms, &checks);

  // Query and scan latencies (this workload only).
  Dist query_ms, wait_ms, qexec_ms, scan_us;
  for (const QueryObs& q : queries) {
    query_ms.Add(static_cast<double>(q.done_ns - q.issue_ns) / 1e6);
    wait_ms.Add(static_cast<double>(q.visible_ns - q.issue_ns) / 1e6);
    qexec_ms.Add(static_cast<double>(q.done_ns - q.visible_ns) / 1e6);
  }
  for (const ScanObs& s : scans) {
    if (s.ok) scan_us.Add(static_cast<double>(s.rtt_ns) / 1e3);
  }
  report.AddTail("query", query_ms, 1.0, "ms", 0.99, "_ms");
  report.AddQuantile("query_p90_ms", query_ms, 0.90, "ms");
  report.AddTail("scan", scan_us, 1.0, "us", 0.99, "_us");
  report.AddQuantile("scan_p90_us", scan_us, 0.90, "us");

  // ---- Check phase.
  LogShipper& shipper = *rig->shipper;
  checks.Expect(shipper.epochs_produced() == shipper.epochs_shipped() + shipper.epochs_dropped(),
                "shipper conservation");
  checks.Expect(shipper.epochs_dropped() == 0,
                std::to_string(shipper.epochs_dropped()) + " epochs dropped");
  checks.Expect(rig->backup->error().ok(), "replay error: " + rig->backup->error().ToString());
  checks.Expect(rig->client->clean_end(), "epoch stream did not end cleanly");
  checks.Expect(exec.error().ok(), "query executor: " + exec.error().ToString());
  checks.Expect(exec.column_type_mismatches() == 0, "column type mismatches in queries");
  checks.Expect(scan_ops.failed == 0, std::to_string(scan_ops.failed) + " scans failed");
  sim::ReferenceModel model(wl.catalog().num_tables());
  for (const ShippedEpoch& e : rig->recorder->epochs()) {
    Status st = model.Apply(e);
    checks.Expect(st.ok(), "reference model: " + st.ToString());
  }
  Timestamp final_ts = rig->backup->GlobalVisibleTs();
  checks.Expect(model.MaxVisibleTs() == final_ts,
                "backup watermark differs from the reference model's");
  CheckFinalState(rig->backup.get(), wl.catalog(), [&](TableId) { return &model; }, final_ts,
                  args.perturb == "row", &checks);
  if (args.perturb == "q6") {
    for (QueryObs& q : queries) {
      if (!q.q1) {
        q.q6_result.revenue += 1.0;
        break;
      }
    }
  }
  if (args.perturb == "scan") {
    for (ScanObs& s : scans) {
      if (s.ok) {
        s.row_count += 1;
        break;
      }
    }
  }
  // Every query and scan, at its own snapshot, in snapshot order.
  std::vector<std::pair<Timestamp, int64_t>> order;  // (ts, query i or ~scan i)
  for (size_t i = 0; i < queries.size(); ++i) {
    order.emplace_back(queries[i].qts, static_cast<int64_t>(i));
  }
  for (size_t i = 0; i < scans.size(); ++i) {
    if (scans[i].ok) order.emplace_back(scans[i].pinned_ts, ~static_cast<int64_t>(i));
  }
  std::sort(order.begin(), order.end());
  Sweep sweep(rig->recorder->epochs(), wl.catalog().num_tables(), order_line);
  constexpr size_t kSampleEvery = 50;  // also asked of the reference model
  for (const auto& [ts, idx] : order) {
    Status st = sweep.AdvanceTo(ts);
    checks.Expect(st.ok(), "sweep: " + st.ToString());
    if (idx >= 0) {
      const QueryObs& q = queries[static_cast<size_t>(idx)];
      QueryObs want;
      want.q1 = q.q1;
      want.qty_lo = q.qty_lo;
      want.qty_hi = q.qty_hi;
      Aggregate([&](const auto& visit) { sweep.ForEachLine(visit); }, &want);
      bool same = SameAnswer(q, want);
      if (!same) ++query_ops.failed;
      checks.Expect(same, std::string(q.q1 ? "Q1" : "Q6") + " answer at qts " +
                              std::to_string(q.qts) + " differs from the reference aggregation");
      if (static_cast<size_t>(idx) % kSampleEvery == 0) {
        std::map<int64_t, Row> rows = model.RowsAt(order_line, q.qts);
        QueryObs direct = want;
        Aggregate([&](const auto& visit) {
          for (const auto& [key, row] : rows) visit(row);
        }, &direct);
        checks.Expect(SameAnswer(direct, want), "sweep disagrees with the reference model");
      }
    } else {
      size_t i = static_cast<size_t>(~idx);
      const ScanObs& s = scans[i];
      size_t want = sweep.LiveRows(s.table);
      checks.Expect(s.row_count == want, "scan of table " + std::to_string(s.table) + " at " +
                                             std::to_string(s.pinned_ts) + ": " +
                                             std::to_string(s.row_count) + " rows, reference " +
                                             std::to_string(want));
      checks.Expect(s.pinned_ts <= s.primary_bound, "scan pinned past the primary's last commit");
      if (i % kSampleEvery == 0) {
        checks.Expect(model.VisibleRowCount(s.table, s.pinned_ts) == want,
                      "sweep disagrees with the reference model");
      }
    }
  }
  Status st = sweep.AdvanceTo(final_ts);
  checks.Expect(st.ok(), "sweep: " + st.ToString());
  for (TableId t : wl.catalog().TableIds()) {
    checks.Expect(sweep.LiveRows(t) == model.VisibleRowCount(t, final_ts),
                  "sweep row count disagrees with the reference model");
  }
  checks.Expect(sweep.Lines() == model.RowsAt(order_line, final_ts),
                "sweep order_line image disagrees with the reference model");

  const uint64_t committed = r.writer.txns.attempted - r.writer.txns.failed;
  const double ktxn = static_cast<double>(committed) / 1e3;
  if (args.trace) {
    std::vector<EpochSpan> spans =
        BuildTimeline(rig->recorder->epochs(), from, rig->sinklog, &rig->stamps, *r.observer);
    const auto& all = rig->recorder->epochs();
    OfflineLayerCosts offline = MeasureOffline(
        {std::vector<ShippedEpoch>(all.begin() + static_cast<std::ptrdiff_t>(from), all.end())},
        args.workdir + "/offline", &checks);
    const Histogram::Stats& server = snap.histograms["net.query_us"];
    LayerInputs in;
    in.writer = &r.writer;
    in.sink = &rig->sinklog;
    in.spans = &spans;
    in.offline = &offline;
    in.replay = r.replay;
    in.cpu_ns = r.cpu_ns;
    in.ktxn = ktxn;
    in.hot_lead_ms = &hot_lead_ms;
    in.observer_cpu_ns = r.observer->thread_cpu_ns();
    in.reader_cpu_ns = reader_cpu_ns;
    in.scan_server_ns = server.sum * 1000;
    AddLayerRows(in, &report);
    Dist transit_us;
    for (const EpochSpan& s : spans) {
      if (s.deliver >= 0 && s.arrive >= 0) {
        transit_us.Add(static_cast<double>(s.arrive - s.deliver) / 1e3);
      }
    }
    report.AddTail("net.transit_us", transit_us, 1.0, "us", 0.90);
    report.Add("net.scan_server_us_p50", server.p50, "us", static_cast<size_t>(server.count),
               "registry net.query_us (log-bucketed)");
    report.Add("net.scan_wire_us_p50", scan_us.Median() - server.p50, "us", scan_us.n(),
               "round trip minus server time");
    report.Add("storage.column_residual_rows_per_query",
               static_cast<double>(snap.counters["column.residual_rows"]) /
                   static_cast<double>(std::max<uint64_t>(1, query_ops.attempted + scan_ops.attempted)),
               "rows");
    report.Add("workload.query_wait_ms_p50", wait_ms.Median(), "ms", wait_ms.n());
    report.AddTail("workload.query_exec_ms", qexec_ms, 1.0, "ms");
    WriteSpans(args.workdir + "/spans-ch-live-tcp.jsonl", spans, r.start_ns);
  }
  report.Note("config: epoch " + std::to_string(kEpochSize) + " txns, offered " +
              std::to_string(int(kRate)) + " txn/s, probes " + std::to_string(int(kProbeRate)) +
              "/s, heartbeat " + std::to_string(kHeartbeatUs) +
              " us, fsync per segment, 1 reader (Q1/Q6 + scans)");
  report.Note(
      "ops attempted/failed: txns " + std::to_string(r.writer.txns.attempted) + "/" +
      std::to_string(r.writer.txns.failed) + ", probes " + std::to_string(probes.attempted) +
      "/" + std::to_string(probes.failed) + ", queries " + std::to_string(query_ops.attempted) +
      "/" + std::to_string(query_ops.failed) + " (executor mismatches " +
      std::to_string(exec.column_type_mismatches()) + "), scans ok/busy/failed " +
      std::to_string(scan_ops.attempted - scans_busy - scan_ops.failed) + "/" +
      std::to_string(scans_busy) + "/" + std::to_string(scan_ops.failed) +
      "; epochs produced " + std::to_string(shipper.epochs_produced()) + ", shipped " +
      std::to_string(shipper.epochs_shipped()) + ", dropped " +
      std::to_string(shipper.epochs_dropped()) + ", retransmitted " +
      std::to_string(shipper.retransmits()) + ", corrupt-dropped " +
      std::to_string(r.replay.corrupt) + "; NACK RPC failures " +
      std::to_string(rig->source->rpc_failures()));
  return Finish("ch-live-tcp", report, checks,
                r.writer.txns.attempted + probes.attempted + query_ops.attempted +
                    scan_ops.attempted,
                r.writer.txns.failed + probes.failed + query_ops.failed + scan_ops.failed);
}

}  // namespace perfbench
