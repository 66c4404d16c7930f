#include "live.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "aets/obs/metrics.h"

namespace perfbench {

using namespace aets;

double MedianSetupSeconds(int n, const std::function<void()>& teardown,
                          const std::function<void()>& setup) {
  Dist d;
  for (int i = 0; i < n; ++i) {
    teardown();
    int64_t t0 = NowNs();
    setup();
    d.Add(static_cast<double>(NowNs() - t0) / 1e9);
  }
  return d.Median();
}

LiveResult RunLive(const LivePlan& plan, const Args& args) {
  LiveResult r;
  ReleaseFreeMemory();
  obs::MetricsRegistry::Instance().ResetAll();
  const size_t expected = static_cast<size_t>(plan.rate * args.seconds * 1.1) + 16;
  plan.sink->commit_ts.reserve(expected);
  plan.sink->commit_ns.reserve(expected);
  plan.sink->trace = args.trace;
  plan.sink->on = true;
  ReplaySnapshot before = ReplaySnapshot::Of(plan.backup->stats());

  r.start_ns = NowNs() + 20'000'000;  // leave the threads time to start
  r.end_ns = r.start_ns + int64_t{args.seconds} * 1'000'000'000;
  Observer::Config oc;
  oc.backup = plan.backup;
  oc.workload = plan.workload;
  PrimaryDb* db = plan.db;
  oc.qts_source = [db] { return db->last_commit_ts(); };
  oc.probe_rate = plan.probe_rate;
  oc.start_ns = r.start_ns;
  oc.probe_end_ns = r.end_ns;
  oc.seed = args.seed * 31 + 7;
  oc.shards = plan.shards;
  oc.columns = plan.columns;
  oc.column_table = plan.column_table;
  r.observer = std::make_unique<Observer>(oc);

  int64_t cpu0 = CpuNs();
  r.observer->Start();
  std::thread writer([&] {
    RunOpenLoopWriter(plan.workload, plan.db, args.seed * 1'000'003 + 11, plan.rate,
                      r.start_ns, r.end_ns, args.trace, &r.writer);
  });
  std::thread reader;
  if (plan.reader) reader = std::thread([&] { plan.reader(r.end_ns); });
  for (int k = 0; k <= args.seconds; ++k) {
    int64_t edge = r.start_ns + int64_t{k} * 1'000'000'000;
    int64_t wait = edge - NowNs();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    r.edges.push_back(edge);
    r.cpu_at_edges.push_back(CpuNs());
  }
  writer.join();
  if (reader.joinable()) reader.join();
  plan.sink->on = false;

  // Seal the open epoch so its transactions can become visible, then wait
  // until the backup covers the last commit and every probe resolved.
  r.final_ts = plan.db->last_commit_ts();
  plan.shipper->FlushEpoch();
  r.observer->StopWhenCaughtUp(r.final_ts, NowNs() + 60'000'000'000);
  r.cpu_ns = CpuNs() - cpu0;
  r.peak_rss_mb = r.observer->peak_rss_mb();
  r.caught_up = r.observer->watermark() >= r.final_ts;
  r.replay = ReplaySnapshot::Of(plan.backup->stats()).Minus(before);
  return r;
}

void AddLiveEndToEnd(const LivePlan& plan, const LiveResult& r, double setup_s,
                     uint64_t shipped_bytes, Report* report, OpCount* probes,
                     Dist* hot_lead_ms, Checks* checks) {
  const SinkLog& sink = *plan.sink;
  const uint64_t committed = r.writer.txns.attempted - r.writer.txns.failed;
  checks->Expect(r.caught_up, "backup never covered the last commit");
  checks->Expect(r.writer.txns.failed == 0,
                 std::to_string(r.writer.txns.failed) + " transactions failed");
  checks->Expect(sink.commit_ts.size() == committed,
                 "sink saw " + std::to_string(sink.commit_ts.size()) + " commits of " +
                     std::to_string(committed));
  report->Add("setup_s", setup_s, "s", kLiveSetupRepeats, "median of repeated set-ups");
  double span_s = 1e-9 * static_cast<double>(
                             (sink.commit_ns.empty() ? r.end_ns : sink.commit_ns.back()) -
                             r.start_ns) +
                  1.0 / plan.rate;
  report->Add("txn_per_s", static_cast<double>(committed) / span_s, "1/s", committed,
              "commit_txn_per_s: achieved primary commit rate");
  // CPU per committed transaction per one-second window, then the median
  // over windows.
  Dist cpu_ms_per_ktxn;
  for (size_t k = 0; k + 1 < r.edges.size(); ++k) {
    auto lo = std::lower_bound(sink.commit_ns.begin(), sink.commit_ns.end(), r.edges[k]);
    auto hi = std::lower_bound(sink.commit_ns.begin(), sink.commit_ns.end(), r.edges[k + 1]);
    if (hi > lo) {
      cpu_ms_per_ktxn.Add(static_cast<double>(r.cpu_at_edges[k + 1] - r.cpu_at_edges[k]) / 1e6 /
                          (static_cast<double>(hi - lo) / 1e3));
    }
  }
  report->Add("cpu_ms_per_ktxn", cpu_ms_per_ktxn.Median(), "ms", cpu_ms_per_ktxn.n(),
              "median over one-second windows");
  report->Add("cpu_ms_per_ktxn_whole_run",
              static_cast<double>(r.cpu_ns) / 1e6 / (static_cast<double>(committed) / 1e3), "ms",
              0, "start of the offered window until the backup covered the last commit");
  report->Add("peak_rss_mb", r.peak_rss_mb, "MB", 0,
              "largest RSS sampled every 1 ms in the measured phase");
  uint64_t missing = 0;
  // Freshness and visibility percentiles are taken over every sample of the
  // run, so a stall in any second reaches the tail.
  Dist fresh = Freshness(sink.commit_ts, sink.commit_ns, r.observer->wm(), &missing);
  checks->Expect(missing == 0, std::to_string(missing) + " commits never became visible");
  report->AddTail("fresh", fresh, 1.0, "ms", 0.99, "_ms");
  Dist visible = ProbeFigures(*r.observer, probes, hot_lead_ms);
  report->AddTail("visible", visible, 1.0, "ms", 0.99, "_ms");
  checks->Expect(probes->failed == 0,
                 std::to_string(probes->failed) + " probes never became visible");
  report->Add("shipped_bytes_per_txn",
              static_cast<double>(shipped_bytes) / static_cast<double>(committed), "B");
  const WriterResult& w = r.writer;
  report->Add("writer.lateness_ms_p99", w.lateness_ms.Quantile(0.99), "ms", w.lateness_ms.n(),
              "open-loop writer behind schedule");
  report->Add("writer.lateness_ms_max", w.lateness_ms.Max(), "ms", w.lateness_ms.n());
  report->Add("writer.late_ops", static_cast<double>(w.late_ops), "count", 0,
              "transactions more than 1 ms late");
  const Dist& pl = r.observer->probe_lateness_ms();
  report->Add("probe.lateness_ms_p99", pl.Quantile(0.99), "ms", pl.n());
  report->Add("probe.lateness_ms_max", pl.Max(), "ms", pl.n());
  report->Add("probe.late_ops", static_cast<double>(r.observer->late_probes()), "count");
}

void AddLayerRows(const LayerInputs& in, Report* report) {
  const double ktxn = in.ktxn;
  const WriterResult& w = *in.writer;
  const SinkLog& sink = *in.sink;
  report->AddTail("primary.commit_us", w.commit_us, 1.0, "us");
  report->Add("replication.on_commit_us_per_txn",
              sink.on_commit_calls ? static_cast<double>(sink.on_commit_ns) / 1e3 /
                                         static_cast<double>(sink.on_commit_calls)
                                   : 0,
              "us", sink.on_commit_calls);
  report->AddTail("replication.seal_us", sink.seal_us, 1.0, "us", 0.90);
  Dist fill_ms, apply_ms, lag_ms;
  for (const EpochSpan& s : *in.spans) {
    if (s.txns == 0) continue;
    if (s.fill_start >= 0 && s.deliver >= 0) {
      fill_ms.Add(static_cast<double>(s.deliver - s.fill_start) / 1e6);
    }
    if (s.arrive >= 0 && s.visible >= 0) {
      apply_ms.Add(static_cast<double>(std::max<int64_t>(0, s.visible - s.arrive)) / 1e6);
    }
    if (s.visible >= 0 && s.published >= 0) {
      lag_ms.Add(static_cast<double>(std::max<int64_t>(0, s.published - s.visible)) / 1e6);
    }
  }
  report->AddTail("replication.epoch_fill_ms", fill_ms, 1.0, "ms", 0.90);
  // A commit waits on average half an epoch's fill, then the seal, the
  // transit and the apply; what these leave of fresh_p50 is unexplained.
  Dist transit_ms;
  for (const EpochSpan& s : *in.spans) {
    if (s.txns > 0 && s.deliver >= 0 && s.arrive >= 0) {
      transit_ms.Add(static_cast<double>(s.arrive - s.deliver) / 1e6);
    }
  }
  double explained = fill_ms.Median() / 2 + sink.seal_us.Median() / 1e3 +
                     transit_ms.Median() + apply_ms.Median();
  report->Add("fresh.unexplained_p50_ms", report->Get("fresh_p50_ms") - explained, "ms", 0,
              "fresh_p50 - (fill/2 + seal + transit + apply), p50s");
  const OfflineLayerCosts& off = *in.offline;
  report->Add("log.encode_ns_per_record", off.encode_ns_per_record, "ns");
  report->Add("log.dispatch_ns_per_record", off.dispatch_ns_per_record, "ns");
  report->Add("log.translate_ns_per_record", off.translate_ns_per_record, "ns");
  report->AddTail("storage.segment_append_us", off.append_us, 1.0, "us", 0.90);
  // Per committed transaction: on a sharded stream a transaction that spans
  // both lanes is counted in each lane's epochs.
  report->Add("storage.segment_bytes_per_txn",
              static_cast<double>(off.segment_bytes) / (ktxn * 1e3), "B");
  obs::MetricsSnapshot snap = obs::MetricsRegistry::Instance().Snapshot();
  report->Add("storage.column_chunks_rebuilt_per_ktxn",
              static_cast<double>(snap.counters["column.chunks_rebuilt"]) / ktxn, "1/ktxn");
  if (lag_ms.n() > 0) report->AddTail("storage.column_publish_lag_ms", lag_ms, 1.0, "ms", 0.90);
  report->AddTail("replay.apply_ms", apply_ms, 1.0, "ms", 0.90);
  AddReplayLayer(in.replay, ktxn, in.cpu_ns, report);
  report->Add("replay.recv_wait_ms_per_ktxn",
              static_cast<double>(snap.histograms["channel.recv_wait_us"].sum) / 1e3 / ktxn,
              "ms");
  report->Add("replay.hot_lead_ms_p50", in.hot_lead_ms->Median(), "ms", in.hot_lead_ms->n(),
              "probe tables visible ahead of the global watermark");
  // Attribution: replay's timed stages, plus the thread CPU of the threads
  // that drive the other layers (the writer runs the primary and the
  // synchronous OnCommit work, the reader the query client).
  auto per_ktxn = [&](int64_t ns) { return static_cast<double>(ns) / 1e6 / ktxn; };
  int64_t attributed = in.replay.dispatch_ns + in.replay.translate_ns + in.replay.commit_ns +
                       w.thread_cpu_ns + in.observer_cpu_ns + in.reader_cpu_ns +
                       in.scan_server_ns;
  report->Add("workload.writer_cpu_ms_per_ktxn", per_ktxn(w.thread_cpu_ns), "ms", 0,
              "writer thread CPU: primary commits and synchronous OnCommit work");
  if (in.reader_cpu_ns > 0) {
    report->Add("workload.reader_cpu_ms_per_ktxn", per_ktxn(in.reader_cpu_ns), "ms", 0,
                "reader thread CPU: Q1/Q6 wait and execution, scan client");
  }
  report->Add("bench.observer_cpu_ms_per_ktxn", per_ktxn(in.observer_cpu_ns), "ms", 0,
              "the benchmark's own visibility poller");
  report->Add("unattributed_cpu_ms_per_ktxn", per_ktxn(in.cpu_ns - attributed), "ms", 0,
              "process CPU minus every attributed layer");
}

int Finish(const std::string& title, const Report& report,
           const Checks& checks, uint64_t attempted, uint64_t failed) {
  if (!checks.ok()) {
    std::printf("== %s: CHECKS FAILED (%zu) ==\n", title.c_str(), checks.failures().size());
    for (const std::string& f : checks.failures()) std::printf("  FAIL %s\n", f.c_str());
    std::fflush(stdout);
    return 1;
  }
  std::printf("checks passed: %llu\n", static_cast<unsigned long long>(checks.count()));
  report.Print(title, attempted, failed);
  return 0;
}

}  // namespace perfbench
