// The measured phase shared by the live workloads: an open-loop writer into
// the primary, an observer polling visibility and resolving probes, and an
// optional closed-loop reader, all for a fixed wall-clock window; then the
// wait until the backup covers the last commit.
#ifndef PERFBENCH_LIVE_H_
#define PERFBENCH_LIVE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

struct LivePlan {
  aets::Workload* workload = nullptr;
  aets::PrimaryDb* db = nullptr;
  aets::LogShipper* shipper = nullptr;
  aets::Replayer* backup = nullptr;
  SinkLog* sink = nullptr;
  std::vector<const aets::Replayer*> shards;
  const aets::storage::ColumnStore* columns = nullptr;  // traced runs
  aets::TableId column_table = 0;
  double rate = 0;        // offered transactions per second
  double probe_rate = 0;  // probes per second
  /// Closed-loop reader run on its own thread until the given end time.
  std::function<void(int64_t end_ns)> reader;
};

struct LiveResult {
  int64_t start_ns = 0;
  int64_t end_ns = 0;       // end of the offered window
  int64_t cpu_ns = 0;       // process CPU over [start, caught_up]
  /// One-second window edges of the offered window and the process CPU time
  /// read at each.
  std::vector<int64_t> edges;
  std::vector<int64_t> cpu_at_edges;
  double peak_rss_mb = 0;
  Timestamp final_ts = 0;
  WriterResult writer;
  std::unique_ptr<Observer> observer;
  ReplaySnapshot replay;  // delta over the measured phase
  bool caught_up = false;
};

/// Runs the measured phase. The registry is reset first, so registry-derived
/// figures cover only this phase.
LiveResult RunLive(const LivePlan& plan, const Args& args);

/// End-to-end rows common to the live workloads.
void AddLiveEndToEnd(const LivePlan& plan, const LiveResult& r, double setup_s,
                     uint64_t shipped_bytes, Report* report, OpCount* probes,
                     Dist* hot_lead_ms, Checks* checks);

/// Inputs of the per-layer rows shared by every workload.
struct LayerInputs {
  const WriterResult* writer = nullptr;  // primary commit times
  const SinkLog* sink = nullptr;         // OnCommit times and seals
  const std::vector<EpochSpan>* spans = nullptr;
  const OfflineLayerCosts* offline = nullptr;
  ReplaySnapshot replay;
  int64_t cpu_ns = 0;
  double ktxn = 0;
  const Dist* hot_lead_ms = nullptr;
  /// Thread CPU of the benchmark's own threads inside the CPU window: the
  /// observer (measurement), and the closed-loop reader (query client,
  /// including the Algorithm 3 wait), ns.
  int64_t observer_cpu_ns = 0;
  int64_t reader_cpu_ns = 0;
  /// QueryServer time serving scans (registry net.query_us), ns.
  int64_t scan_server_ns = 0;
};
void AddLayerRows(const LayerInputs& in, Report* report);

/// Set-ups per live run; setup_s is their median.
constexpr int kLiveSetupRepeats = 25;

/// Median of `n` timed calls of `setup` (seconds); `setup` keeps the last
/// rig it builds. `teardown` runs untimed before each call and destroys the
/// previous rig, so its shutdown stays out of the set-up time.
double MedianSetupSeconds(int n, const std::function<void()>& teardown,
                          const std::function<void()>& setup);

/// Prints the report and returns the process exit code: non-zero when any
/// check failed.
int Finish(const std::string& title, const Report& report,
           const Checks& checks, uint64_t attempted, uint64_t failed);

int RunBusLiveSharded(const Args& args);
int RunChLiveTcp(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_LIVE_H_
