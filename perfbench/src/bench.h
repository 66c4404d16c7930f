// Shared pieces of the end-to-end HTAP benchmark: clocks and process
// accounting, exact percentiles, the report printer, the recording channels
// that stamp epochs at the shipper/backup seams, the open-loop writer and the
// observer thread that polls visibility. Every layer is measured from
// outside, through its public functions and counters; nothing here reaches
// into the program under test.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "aets/log/shipped_epoch.h"
#include "aets/primary/primary_db.h"
#include "aets/replay/replayer.h"
#include "aets/replication/channel.h"
#include "aets/replication/log_shipper.h"
#include "aets/sim/reference_model.h"
#include "aets/storage/column_store.h"
#include "aets/workload/workload.h"

namespace perfbench {

using aets::EpochId;
using aets::Timestamp;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Checker self-test: corrupt one observed output ("q6", "scan" or "row")
  /// after the measured phase; the checks must then fail the run.
  std::string perturb;
  /// Scratch directory for segment stores and span files.
  std::string workdir = ".bench_build/work";
};

int64_t NowNs();
/// Process CPU time (user + system) in nanoseconds.
int64_t CpuNs();
/// CPU time of the calling thread in nanoseconds.
int64_t ThreadCpuNs();
/// Current resident set size of the process, MiB (/proc/self/statm).
double RssMb();
/// Returns the allocator's free memory to the system, so memory freed by
/// set-up (earlier rigs) does not sit in the peak RSS of the measured phase
/// in amounts that depend on thread timing.
void ReleaseFreeMemory();

/// A set of raw samples with exact order statistics (nearest rank).
class Dist {
 public:
  void Add(double x) {
    v_.push_back(x);
    sorted_ = false;
  }
  size_t n() const { return v_.size(); }
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Max() const;
  /// True when at least ten samples lie beyond the q-quantile, so it is a
  /// tail and not a single outlier.
  bool Supports(double q) const {
    return !v_.empty() && static_cast<double>(v_.size()) * (1.0 - q) >= 10.0 - 1e-9;
  }

 private:
  mutable std::vector<double> v_;
  mutable bool sorted_ = true;
};

/// Every metric of a run, in print order: a human table (name, value, unit,
/// sample count, note), then as the last stdout line one JSON object with
/// every metric that has a finite value.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 0, const std::string& note = "");
  /// Adds `<base>_p50<suffix>` and `<base>_p<tail><suffix>` from `d` scaled
  /// by `scale`. A
  /// tail percentile without ten samples beyond it is printed as n/a.
  void AddTail(const std::string& base, const Dist& d, double scale,
               const std::string& unit, double tail = 0.99,
               const std::string& suffix = "");
  /// Adds one quantile row (n/a without ten samples beyond it).
  void AddQuantile(const std::string& name, const Dist& d, double q, const std::string& unit);
  void Note(const std::string& line) { notes_.push_back(line); }
  double Get(const std::string& name) const;
  void Print(const std::string& title, uint64_t attempted, uint64_t failed) const;

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
    size_t samples;
    std::string note;
  };
  std::vector<Row> rows_;
  std::vector<std::string> notes_;
};

/// Operation counts of one kind, printed as "attempted/failed".
struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Collected check failures. Any failure ends the run with a non-zero exit.
class Checks {
 public:
  void Expect(bool ok, const std::string& what);
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }
  uint64_t count() const { return count_; }

 private:
  std::vector<std::string> failures_;
  uint64_t count_ = 0;
};

/// Per-epoch wall stamps (ns) at the public seams, keyed by epoch id. Only
/// filled on traced runs.
class EpochStamps {
 public:
  void Deliver(EpochId id, int64_t t) { Put(&deliver_, id, t, false); }
  void Arrive(EpochId id, int64_t t) { Put(&arrive_, id, t, true); }
  int64_t deliver(EpochId id) const { return Get(deliver_, id); }
  int64_t arrive(EpochId id) const { return Get(arrive_, id); }

 private:
  void Put(std::vector<int64_t>* v, EpochId id, int64_t t, bool keep_max);
  int64_t Get(const std::vector<int64_t>& v, EpochId id) const;
  mutable std::mutex mu_;
  std::vector<int64_t> deliver_;
  std::vector<int64_t> arrive_;
};

/// Attached to a shipper lane beside the backup's channel: keeps every
/// delivered sub-epoch for the check phase (the reference model is fed the
/// same stream) and, when tracing, stamps delivery. Send runs under the
/// shipper lock, so the kept stream is in lane order.
class RecorderChannel : public aets::EpochChannel {
 public:
  explicit RecorderChannel(EpochStamps* stamps) : EpochChannel(1), stamps_(stamps) {}
  bool Send(aets::ShippedEpoch epoch) override;
  /// Valid once the shipper finished.
  const std::vector<aets::ShippedEpoch>& epochs() const { return epochs_; }
  size_t size() const;

 private:
  EpochStamps* stamps_;
  mutable std::mutex mu_;
  std::vector<aets::ShippedEpoch> epochs_;
};

/// The backup's inbound channel; when tracing, stamps each epoch's arrival
/// before queueing it for the replayer.
class ArrivalChannel : public aets::EpochChannel {
 public:
  ArrivalChannel(size_t capacity, EpochStamps* stamps)
      : EpochChannel(capacity), stamps_(stamps) {}
  bool Send(aets::ShippedEpoch epoch) override;

 private:
  EpochStamps* stamps_;
};

/// What the commit sink records. The commit stamps are written only by the
/// committing thread while `on` is set (the open-loop writer is the only
/// committer; `on` and `trace` change only while no commit runs).
struct SinkLog {
  bool on = false;
  bool trace = false;
  std::vector<Timestamp> commit_ts;
  std::vector<int64_t> commit_ns;  // commit-sink call time
  int64_t on_commit_ns = 0;        // time inside LogShipper::OnCommit
  uint64_t on_commit_calls = 0;
  Dist seal_us;                    // OnCommit calls that delivered an epoch
};

/// The primary's commit sink: stamps each commit and forwards it to the
/// shipper; when tracing, times OnCommit and tells sealing calls apart.
std::function<void(aets::TxnLog)> MakeSink(aets::LogShipper* shipper, SinkLog* log);

/// Time the current thread has spent inside the sink (ns), for the primary's
/// own commit time = RunOltpTransaction time minus this.
int64_t ThreadSinkNs();

/// Open-loop writer: transaction i is due at start + i / rate; lateness is
/// measured from that due time.
struct WriterResult {
  OpCount txns;
  Dist lateness_ms;
  uint64_t late_ops = 0;  // more than 1 ms behind schedule
  Dist commit_us;         // primary time per transaction (traced)
  int64_t commit_ns = 0;
  int64_t thread_cpu_ns = 0;  // the writer thread's own CPU time
};
void RunOpenLoopWriter(aets::Workload* workload, aets::PrimaryDb* db,
                       uint64_t seed, double rate, int64_t start_ns,
                       int64_t end_ns, bool trace, WriterResult* out);

/// One open-loop visibility probe (Algorithm 3 without the query body).
struct Probe {
  int64_t due_ns = 0;
  int64_t issued_ns = 0;
  int64_t visible_ns = -1;
  Timestamp qts = 0;
  size_t query = 0;
};

/// Polls the backup's watermarks and resolves open-loop probes from one
/// thread. Probe i is due at start + i / rate until `probe_end_ns`; its qts is
/// `qts_source()` when issued. Watermark changes are kept as (time, ts)
/// transitions; every recorded time is taken after the read it belongs to.
class Observer {
 public:
  struct Config {
    const aets::Replayer* backup = nullptr;
    const aets::Workload* workload = nullptr;
    std::function<Timestamp()> qts_source;
    double probe_rate = 0;
    int64_t start_ns = 0;
    int64_t probe_end_ns = 0;
    uint64_t seed = 1;
    /// Per-shard watermarks (sharded backups).
    std::vector<const aets::Replayer*> shards;
    /// Column publish progress of one table (traced runs).
    const aets::storage::ColumnStore* columns = nullptr;
    aets::TableId column_table = 0;
  };
  explicit Observer(Config config);
  ~Observer();
  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  void Start();
  /// Stops once every issued probe is visible and the watermark reached
  /// `final_ts`, or at `deadline_ns`. Joins the thread.
  void StopWhenCaughtUp(Timestamp final_ts, int64_t deadline_ns);
  /// Latest watermark seen (any thread).
  Timestamp watermark() const { return wm_now_.load(std::memory_order_acquire); }

  const std::vector<std::pair<int64_t, Timestamp>>& wm() const { return wm_; }
  const std::vector<std::vector<std::pair<int64_t, Timestamp>>>& shard_wm() const {
    return shard_wm_;
  }
  const std::vector<std::pair<int64_t, Timestamp>>& published() const { return pub_; }
  const std::vector<Probe>& probes() const { return probes_; }
  const Dist& probe_lateness_ms() const { return lateness_ms_; }
  /// CPU time of the observer thread itself (valid after the stop).
  int64_t thread_cpu_ns() const { return thread_cpu_ns_; }
  /// Largest resident set size seen while observing (sampled every 1 ms and
  /// at the stop), MiB.
  double peak_rss_mb() const { return peak_rss_mb_; }
  uint64_t late_probes() const { return late_probes_; }

 private:
  void Loop();
  Config cfg_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<Timestamp> final_ts_{0};
  std::atomic<int64_t> deadline_ns_{0};
  std::atomic<Timestamp> wm_now_{0};
  std::vector<std::pair<int64_t, Timestamp>> wm_;
  std::vector<std::vector<std::pair<int64_t, Timestamp>>> shard_wm_;
  std::vector<std::pair<int64_t, Timestamp>> pub_;
  std::vector<Probe> probes_;
  Dist lateness_ms_;
  uint64_t late_probes_ = 0;
  int64_t thread_cpu_ns_ = 0;
  double peak_rss_mb_ = 0;
};

/// First time (ns) at which a transition sequence reached `ts`, or -1.
int64_t FirstReach(const std::vector<std::pair<int64_t, Timestamp>>& transitions,
                   Timestamp ts);

/// For every stamped commit, the time from its commit-sink call until the
/// watermark covered its commit timestamp, in ms; commits never covered are
/// counted in `missing`.
Dist Freshness(const std::vector<Timestamp>& commit_ts, const std::vector<int64_t>& commit_ns,
               const std::vector<std::pair<int64_t, Timestamp>>& wm, uint64_t* missing);

/// Visibility delay (due -> visible, ms) of every resolved probe, and the hot
/// lead (tables visible -> global watermark) of each; counts the probes never
/// seen visible as failed.
Dist ProbeFigures(const Observer& obs, OpCount* probes, Dist* hot_lead_ms);

/// Row-for-row comparison of one table at `ts`: `rows` (scanned from the
/// backup) against the reference model. Returns "" or the first difference.
std::string CompareTable(const aets::sim::ReferenceModel& model, aets::TableId table,
                         Timestamp ts, const std::map<int64_t, aets::Row>& rows);

/// Scans `table` of `store` at `ts` into a map.
std::map<int64_t, aets::Row> ScanTable(const aets::TableStore& store,
                                       aets::TableId table, Timestamp ts);

/// Table-by-table final-state check of a backup (through StoreForTable)
/// against per-shard reference models; `model_of(table)` picks the model
/// that was fed the owning lane's stream. With `perturb_row`, one scanned row
/// is altered first (checker self-test).
void CheckFinalState(aets::Replayer* backup, const aets::Catalog& catalog,
                     const std::function<const aets::sim::ReferenceModel*(aets::TableId)>& model_of,
                     Timestamp ts, bool perturb_row, Checks* checks);

/// Traced-run layer costs measured offline over the run's own epochs:
/// EncodeEpoch, DecodeMetadata (dispatch), DecodeView + PackedDelta::FromWire
/// (translate), and SegmentStore::Append into a fresh directory.
struct OfflineLayerCosts {
  double encode_ns_per_record = 0;
  double dispatch_ns_per_record = 0;
  double translate_ns_per_record = 0;
  Dist append_us;
  /// Bytes the segment stores wrote, all lanes.
  uint64_t segment_bytes = 0;
};
OfflineLayerCosts MeasureOffline(const std::vector<std::vector<aets::ShippedEpoch>>& lanes,
                                 const std::string& dir, Checks* checks);

/// ReplayStats counters at one instant, for deltas over the measured phase.
struct ReplaySnapshot {
  uint64_t txns = 0;
  int64_t dispatch_ns = 0;
  int64_t translate_ns = 0;
  int64_t commit_ns = 0;
  int64_t stage1_ns = 0;
  int64_t stage2_ns = 0;
  int64_t sync_wait_ns = 0;
  uint64_t pipeline_stalls = 0;
  uint64_t retried = 0;
  uint64_t corrupt = 0;
  static ReplaySnapshot Of(const aets::ReplayStats& s);
  ReplaySnapshot Minus(const ReplaySnapshot& o) const;
};

/// Adds the replay.* per-layer rows from a stats delta over `ktxn` thousand
/// transactions and `cpu_ns` of process CPU.
void AddReplayLayer(const ReplaySnapshot& d, double ktxn, int64_t cpu_ns,
                    Report* report);

/// One epoch's life at the public seams, in wall ns (-1 = not observed).
struct EpochSpan {
  EpochId id = 0;
  Timestamp end_ts = 0;    // max commit (or heartbeat) timestamp it carries
  size_t txns = 0;         // commits stamped by the sink inside this epoch
  int64_t fill_start = -1; // commit-sink call of its first transaction
  int64_t deliver = -1;    // shipper lane delivery (recorder channel)
  int64_t arrive = -1;     // backup sink channel Send
  int64_t visible = -1;    // GlobalVisibleTs() reached end_ts
  int64_t published = -1;  // PublishedTs() of the observed table reached end_ts
};

/// Lines up a lane's epoch stream (from index `from`) with the sink's commit
/// stamps and the observer's transitions.
std::vector<EpochSpan> BuildTimeline(const std::vector<aets::ShippedEpoch>& lane,
                                     size_t from, const SinkLog& sink,
                                     const EpochStamps* stamps, const Observer& obs);

/// Writes one JSON object per epoch to `path`, times in microseconds since
/// `origin_ns`.
void WriteSpans(const std::string& path, const std::vector<EpochSpan>& spans,
                int64_t origin_ns);

/// Analytic-table access rates implied by the query templates' weights (the
/// replayer's initial_rates).
std::vector<double> QueryRates(const aets::Workload& workload);

/// Size of the epoch stream in bytes (data sub-epochs and heartbeats).
uint64_t StreamBytes(const std::vector<aets::ShippedEpoch>& epochs, size_t from);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
