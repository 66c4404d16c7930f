#include "bench.h"

#include <malloc.h>
#include <time.h>
#include <unistd.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "aets/common/rng.h"
#include "aets/log/codec.h"
#include "aets/storage/packed_delta.h"
#include "aets/storage/segment_store.h"

namespace perfbench {

using namespace aets;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t CpuNs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return int64_t{tv.tv_sec} * 1'000'000'000 + int64_t{tv.tv_usec} * 1000;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

double RssMb() {
  static const long page = sysconf(_SC_PAGESIZE);
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return std::nan("");
  long size = 0, resident = 0;
  int n = std::fscanf(f, "%ld %ld", &size, &resident);
  std::fclose(f);
  return n == 2 ? static_cast<double>(resident) * static_cast<double>(page) / (1024.0 * 1024.0)
                : std::nan("");
}

void ReleaseFreeMemory() { malloc_trim(0); }

// ---- Dist -------------------------------------------------------------------

double Dist::Quantile(double q) const {
  if (v_.empty()) return std::nan("");
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  // Nearest rank: the smallest sample with at least q of the set at or below.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v_.size())));
  if (rank == 0) rank = 1;
  return v_[std::min(rank, v_.size()) - 1];
}

double Dist::Max() const {
  if (v_.empty()) return std::nan("");
  return *std::max_element(v_.begin(), v_.end());
}

// ---- Report -----------------------------------------------------------------

void Report::Add(const std::string& name, double value, const std::string& unit,
                 size_t samples, const std::string& note) {
  rows_.push_back(Row{name, value, unit, samples, note});
}

void Report::AddTail(const std::string& base, const Dist& d, double scale,
                     const std::string& unit, double tail, const std::string& suffix) {
  Add(base + "_p50" + suffix, d.n() ? d.Median() * scale : std::nan(""), unit, d.n());
  char tail_name[16];
  std::snprintf(tail_name, sizeof(tail_name), "_p%g", tail * 100);
  bool ok = d.Supports(tail);
  Add(base + tail_name + suffix, ok ? d.Quantile(tail) * scale : std::nan(""), unit, d.n(),
      ok ? "" : "n/a: fewer than 10 samples beyond it");
}

void Report::AddQuantile(const std::string& name, const Dist& d, double q,
                         const std::string& unit) {
  bool ok = d.Supports(q);
  Add(name, ok ? d.Quantile(q) : std::nan(""), unit, d.n(),
      ok ? "" : "n/a: fewer than 10 samples beyond it");
}

double Report::Get(const std::string& name) const {
  for (const Row& r : rows_) {
    if (r.name == name) return r.value;
  }
  return std::nan("");
}

void Report::Print(const std::string& title, uint64_t attempted, uint64_t failed) const {
  std::printf("== %s ==\n", title.c_str());
  std::printf("%-44s %16s  %-8s %10s  %s\n", "metric", "value", "unit", "samples", "note");
  std::string json = "{\"correct\": true, \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const Row& r : rows_) {
    std::string samples = r.samples ? std::to_string(r.samples) : "";
    std::printf("%-44s %16.6g  %-8s %10s  %s\n", r.name.c_str(), r.value, r.unit.c_str(),
                samples.c_str(), r.note.c_str());
    if (!std::isfinite(r.value)) continue;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", r.value);
    json += std::string(first ? "" : ", ") + "\"" + r.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + r.unit + "\"}";
    first = false;
  }
  for (const std::string& n : notes_) std::printf("%s\n", n.c_str());
  std::printf("%s}}\n", json.c_str());
  std::fflush(stdout);
}

void Checks::Expect(bool ok, const std::string& what) {
  ++count_;
  if (!ok && failures_.size() < 20) failures_.push_back(what);
  if (!ok && failures_.size() == 20) failures_.push_back("(further failures omitted)");
}

// ---- Stamps and channels ----------------------------------------------------

void EpochStamps::Put(std::vector<int64_t>* v, EpochId id, int64_t t, bool keep_max) {
  std::lock_guard<std::mutex> lk(mu_);
  if (v->size() <= id) v->resize(id + 1, -1);
  int64_t& slot = (*v)[id];
  if (slot < 0 || (keep_max ? t > slot : t < slot)) slot = t;
}

int64_t EpochStamps::Get(const std::vector<int64_t>& v, EpochId id) const {
  std::lock_guard<std::mutex> lk(mu_);
  return id < v.size() ? v[id] : -1;
}

namespace {
thread_local bool t_delivered = false;
thread_local int64_t t_sink_ns = 0;
}  // namespace

bool RecorderChannel::Send(ShippedEpoch epoch) {
  if (stamps_ != nullptr) {
    stamps_->Deliver(epoch.epoch_id, NowNs());
    t_delivered = true;
  }
  std::lock_guard<std::mutex> lk(mu_);
  epochs_.push_back(std::move(epoch));
  return true;
}

size_t RecorderChannel::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return epochs_.size();
}

bool ArrivalChannel::Send(ShippedEpoch epoch) {
  if (stamps_ != nullptr) stamps_->Arrive(epoch.epoch_id, NowNs());
  return Enqueue(std::move(epoch));
}

std::function<void(TxnLog)> MakeSink(LogShipper* shipper, SinkLog* log) {
  return [shipper, log](TxnLog txn) {
    int64_t t0 = NowNs();
    if (log->on) {
      log->commit_ts.push_back(txn.commit_ts);
      log->commit_ns.push_back(t0);
    }
    if (!log->trace) {
      shipper->OnCommit(std::move(txn));
      return;
    }
    t_delivered = false;
    shipper->OnCommit(std::move(txn));
    int64_t d = NowNs() - t0;
    t_sink_ns += d;
    if (log->on) {
      log->on_commit_ns += d;
      ++log->on_commit_calls;
      if (t_delivered) log->seal_us.Add(static_cast<double>(d) / 1e3);
    }
  };
}

int64_t ThreadSinkNs() { return t_sink_ns; }

// ---- Open-loop writer -------------------------------------------------------

void RunOpenLoopWriter(Workload* workload, PrimaryDb* db, uint64_t seed, double rate,
                       int64_t start_ns, int64_t end_ns, bool trace, WriterResult* out) {
  const int64_t cpu0 = ThreadCpuNs();
  Rng rng(seed);
  const double period_ns = 1e9 / rate;
  for (uint64_t i = 0;; ++i) {
    int64_t due = start_ns + static_cast<int64_t>(static_cast<double>(i) * period_ns);
    if (due >= end_ns) break;
    int64_t now = NowNs();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      now = NowNs();
    }
    double late_ms = static_cast<double>(now - due) / 1e6;
    out->lateness_ms.Add(late_ms);
    if (late_ms > 1.0) ++out->late_ops;
    ++out->txns.attempted;
    int64_t sink_before = t_sink_ns;
    Status st = workload->RunOltpTransaction(db, &rng);
    if (!st.ok()) ++out->txns.failed;
    if (trace) {
      int64_t own = NowNs() - now - (t_sink_ns - sink_before);
      out->commit_ns += own;
      out->commit_us.Add(static_cast<double>(own) / 1e3);
    }
  }
  out->thread_cpu_ns = ThreadCpuNs() - cpu0;
}

// ---- Observer ---------------------------------------------------------------

Observer::Observer(Config config) : cfg_(std::move(config)) {
  shard_wm_.resize(cfg_.shards.size());
}

Observer::~Observer() {
  deadline_ns_.store(0);  // an early exit must not wait for pending probes
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void Observer::Start() {
  deadline_ns_.store(INT64_MAX);
  thread_ = std::thread([this] { Loop(); });
}

void Observer::StopWhenCaughtUp(Timestamp final_ts, int64_t deadline_ns) {
  final_ts_.store(final_ts);
  deadline_ns_.store(deadline_ns);
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

void Observer::Loop() {
  constexpr int64_t kPollNs = 200'000;
  const int64_t cpu0 = ThreadCpuNs();
  int64_t next_rss_ns = 0;
  Rng rng(cfg_.seed);
  const auto& queries = cfg_.workload->analytic_queries();
  const double period_ns = cfg_.probe_rate > 0 ? 1e9 / cfg_.probe_rate : 0;
  uint64_t next_probe = 0;
  size_t first_pending = 0;  // probes before this index are all visible
  Timestamp last_wm = 0, last_pub = 0;
  std::vector<Timestamp> last_shard(cfg_.shards.size(), 0);
  std::vector<std::pair<Timestamp, bool>> memo(queries.size());
  while (true) {
    Timestamp wm = cfg_.backup->GlobalVisibleTs();
    int64_t now = NowNs();
    if (now >= next_rss_ns) {
      peak_rss_mb_ = std::max(peak_rss_mb_, RssMb());
      next_rss_ns = now + 1'000'000;
    }
    if (wm != last_wm) {
      wm_.emplace_back(now, wm);
      last_wm = wm;
      wm_now_.store(wm, std::memory_order_release);
    }
    for (size_t s = 0; s < cfg_.shards.size(); ++s) {
      Timestamp sw = cfg_.shards[s]->GlobalVisibleTs();
      if (sw != last_shard[s]) {
        shard_wm_[s].emplace_back(NowNs(), sw);
        last_shard[s] = sw;
      }
    }
    if (cfg_.columns != nullptr) {
      Timestamp p = cfg_.columns->PublishedTs(cfg_.column_table);
      if (p != last_pub) {
        pub_.emplace_back(NowNs(), p);
        last_pub = p;
      }
    }
    // Issue every probe that has come due.
    bool issuing = period_ns > 0 && !stop_.load(std::memory_order_acquire);
    while (issuing) {
      int64_t due = cfg_.start_ns + static_cast<int64_t>(static_cast<double>(next_probe) * period_ns);
      if (due > now || due >= cfg_.probe_end_ns) break;
      Probe p;
      p.due_ns = due;
      p.issued_ns = NowNs();
      p.qts = cfg_.qts_source();
      p.query = cfg_.workload->SampleQuery(&rng, 0.0);
      double late_ms = static_cast<double>(p.issued_ns - due) / 1e6;
      lateness_ms_.Add(late_ms);
      if (late_ms > 1.0) ++late_probes_;
      probes_.push_back(p);
      ++next_probe;
    }
    // Resolve pending probes (visibility is monotone per table). Probes of
    // one template at one qts share the answer within a poll.
    std::fill(memo.begin(), memo.end(), std::make_pair(Timestamp{0}, false));
    for (size_t i = first_pending; i < probes_.size(); ++i) {
      Probe& p = probes_[i];
      if (p.visible_ns >= 0) continue;
      auto& [memo_qts, memo_pending] = memo[p.query];
      if (memo_pending && memo_qts == p.qts) continue;
      if (IsVisible(*cfg_.backup, queries[p.query].tables, p.qts)) {
        p.visible_ns = NowNs();
      } else {
        memo_qts = p.qts;
        memo_pending = true;
      }
    }
    while (first_pending < probes_.size() && probes_[first_pending].visible_ns >= 0) {
      ++first_pending;
    }
    if (stop_.load(std::memory_order_acquire)) {
      bool caught_up = first_pending == probes_.size() &&
                       wm >= final_ts_.load() &&
                       (cfg_.columns == nullptr || last_pub >= final_ts_.load());
      if (caught_up || NowNs() >= deadline_ns_.load()) {
        peak_rss_mb_ = std::max(peak_rss_mb_, RssMb());
        thread_cpu_ns_ = ThreadCpuNs() - cpu0;
        break;
      }
    }
    int64_t wake = NowNs() + kPollNs;
    if (issuing) {
      int64_t due = cfg_.start_ns + static_cast<int64_t>(static_cast<double>(next_probe) * period_ns);
      if (due < cfg_.probe_end_ns) wake = std::min(wake, due);
    }
    int64_t sleep = wake - NowNs();
    if (sleep > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(sleep));
  }
}

int64_t FirstReach(const std::vector<std::pair<int64_t, Timestamp>>& transitions,
                   Timestamp ts) {
  // Watermarks are monotone, so the transitions are sorted on both fields.
  auto it = std::lower_bound(
      transitions.begin(), transitions.end(), ts,
      [](const std::pair<int64_t, Timestamp>& a, Timestamp b) { return a.second < b; });
  return it == transitions.end() ? -1 : it->first;
}

Dist Freshness(const std::vector<Timestamp>& commit_ts, const std::vector<int64_t>& commit_ns,
               const std::vector<std::pair<int64_t, Timestamp>>& wm, uint64_t* missing) {
  Dist out;
  size_t j = 0;
  for (size_t i = 0; i < commit_ts.size(); ++i) {
    while (j < wm.size() && wm[j].second < commit_ts[i]) ++j;
    if (j == wm.size()) {
      ++*missing;
      continue;
    }
    out.Add(static_cast<double>(std::max<int64_t>(0, wm[j].first - commit_ns[i])) / 1e6);
  }
  return out;
}

Dist ProbeFigures(const Observer& obs, OpCount* probes, Dist* hot_lead_ms) {
  Dist out;
  for (const Probe& p : obs.probes()) {
    ++probes->attempted;
    if (p.visible_ns < 0) {
      ++probes->failed;
      continue;
    }
    out.Add(static_cast<double>(p.visible_ns - p.due_ns) / 1e6);
    int64_t global = FirstReach(obs.wm(), p.qts);
    if (global >= 0) {
      hot_lead_ms->Add(static_cast<double>(std::max<int64_t>(0, global - p.visible_ns)) / 1e6);
    }
  }
  return out;
}

// ---- Final-state check --------------------------------------------------------

std::map<int64_t, Row> ScanTable(const TableStore& store, TableId table, Timestamp ts) {
  std::map<int64_t, Row> rows;
  store.GetTable(table)->ScanVisible(ts, [&](int64_t key, const Row& row) {
    rows.emplace(key, row);
    return true;
  });
  return rows;
}

std::string CompareTable(const sim::ReferenceModel& model, TableId table, Timestamp ts,
                         const std::map<int64_t, Row>& rows) {
  std::map<int64_t, Row> want = model.RowsAt(table, ts);
  if (want.size() != rows.size()) {
    return "table " + std::to_string(table) + ": " + std::to_string(rows.size()) +
           " rows, reference has " + std::to_string(want.size());
  }
  auto a = rows.begin();
  for (auto b = want.begin(); b != want.end(); ++a, ++b) {
    if (a->first != b->first) {
      return "table " + std::to_string(table) + ": key " + std::to_string(a->first) +
             " where the reference has " + std::to_string(b->first);
    }
    if (a->second != b->second) {
      return "table " + std::to_string(table) + ": row " + std::to_string(a->first) +
             " differs from the reference";
    }
  }
  return "";
}

void CheckFinalState(Replayer* backup, const Catalog& catalog,
                     const std::function<const sim::ReferenceModel*(TableId)>& model_of,
                     Timestamp ts, bool perturb_row, Checks* checks) {
  bool perturbed = false;
  for (TableId t : catalog.TableIds()) {
    std::map<int64_t, Row> rows = ScanTable(*backup->StoreForTable(t), t, ts);
    if (perturb_row && !perturbed && !rows.empty()) {
      Row& row = rows.begin()->second;
      const Value* v = row.begin() == row.end() ? nullptr : &row.begin()->second;
      ColumnId col = row.begin()->first;
      row.Set(col, v != nullptr && v->is_int64() ? Value(v->as_int64() + 1) : Value(int64_t{-1}));
      perturbed = true;
    }
    std::string diff = CompareTable(*model_of(t), t, ts, rows);
    checks->Expect(diff.empty(), "final state: " + diff);
  }
}

// ---- Offline layer costs ------------------------------------------------------

OfflineLayerCosts MeasureOffline(const std::vector<std::vector<ShippedEpoch>>& lanes,
                                 const std::string& dir, Checks* checks) {
  OfflineLayerCosts out;
  int64_t encode_ns = 0, dispatch_ns = 0, translate_ns = 0;
  uint64_t records = 0, dml = 0;
  for (size_t lane = 0; lane < lanes.size(); ++lane) {
    std::string lane_dir = dir + "/lane" + std::to_string(lane);
    std::filesystem::remove_all(lane_dir);
    std::filesystem::create_directories(lane_dir);
    SegmentStoreOptions options;
    options.dir = lane_dir;
    options.fsync_policy = FsyncPolicy::kSegment;
    auto store = SegmentStore::Open(options);
    checks->Expect(store.ok(), "offline segment store: " + store.status().ToString());
    if (!store.ok()) return out;
    for (const ShippedEpoch& e : lanes[lane]) {
      int64_t t0 = NowNs();
      Status st = (*store)->Append(e);
      out.append_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
      checks->Expect(st.ok(), "offline segment append: " + st.ToString());
      if (e.is_heartbeat()) continue;
      records += e.num_records;
      auto epoch = DecodeEpoch(e);
      checks->Expect(epoch.ok(), "offline decode: " + epoch.status().ToString());
      if (!epoch.ok()) continue;
      t0 = NowNs();
      ShippedEpoch again = EncodeEpoch(*epoch);
      encode_ns += NowNs() - t0;
      checks->Expect(again.payload_crc == e.payload_crc, "re-encoded epoch differs");
      std::string_view payload(*e.payload);
      t0 = NowNs();
      for (size_t off = 0; off < payload.size();) {
        auto view = LogCodec::DecodeMetadata(payload, &off);
        if (!view.ok()) break;
      }
      dispatch_ns += NowNs() - t0;
      t0 = NowNs();
      size_t bytes = 0;
      for (size_t off = 0; off < payload.size();) {
        auto view = LogCodec::DecodeView(payload, &off);
        if (!view.ok()) break;
        if (view->is_dml()) {
          PackedDelta delta =
              PackedDelta::FromWire(view->num_values, view->value_bytes);
          bytes += delta.byte_size();
          ++dml;
        }
      }
      translate_ns += NowNs() - t0;
      checks->Expect(bytes > 0 || dml == 0, "translate produced no deltas");
    }
    out.segment_bytes += (*store)->bytes_written();
    store->reset();
    std::filesystem::remove_all(lane_dir);
  }
  if (records > 0) {
    out.encode_ns_per_record = static_cast<double>(encode_ns) / static_cast<double>(records);
    out.dispatch_ns_per_record = static_cast<double>(dispatch_ns) / static_cast<double>(records);
    out.translate_ns_per_record = static_cast<double>(translate_ns) / static_cast<double>(records);
  }
  return out;
}

// ---- Replay stats -------------------------------------------------------------

ReplaySnapshot ReplaySnapshot::Of(const ReplayStats& s) {
  ReplaySnapshot r;
  r.txns = s.txns.load();
  r.dispatch_ns = s.dispatch_ns.load();
  r.translate_ns = s.replay_ns.load();
  r.commit_ns = s.commit_ns.load();
  r.stage1_ns = s.stage1_wall_ns.load();
  r.stage2_ns = s.stage2_wall_ns.load();
  r.sync_wait_ns = s.sync_wait_ns.load();
  r.pipeline_stalls = s.pipeline_stalls.load();
  r.retried = s.epochs_retried.load();
  r.corrupt = s.corrupt_dropped.load();
  return r;
}

ReplaySnapshot ReplaySnapshot::Minus(const ReplaySnapshot& o) const {
  ReplaySnapshot r;
  r.txns = txns - o.txns;
  r.dispatch_ns = dispatch_ns - o.dispatch_ns;
  r.translate_ns = translate_ns - o.translate_ns;
  r.commit_ns = commit_ns - o.commit_ns;
  r.stage1_ns = stage1_ns - o.stage1_ns;
  r.stage2_ns = stage2_ns - o.stage2_ns;
  r.sync_wait_ns = sync_wait_ns - o.sync_wait_ns;
  r.pipeline_stalls = pipeline_stalls - o.pipeline_stalls;
  r.retried = retried - o.retried;
  r.corrupt = corrupt - o.corrupt;
  return r;
}

void AddReplayLayer(const ReplaySnapshot& d, double ktxn, int64_t cpu_ns, Report* report) {
  auto per_ktxn = [&](int64_t ns) { return static_cast<double>(ns) / 1e6 / ktxn; };
  report->Add("replay.dispatch_ms_per_ktxn", per_ktxn(d.dispatch_ns), "ms");
  report->Add("replay.translate_ms_per_ktxn", per_ktxn(d.translate_ns), "ms");
  report->Add("replay.commit_ms_per_ktxn", per_ktxn(d.commit_ns), "ms");
  report->Add("replay.sync_wait_ms_per_ktxn", per_ktxn(d.sync_wait_ns), "ms", 0,
              "only ATR sets it; 0 for AETS");
  report->Add("replay.pipeline_stalls", static_cast<double>(d.pipeline_stalls), "count");
  int64_t stages = d.stage1_ns + d.stage2_ns;
  report->Add("replay.stage1_share",
              stages > 0 ? static_cast<double>(d.stage1_ns) / static_cast<double>(stages) : 0,
              "ratio");
  int64_t busy = d.dispatch_ns + d.translate_ns + d.commit_ns;
  report->Add("replay.busy_share",
              cpu_ns > 0 ? static_cast<double>(busy) / static_cast<double>(cpu_ns) : 0, "ratio");
}

// ---- Timeline and spans ----------------------------------------------------------

std::vector<EpochSpan> BuildTimeline(const std::vector<ShippedEpoch>& lane, size_t from,
                                     const SinkLog& sink, const EpochStamps* stamps,
                                     const Observer& obs) {
  std::vector<EpochSpan> spans;
  Timestamp prev_end = 0;
  if (from > 0) {
    const ShippedEpoch& p = lane[from - 1];
    prev_end = std::max(p.max_commit_ts, p.heartbeat_ts);
  }
  const std::vector<Timestamp>& ts = sink.commit_ts;
  for (size_t i = from; i < lane.size(); ++i) {
    const ShippedEpoch& e = lane[i];
    EpochSpan s;
    s.id = e.epoch_id;
    s.end_ts = std::max(e.max_commit_ts, e.heartbeat_ts);
    auto lo = std::upper_bound(ts.begin(), ts.end(), prev_end);
    auto hi = std::upper_bound(ts.begin(), ts.end(), s.end_ts);
    s.txns = hi > lo ? static_cast<size_t>(hi - lo) : 0;
    if (s.txns > 0) s.fill_start = sink.commit_ns[static_cast<size_t>(lo - ts.begin())];
    if (stamps != nullptr) {
      s.deliver = stamps->deliver(e.epoch_id);
      s.arrive = stamps->arrive(e.epoch_id);
    }
    s.visible = FirstReach(obs.wm(), s.end_ts);
    s.published = FirstReach(obs.published(), s.end_ts);
    prev_end = std::max(prev_end, s.end_ts);
    spans.push_back(s);
  }
  return spans;
}

void WriteSpans(const std::string& path, const std::vector<EpochSpan>& spans,
                int64_t origin_ns) {
  std::ofstream out(path);
  auto us = [&](int64_t t) { return t < 0 ? -1.0 : static_cast<double>(t - origin_ns) / 1e3; };
  for (const EpochSpan& s : spans) {
    char line[320];
    std::snprintf(line, sizeof(line),
                  "{\"epoch\": %llu, \"txns\": %zu, \"fill_start_us\": %.1f, "
                  "\"seal_us\": %.1f, \"deliver_us\": %.1f, \"arrive_us\": %.1f, "
                  "\"visible_us\": %.1f, \"column_published_us\": %.1f}\n",
                  static_cast<unsigned long long>(s.id), s.txns, us(s.fill_start),
                  us(s.deliver), us(s.deliver), us(s.arrive), us(s.visible),
                  us(s.published));
    out << line;
  }
}

std::vector<double> QueryRates(const Workload& workload) {
  std::vector<double> rates(workload.catalog().num_tables(), 0.0);
  for (const AnalyticQuery& q : workload.analytic_queries()) {
    for (TableId t : q.tables) rates[t] += q.weight;
  }
  return rates;
}

uint64_t StreamBytes(const std::vector<ShippedEpoch>& epochs, size_t from) {
  uint64_t bytes = 0;
  for (size_t i = from; i < epochs.size(); ++i) bytes += epochs[i].ByteSize();
  return bytes;
}

}  // namespace perfbench
