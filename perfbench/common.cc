// Report, statistics, the benchmark-owned trace sink and the metric
// tables shared by the three workloads.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "src/obs/json.h"
#include "src/service/wire.h"
#include "src/support/bits.h"
#include "src/support/rng.h"
#include "src/support/status.h"
#include "src/support/str.h"

namespace perfbench {

using namespace sbce;

void Report::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::printf("FAILED: %s\n", what.c_str());
  }
}

double Seconds(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

std::string HexDigest(std::string_view text) {
  return StrFormat("%016llx", static_cast<unsigned long long>(
                                  Fnv1a(text.data(), text.size())));
}

std::vector<uint64_t> DeriveSeeds(uint64_t seed, size_t n) {
  // Consecutive seeds from a seed-dependent base; never 0 (0 means "the
  // default corpus" in service requests).
  SplitMix64 rng(seed);
  const uint64_t base = (rng.Next() >> 33) + 1;
  std::vector<uint64_t> seeds;
  for (size_t i = 0; i < n; ++i) seeds.push_back(base + i);
  return seeds;
}

std::vector<tools::CellSpec> TableTwoWorkloadCells(bool smoke) {
  std::vector<tools::CellSpec> cells;
  for (const tools::CellSpec& spec : tools::TableTwoCells(tools::PaperTools())) {
    const std::string& id = spec.bomb->id;
    // The three cry_sha1 E cells each take longer than the rest of the
    // grid together; Angr-NoLib's cry_sha1 cell is cheap and stays.
    if (id == "cry_sha1" && spec.tool.name != "Angr-NoLib") continue;
    if (smoke && (id == "cry_sha1" || id == "cry_aes" || id == "ext_srand")) {
      continue;
    }
    cells.push_back(spec);
    if (smoke && cells.size() == 12) break;
  }
  return cells;
}

double ExploreSeconds(const tools::GridResult& grid) {
  double total = 0;
  for (const tools::CellResult& cell : grid.cells) {
    total += static_cast<double>(cell.engine.metrics.explore_micros) * 1e-6;
  }
  return total;
}

// --- LayerSink ---------------------------------------------------------------

void LayerSink::Event(std::string_view name, std::span<const obs::Field>) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = event_count_.find(name);
  if (it == event_count_.end()) {
    it = event_count_.emplace(std::string(name), 0).first;
  }
  ++it->second;
}

void LayerSink::SpanBegin(std::string_view, uint64_t,
                          std::span<const obs::Field>) {}

void LayerSink::SpanEnd(std::string_view name, uint64_t, uint64_t micros) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = span_micros_.find(name);
  if (it == span_micros_.end()) {
    it = span_micros_.emplace(std::string(name), 0).first;
    span_count_.emplace(std::string(name), 0);
  }
  it->second += micros;
  ++span_count_.find(name)->second;
}

void LayerSink::Counter(std::string_view name, uint64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), 0).first;
  }
  it->second += delta;
}

namespace {

uint64_t Lookup(const std::map<std::string, uint64_t, std::less<>>& m,
                std::string_view name) {
  auto it = m.find(name);
  return it == m.end() ? 0 : it->second;
}

}  // namespace

uint64_t LayerSink::SpanMicros(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return Lookup(span_micros_, name);
}
uint64_t LayerSink::SpanCount(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return Lookup(span_count_, name);
}
uint64_t LayerSink::EventCount(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return Lookup(event_count_, name);
}
uint64_t LayerSink::CounterSum(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return Lookup(counters_, name);
}

void LayerSink::AddJsonLine(std::string_view line) {
  const std::optional<obs::JsonValue> doc = obs::ParseJson(line);
  if (!doc) return;
  const obs::JsonValue* type = doc->Find("t");
  const obs::JsonValue* name = doc->Find("name");
  if (type == nullptr || name == nullptr) return;
  const std::string_view t = type->AsString();
  if (t == "event") {
    Event(name->AsString(), {});
  } else if (t == "span_end") {
    const obs::JsonValue* micros = doc->Find("micros");
    SpanEnd(name->AsString(), 0, micros != nullptr ? micros->AsU64() : 0);
  } else if (t == "counter") {
    const obs::JsonValue* delta = doc->Find("delta");
    Counter(name->AsString(), delta != nullptr ? delta->AsU64() : 0);
  }
}

// --- Metric tables -----------------------------------------------------------

void LayerTotals::AddEngine(const core::EngineMetrics& m) {
  rounds += m.rounds;
  queries += m.solver_queries;
  conflicts += m.solver_conflicts;
  cache_hits += m.solver_cache_hits;
  cache_misses += m.solver_cache_misses;
  presolve_definitive += m.presolve_definitive;
  incremental_solves += m.incremental_solves;
  portfolio_rescues += m.portfolio_rescues;
  checkpoint_hits += m.checkpoint_hits;
  checkpoint_misses += m.checkpoint_misses;
  checkpoint_restore_micros += m.checkpoint_restore_micros;
}

void AddEndToEndMetrics(const EndToEnd& e, Report* report) {
  const size_t n = e.latency_ms.size();
  std::printf(
      "samples: %zu set-up repetitions, %zu timed units over %.3f s, "
      "%zu latencies (%zu beyond p99)\n",
      e.setup_s.size(), e.unit_wall_s.size(), e.timed_s, n,
      n - static_cast<size_t>(std::ceil(0.99 * static_cast<double>(n))));
  if (!e.cell_ms.empty()) {
    std::printf("per-cell explore: p50 %.3f ms, p99 %.3f ms over %zu cells\n",
                Percentile(e.cell_ms, 0.5), Percentile(e.cell_ms, 0.99),
                e.cell_ms.size());
  }
  report->Add("wall_s", Median(e.unit_wall_s), "s");
  report->Add("cpu_s", Median(e.unit_cpu_s), "s");
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
  report->Add("setup_s", Median(e.setup_s), "s");
  report->Add("req_per_s",
              e.timed_s > 0 ? static_cast<double>(e.analyses) / e.timed_s : 0,
              "req/s");
  report->Add("latency_p50_ms", Percentile(e.latency_ms, 0.5), "ms");
  report->Add("latency_p99_ms", Percentile(e.latency_ms, 0.99), "ms");
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void AddLayerMetrics(const LayerTotals& t, const LayerSink& sink,
                     const ServiceLayer& service, double idle_frac,
                     double codec_us, double trace_overhead, Report* report) {
  const double explore_s =
      static_cast<double>(sink.SpanMicros("engine.explore")) * 1e-6;
  const double batch_s =
      static_cast<double>(sink.SpanMicros("solver.batch")) * 1e-6;
  const auto u = [](uint64_t v) { return static_cast<double>(v); };
  Report& r = *report;
  r.Add("corpus.generate_s", Median(t.generate_s), "s");
  r.Add("isa.build_s", t.build_s, "s");
  r.Add("isa.predecode_s", t.predecode_s, "s");
  r.Add("vm.runs", u(sink.EventCount("vm.run.done")), "count");
  r.Add("vm.run_s", t.replay_vm_s, "s");
  r.Add("vm.instructions", u(sink.CounterSum("vm.instructions")), "count");
  r.Add("vm.instr_per_s", Ratio(u(t.replay_instructions), t.replay_vm_s),
        "1/s");
  r.Add("symex.walk_s", t.replay_walk_s, "s");
  r.Add("symex.events", u(t.replay_events), "count");
  r.Add("symex.events_per_s", Ratio(u(t.replay_events), t.replay_walk_s),
        "1/s");
  r.Add("symex.constraints", u(t.replay_constraints), "count");
  r.Add("engine.explore_s", explore_s, "s");
  r.Add("engine.nonsolver_s", explore_s - batch_s, "s");
  r.Add("engine.rounds", u(t.rounds), "count");
  r.Add("engine.queries", u(t.queries), "count");
  r.Add("checkpoint.hit_ratio",
        Ratio(u(t.checkpoint_hits), u(t.checkpoint_hits + t.checkpoint_misses)),
        "ratio");
  r.Add("solver.batch_s", batch_s, "s");
  r.Add("solver.batches", u(sink.SpanCount("solver.batch")), "count");
  r.Add("solver.conflicts", u(t.conflicts), "count");
  r.Add("solver.conflicts_per_s", Ratio(u(t.conflicts), batch_s), "1/s");
  r.Add("solver.portfolio_runs", u(t.replay_portfolio_runs), "count");
  r.Add("solver.portfolio_rescues", u(t.portfolio_rescues), "count");
  r.Add("solver.rescue_ratio",
        Ratio(u(t.replay_portfolio_rescues), u(t.replay_portfolio_runs)),
        "ratio");
  r.Add("solver.sat_vars_max", u(t.replay_sat_vars_max), "count");
  const uint64_t components = t.cache_hits + t.cache_misses;
  r.Add("solver.components", u(components), "count");
  r.Add("solver.cache_hit_ratio", Ratio(u(t.cache_hits), u(components)),
        "ratio");
  r.Add("solver.presolve_ratio",
        Ratio(u(t.presolve_definitive), u(t.cache_misses)), "ratio");
  r.Add("solver.cdcl_components", u(t.replay_subqueries), "count");
  r.Add("solver.incremental_solves", u(t.incremental_solves), "count");
  r.Add("solver.incremental_fallbacks", u(t.replay_incremental_fallbacks),
        "count");
  r.Add("grid.idle_frac", idle_frac, "ratio");
  r.Add("service.explore_ms_p50", Percentile(service.explore_ms, 0.5), "ms");
  r.Add("service.wait_ms_p50", Percentile(service.wait_ms, 0.5), "ms");
  r.Add("service.wait_ms_p99", Percentile(service.wait_ms, 0.99), "ms");
  r.Add("service.warm_frac", service.warm_frac, "ratio");
  r.Add("service.epochs_per_req", service.epochs_per_req, "ratio");
  r.Add("warm.bytes", service.warm_bytes, "bytes");
  r.Add("warm.evictions", service.warm_evictions, "count");
  r.Add("wire.codec_us", codec_us, "us");
  r.Add("obs.trace_overhead", trace_overhead, "ratio");
  std::printf(
      "replay-derived (seed round re-run outside the engine): vm.run_s "
      "vm.instr_per_s symex.* solver.portfolio_runs solver.rescue_ratio "
      "solver.sat_vars_max solver.cdcl_components "
      "solver.incremental_fallbacks\n");
  // Zero on workloads without checkpoint hits (table2), so it is printed
  // here rather than listed as a metric.
  std::printf("checkpoint.restore_s = %.6f s\n",
              u(t.checkpoint_restore_micros) * 1e-6);
  std::printf("replay: %llu vm runs, %llu instructions, %llu negations\n",
              static_cast<unsigned long long>(t.replay_vm_runs),
              static_cast<unsigned long long>(t.replay_instructions),
              static_cast<unsigned long long>(t.replay_queries));
}

double WireCodecMicros(const std::vector<obs::JsonValue>& documents) {
  if (documents.empty()) return 0;
  // Repeat the whole set until enough time has passed to read the clock
  // meaningfully; report the per-frame mean.
  uint64_t frames = 0;
  const auto t0 = Clock::now();
  do {
    for (const obs::JsonValue& doc : documents) {
      const std::string frame = service::EncodeFrame(doc);
      service::FrameReader reader;
      reader.Feed(frame.data(), frame.size());
      auto decoded = reader.Next();
      SBCE_CHECK_MSG(decoded.ok() && decoded.value().has_value(),
                     "wire frame did not round-trip");
      ++frames;
    }
  } while (Seconds(t0, Clock::now()) < 0.05);
  return Seconds(t0, Clock::now()) * 1e6 / static_cast<double>(frames);
}

}  // namespace perfbench
