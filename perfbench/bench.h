// Shared pieces of the perfbench program: command-line options, the
// result document, timing and statistics helpers, the benchmark-owned
// trace sink, and the per-layer accumulator the traced runs fill.
//
// The benchmark reaches the system only through its public entry points
// (tools::RunGrid, service::Analyze, service::Daemon/Client,
// corpus::Generate, bombs::BuildBomb, isa::Predecode, and for the traced
// replay vm::Machine, symex::TraceExecutor, solver::QueryPipeline and
// solver::CheckSat). Every timing is taken here, around those calls, or
// from the `micros` argument of the spans the program emits.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/bombs/bombs.h"
#include "src/core/engine.h"
#include "src/obs/json.h"
#include "src/obs/trace_sink.h"
#include "src/service/api.h"
#include "src/tools/runner.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny inputs, for the benchmark's own test: every metric is still
  /// printed, but the numbers mean nothing.
  bool smoke = false;
  std::string data_dir = "perfbench";
  /// Where the service workload's daemon binds its socket.
  std::string socket_dir = ".bench_build";
  std::string commit = "unknown";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one invocation prints as its last line.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts one checked outcome; `what` is printed when it failed.
  void Check(bool ok, const std::string& what);
};

double Seconds(Clock::time_point t0, Clock::time_point t1);
/// User + system CPU seconds of this process so far.
double CpuSeconds();
/// Peak resident set size of this process, in MB.
double PeakRssMb();

double Median(std::vector<double> v);
/// Nearest-rank percentile, `p` in [0, 1].
double Percentile(std::vector<double> v, double p);

/// FNV-1a 64 of a string, as 16 lower-case hex digits.
std::string HexDigest(std::string_view text);

/// Seeds derived from the benchmark seed (SplitMix64 stream).
std::vector<uint64_t> DeriveSeeds(uint64_t seed, size_t n);

/// The Table II grid the `table2` workload runs: every dataset bomb under
/// the four paper tools, paper order, minus the three cry_sha1 E cells.
std::vector<sbce::tools::CellSpec> TableTwoWorkloadCells(bool smoke);

/// Sum of the cells' exploration wall-clock (EngineMetrics::explore_micros).
double ExploreSeconds(const sbce::tools::GridResult& grid);

/// Benchmark-owned sink: sums span durations (from SpanEnd's `micros`
/// only — RunGrid replays buffered records after the fact, so arrival
/// times mean nothing), counts spans and events, and sums counters.
class LayerSink : public sbce::obs::TraceSink {
 public:
  void Event(std::string_view name,
             std::span<const sbce::obs::Field> fields) override;
  void SpanBegin(std::string_view name, uint64_t span_id,
                 std::span<const sbce::obs::Field> fields) override;
  void SpanEnd(std::string_view name, uint64_t span_id,
               uint64_t micros) override;
  void Counter(std::string_view name, uint64_t delta) override;

  uint64_t SpanMicros(std::string_view name) const;
  uint64_t SpanCount(std::string_view name) const;
  uint64_t EventCount(std::string_view name) const;
  uint64_t CounterSum(std::string_view name) const;

  /// Folds a record stream serialized as JSON lines (the daemon's
  /// want_trace reply) into this sink.
  void AddJsonLine(std::string_view line);

 private:
  mutable std::mutex mu_;
  std::map<std::string, uint64_t, std::less<>> span_micros_;
  std::map<std::string, uint64_t, std::less<>> span_count_;
  std::map<std::string, uint64_t, std::less<>> event_count_;
  std::map<std::string, uint64_t, std::less<>> counters_;
};

/// Per-layer numbers of one traced run. The replay_* fields come from
/// the seed-round replay (ReplaySeedRound), the others from the traced
/// analyses themselves.
struct LayerTotals {
  // Set-up layers.
  std::vector<double> generate_s;  // one entry per corpus generated
  double build_s = 0;              // bombs::BuildBomb
  double predecode_s = 0;          // isa::Predecode
  // Replay: vm::Machine::Run and symex::TraceExecutor::Execute.
  uint64_t replay_vm_runs = 0;
  double replay_vm_s = 0;
  uint64_t replay_instructions = 0;
  double replay_walk_s = 0;
  uint64_t replay_events = 0;
  uint64_t replay_constraints = 0;
  // Replay: the seed path's negations through QueryPipeline::SolveBatch
  // and a cold CheckSat each.
  uint64_t replay_queries = 0;
  uint64_t replay_portfolio_runs = 0;
  uint64_t replay_portfolio_rescues = 0;
  uint64_t replay_subqueries = 0;
  uint64_t replay_incremental_fallbacks = 0;
  uint64_t replay_sat_vars_max = 0;
  // Engine results of the traced analyses (EngineMetrics sums).
  uint64_t rounds = 0;
  uint64_t queries = 0;
  uint64_t conflicts = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t presolve_definitive = 0;
  uint64_t incremental_solves = 0;
  uint64_t portfolio_rescues = 0;
  uint64_t checkpoint_hits = 0;
  uint64_t checkpoint_misses = 0;
  uint64_t checkpoint_restore_micros = 0;

  void AddEngine(const sbce::core::EngineMetrics& m);
  /// Adds another accumulator's replay fields.
  void AddReplay(const LayerTotals& r);
};

/// Bomb assembly and predecode of `spec`, timed into `totals`.
void TimeBuild(const sbce::bombs::BombSpec& spec, LayerTotals* totals);

/// Re-runs the seed round of `spec` under `tool` outside the engine:
/// vm::Machine::Run with a trace hook, symex::TraceExecutor::Execute over
/// the trace, then the seed path's negations through a fresh
/// solver::QueryPipeline (the profile's solver options) and a
/// cold solver::CheckSat per query with a one-conflict budget (enough to
/// build the whole circuit, so `sat_vars` is exact).
void ReplaySeedRound(const sbce::bombs::BombSpec& spec,
                     const sbce::tools::ToolProfile& tool,
                     LayerTotals* totals);

/// Service-layer samples: per-analysis explore time and the time a caller
/// waited beyond it, plus the daemon's warm-state figures.
struct ServiceLayer {
  std::vector<double> explore_ms;
  std::vector<double> wait_ms;
  double warm_frac = 0;
  double epochs_per_req = 0;
  double warm_bytes = 0;
  double warm_evictions = 0;
};

/// The per-analysis half of a grid workload's traced run, at the grid's
/// width: every cell through service::Analyze with `sink` attached, one
/// solver thread and a span of our own around the call (each worker runs
/// one cell at a time, in spec order, as tools::RunGrid does), then
/// ReplaySeedRound over every cell. `check` judges each result; `wire` gives the request a remote
/// client would send for the cell (for the wire-codec probe).
struct TracedCells {
  double traced_s = 0;                          // wall of the traced pass
  std::vector<sbce::obs::JsonValue> documents;  // wire requests + results
};
TracedCells TraceCells(
    const std::vector<sbce::tools::CellSpec>& cells, unsigned width,
    const std::function<bool(const sbce::tools::CellSpec&,
                             const sbce::service::AnalysisResult&)>& check,
    const std::function<sbce::service::AnalysisRequest(
        const sbce::tools::CellSpec&)>& wire,
    LayerSink* sink, LayerTotals* totals, ServiceLayer* service,
    Report* report);

/// End-to-end samples of one untraced run.
struct EndToEnd {
  std::vector<double> setup_s;      // one per set-up repetition
  std::vector<double> unit_wall_s;  // one per unit of work
  std::vector<double> unit_cpu_s;   // one per unit of work
  /// One per request: a whole grid run for the grid workloads, a daemon
  /// request for service_mixed.
  std::vector<double> latency_ms;
  /// One per grid cell (grid workloads; printed, not a metric).
  std::vector<double> cell_ms;
  uint64_t analyses = 0;            // completed in the timed phase
  double timed_s = 0;               // wall-clock of the timed phase
};
/// Appends every end-to-end metric and prints their sample counts.
void AddEndToEndMetrics(const EndToEnd& e, Report* report);

/// Appends every per-layer metric.
void AddLayerMetrics(const LayerTotals& t, const LayerSink& sink,
                     const ServiceLayer& service, double idle_frac,
                     double codec_us, double trace_overhead, Report* report);

/// Wire-codec cost of the workload's own frames: each document is
/// encoded into a frame and decoded back through service::FrameReader.
/// Returns microseconds per frame (encode + decode).
double WireCodecMicros(const std::vector<sbce::obs::JsonValue>& documents);

// Workloads. Each fills `report` (correctness counts and the metrics of
// the requested mode) and returns false on a set-up error.
bool RunTableTwo(const Options& options, Report* report);
bool RunCorpusGrid(const Options& options, Report* report);
bool RunServiceMixed(const Options& options, Report* report);

}  // namespace perfbench
