// Layer probes of the traced runs: set-up layer timing and the seed-round
// replay that splits an analysis into VM run, symbolic walk and solving.
#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "src/isa/image.h"
#include "src/isa/predecode.h"
#include "src/solver/expr.h"
#include "src/solver/pipeline.h"
#include "src/solver/solver.h"
#include "src/support/str.h"
#include "src/symex/executor.h"
#include "src/tools/classify.h"
#include "src/vm/machine.h"

namespace perfbench {

using namespace sbce;

void TimeBuild(const bombs::BombSpec& spec, LayerTotals* totals) {
  const auto t0 = Clock::now();
  const isa::BinaryImage image = bombs::BuildBomb(spec);
  const auto t1 = Clock::now();
  const auto predecoded = isa::Predecode(image);
  const auto t2 = Clock::now();
  totals->build_s += Seconds(t0, t1);
  totals->predecode_s += Seconds(t1, t2);
}

void ReplaySeedRound(const bombs::BombSpec& spec,
                     const tools::ToolProfile& tool, LayerTotals* totals) {
  const core::EngineConfig& config = tool.engine;
  const isa::BinaryImage image = bombs::BuildBomb(spec);
  vm::Machine::Options vm_options;
  vm_options.predecoded = isa::Predecode(image);
  // The same environment service::Analyze builds for a dataset or corpus
  // bomb: the spec's devices and pre-created files.
  const auto make_machine = [&](const std::vector<std::string>& argv) {
    auto machine = std::make_unique<vm::Machine>(
        image, argv, spec.experiment_devices, vm_options);
    for (const auto& [path, contents] : spec.files) {
      machine->fs().PutString(path, contents);
    }
    return machine;
  };

  // 1. Concrete run with a trace hook.
  std::vector<vm::TraceEvent> events;
  bool overflow = false;
  auto machine = make_machine(spec.seed_argv);
  machine->set_trace_hook([&](const vm::TraceEvent& ev) {
    if (events.size() < config.budgets.max_trace_events) {
      events.push_back(ev);
    } else {
      overflow = true;
    }
  });
  const auto t0 = Clock::now();
  const vm::RunResult run = machine->Run();
  totals->replay_vm_s += Seconds(t0, Clock::now());
  ++totals->replay_vm_runs;
  totals->replay_instructions += run.instructions;
  if (overflow) return;  // the engine aborts such a round before walking

  // 2. Symbolic walk of the trace, with argv declared symbolic as the
  // engine declares it.
  solver::ExprPool pool;
  symex::TraceExecutor exec(&pool, config.symex);
  auto layout = make_machine(spec.seed_argv);
  exec.SetInitialByteReader([&](uint64_t addr) -> std::optional<uint8_t> {
    for (const auto& s : image.sections()) {
      if (addr >= s.vaddr && addr < s.vaddr + s.data.size()) {
        return s.data[addr - s.vaddr];
      }
    }
    return layout->root().mem.ReadU8(addr);
  });
  if (config.sources.argv) {
    const unsigned window = config.sources.argv_max_len;
    for (size_t i = 1; i < spec.seed_argv.size(); ++i) {
      const size_t nbytes = window > 0 ? window : spec.seed_argv[i].size();
      std::vector<solver::ExprRef> bytes;
      for (size_t k = 0; k < nbytes; ++k) {
        bytes.push_back(pool.Var(StrFormat("argv%zu_b%zu", i, k), 8));
      }
      exec.AddSymbolicBytes(layout->ArgvStringAddr(i), bytes);
    }
  }
  const auto t1 = Clock::now();
  const symex::SymTraceResult walk = exec.Execute(events);
  totals->replay_walk_s += Seconds(t1, Clock::now());
  totals->replay_events += walk.events_processed;
  const auto& path = exec.state().path();
  totals->replay_constraints += path.size();
  if (walk.aborted) return;

  // 3. The seed path's negations (prefix + negated condition), within the
  // profile's query budget and skipping what its solver cannot model.
  std::vector<solver::QueryPipeline::Query> queries;
  for (size_t i = 0; i < path.size(); ++i) {
    if (queries.size() >= config.budgets.max_solver_queries) break;
    solver::QueryPipeline::Query q;
    for (size_t k = 0; k < i; ++k) q.push_back(path[k].cond);
    q.push_back(pool.Not(path[i].cond));
    if (!config.solver_supports_fp && solver::ContainsHardFp(q)) continue;
    queries.push_back(std::move(q));
  }
  if (queries.empty()) return;
  solver::PipelineOptions pipeline_options;
  pipeline_options.solver = config.budgets.solver;
  // Two threads let the portfolio alternates race side by side; the
  // pipeline's counts are the same for every thread count.
  pipeline_options.threads = 2;
  solver::QueryPipeline pipeline(pipeline_options);
  pipeline.SolveBatch(queries);
  const solver::PipelineStats stats = pipeline.stats();
  totals->replay_queries += queries.size();
  totals->replay_portfolio_runs += stats.portfolio_runs;
  totals->replay_portfolio_rescues += stats.portfolio_rescues;
  totals->replay_subqueries += stats.subqueries_solved;
  totals->replay_incremental_fallbacks += stats.incremental_fallbacks;

  solver::SolverOptions circuit_options = config.budgets.solver;
  circuit_options.max_conflicts = 1;
  for (const auto& q : queries) {
    const solver::SolveResult r = solver::CheckSat(q, circuit_options);
    totals->replay_sat_vars_max =
        std::max<uint64_t>(totals->replay_sat_vars_max, r.sat_vars);
  }
}

namespace {

/// Calls fn(i) for every i < n on `width` threads; each thread takes the
/// next index in order, as tools::RunGrid's pool does.
void ForEachIndex(size_t n, unsigned width,
                  const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::jthread> workers;
  for (unsigned w = 0; w < std::max(1u, width); ++w) {
    workers.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
    });
  }
}

}  // namespace

void LayerTotals::AddReplay(const LayerTotals& r) {
  replay_vm_runs += r.replay_vm_runs;
  replay_vm_s += r.replay_vm_s;
  replay_instructions += r.replay_instructions;
  replay_walk_s += r.replay_walk_s;
  replay_events += r.replay_events;
  replay_constraints += r.replay_constraints;
  replay_queries += r.replay_queries;
  replay_portfolio_runs += r.replay_portfolio_runs;
  replay_portfolio_rescues += r.replay_portfolio_rescues;
  replay_subqueries += r.replay_subqueries;
  replay_incremental_fallbacks += r.replay_incremental_fallbacks;
  replay_sat_vars_max = std::max(replay_sat_vars_max, r.replay_sat_vars_max);
}

TracedCells TraceCells(
    const std::vector<tools::CellSpec>& cells, unsigned width,
    const std::function<bool(const tools::CellSpec&,
                             const service::AnalysisResult&)>& check,
    const std::function<service::AnalysisRequest(const tools::CellSpec&)>&
        wire,
    LayerSink* sink, LayerTotals* totals, ServiceLayer* service,
    Report* report) {
  // The request tools::RunGrid builds for a cell when cells run in
  // parallel or, at width 1, when asked for one solver thread.
  const auto request_for = [](const tools::CellSpec& c) {
    service::AnalysisRequest request;
    request.local_bomb = c.bomb;
    request.bomb = c.bomb->id;
    request.profile = c.tool.name;
    request.custom_engine = c.tool.engine;
    request.budgets.solver_threads = 1;
    return request;
  };

  TracedCells out;
  std::vector<service::AnalysisResult> results(cells.size());
  std::vector<double> call_ms(cells.size());
  const auto t0 = Clock::now();
  ForEachIndex(cells.size(), width, [&](size_t i) {
    service::AnalyzeEnv env;
    env.trace_sink = sink;
    const auto a0 = Clock::now();
    results[i] = service::Analyze(request_for(cells[i]), env);
    call_ms[i] = Seconds(a0, Clock::now()) * 1e3;
  });
  out.traced_s = Seconds(t0, Clock::now());

  std::vector<LayerTotals> replayed(cells.size());
  ForEachIndex(cells.size(), width, [&](size_t i) {
    ReplaySeedRound(*cells[i].bomb, cells[i].tool, &replayed[i]);
  });

  for (size_t i = 0; i < cells.size(); ++i) {
    const tools::CellSpec& c = cells[i];
    const service::AnalysisResult& result = results[i];
    const double explore_ms =
        static_cast<double>(result.engine.metrics.explore_micros) * 1e-3;
    service->explore_ms.push_back(explore_ms);
    service->wait_ms.push_back(call_ms[i] - explore_ms);
    totals->AddEngine(result.engine.metrics);
    totals->AddReplay(replayed[i]);
    report->Check(result.ok && check(c, result),
                  "traced " + c.bomb->id + "/" + c.tool.name + ": got " +
                      std::string(tools::OutcomeLabel(result.outcome)));
    out.documents.push_back(service::RequestToJson(wire(c)));
    out.documents.push_back(service::ResultToJson(result, false));
  }
  return out;
}

}  // namespace perfbench
