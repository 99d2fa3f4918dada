// Workload `table2`: the paper's Table II grid (85 cells: 22 bombs x BAP,
// Triton, Angr, Angr-NoLib, minus the three cry_sha1 E cells) through
// tools::RunGrid at width nproc. The seed does not affect it.
#include <malloc.h>

#include <cstdio>
#include <fstream>
#include <set>

#include "bench.h"
#include "bench/bench_env.h"
#include "src/corpus/corpus.h"
#include "src/service/api.h"
#include "src/support/status.h"
#include "src/tools/runner.h"

namespace perfbench {

using namespace sbce;

namespace {

std::string ReadDigest(const std::string& path) {
  std::ifstream in(path);
  std::string digest;
  in >> digest;
  return digest;
}

/// Checks every cell against its paper label and, for the full grid, the
/// deterministic grid document against the stored digest.
void CheckGrid(const tools::GridResult& grid, const std::string& digest,
               Report* report) {
  for (const tools::CellResult& cell : grid.cells) {
    report->Check(cell.matches_paper,
                  "table2 " + cell.bomb_id + "/" + cell.tool + ": got " +
                      std::string(tools::OutcomeLabel(cell.outcome)) +
                      ", paper " + cell.expected);
  }
  if (!digest.empty()) {
    const std::string got = HexDigest(obs::Dump(tools::GridToJson(grid)));
    report->Check(got == digest, "table2 grid document digest " + got +
                                     " != stored " + digest);
  }
}

}  // namespace

bool RunTableTwo(const Options& options, Report* report) {
  const std::vector<tools::CellSpec> specs =
      TableTwoWorkloadCells(options.smoke);
  const unsigned width = bench::HardwareConcurrency();
  const std::string digest =
      options.smoke ? "" : ReadDigest(options.data_dir + "/table2_grid.digest");
  if (!options.smoke && digest.empty()) {
    std::fprintf(stderr, "missing %s/table2_grid.digest\n",
                 options.data_dir.c_str());
    return false;
  }
  std::set<const bombs::BombSpec*> bomb_set;
  std::vector<const bombs::BombSpec*> bombs_in_order;
  for (const tools::CellSpec& c : specs) {
    if (bomb_set.insert(c.bomb).second) bombs_in_order.push_back(c.bomb);
  }
  std::printf("table2: %zu cells, grid width %u\n", specs.size(), width);

  if (!options.trace) {
    EndToEnd e;
    // Set-up: assemble and predecode every bomb of the grid, over and
    // over for a second. One pass takes milliseconds, so the median needs
    // many passes to stay clear of the process's cold start.
    const auto setup0 = Clock::now();
    while (Seconds(setup0, Clock::now()) < 1.0) {
      LayerTotals unused;
      const auto t0 = Clock::now();
      for (const bombs::BombSpec* bomb : bombs_in_order) {
        TimeBuild(*bomb, &unused);
      }
      e.setup_s.push_back(Seconds(t0, Clock::now()));
    }
    const auto timed0 = Clock::now();
    do {
      // A later grid starts from the heap the first one left behind; hand
      // the freed pages back so each grid's peak is its own.
      if (!e.unit_wall_s.empty()) malloc_trim(0);
      const double cpu0 = CpuSeconds();
      const auto t0 = Clock::now();
      const tools::GridResult grid = tools::RunGrid(specs, {}, width);
      e.unit_wall_s.push_back(Seconds(t0, Clock::now()));
      e.unit_cpu_s.push_back(CpuSeconds() - cpu0);
      e.timed_s += e.unit_wall_s.back();
      e.analyses += grid.cells.size();
      e.latency_ms.push_back(e.unit_wall_s.back() * 1e3);
      for (const tools::CellResult& cell : grid.cells) {
        e.cell_ms.push_back(
            static_cast<double>(cell.engine.metrics.explore_micros) * 1e-3);
      }
      CheckGrid(grid, digest, report);
    } while (Seconds(timed0, Clock::now()) < options.seconds);
    AddEndToEndMetrics(e, report);
    return true;
  }

  // Traced run.
  LayerTotals totals;
  LayerSink sink;
  ServiceLayer service;
  for (const bombs::BombSpec* bomb : bombs_in_order) TimeBuild(*bomb, &totals);
  {
    // The grid has no corpus; the generator is timed on the corpus the
    // other workloads would derive from this seed, so the layer is
    // measured in every traced run.
    corpus::CorpusSpec spec;
    spec.seed = DeriveSeeds(options.seed, 1).front();
    const auto t0 = Clock::now();
    auto generated = corpus::Generate(spec);
    totals.generate_s.push_back(Seconds(t0, Clock::now()));
    if (!generated.ok()) return false;
  }

  // The untraced grid (idle fraction, and the base of the tracing
  // overhead), then the traced analyses at the same width.
  const auto t0 = Clock::now();
  const tools::GridResult plain = tools::RunGrid(specs, {}, width);
  const double plain_s = Seconds(t0, Clock::now());
  const double idle_frac =
      1.0 - ExploreSeconds(plain) / (static_cast<double>(width) * plain_s);
  CheckGrid(plain, digest, report);

  const TracedCells passes = TraceCells(
      specs, width,
      [](const tools::CellSpec&, const service::AnalysisResult& result) {
        return result.matches_paper;
      },
      [](const tools::CellSpec& c) {
        service::AnalysisRequest request;
        request.bomb = c.bomb->id;
        request.profile = c.tool.name;
        return request;
      },
      &sink, &totals, &service, report);

  std::printf(
      "trace: untraced grid %.3f s, traced analyses %.3f s\n", plain_s,
      passes.traced_s);
  AddLayerMetrics(totals, sink, service, idle_frac,
                  WireCodecMicros(passes.documents),
                  passes.traced_s / plain_s - 1.0, report);
  return true;
}

}  // namespace perfbench
