// Workload `corpus_grid`: the default-shape generated corpus (72 cells x
// 5 profiles = 360 grid cells) for consecutive corpus seeds derived from
// the benchmark seed, each through tools::RunGrid at width 1 with one
// solver thread.
#include <cstdio>

#include "bench.h"
#include "src/corpus/corpus.h"
#include "src/report/scaling.h"
#include "src/service/api.h"
#include "src/tools/runner.h"

namespace perfbench {

using namespace sbce;

namespace {

std::vector<tools::ToolProfile> CorpusProfiles() {
  std::vector<tools::ToolProfile> profiles = tools::PaperTools();
  profiles.push_back(tools::Ideal());
  return profiles;
}

/// The scaling report's verdict: every positive cell gets its expected
/// label and no negative cell comes out OK. (GridResult::matches would
/// count the Ideal negatives, labelled "unreachable", as mismatches.)
void CheckCorpusGrid(const corpus::Corpus& corpus,
                     const tools::GridResult& grid, Report* report) {
  const report::ScalingReport scaling = report::BuildScalingReport(corpus, grid);
  const int wrong = (scaling.positives - scaling.expected_matches) +
                    scaling.false_positives;
  report->attempted += static_cast<uint64_t>(scaling.cells);
  report->failed += static_cast<uint64_t>(wrong);
  if (wrong != 0 || scaling.cells != static_cast<int>(grid.cells.size())) {
    std::printf("FAILED: corpus seed %llu: %d/%d expected matches, %d/%d "
                "negative false positives, %d/%zu cells reported\n",
                static_cast<unsigned long long>(corpus.seed),
                scaling.expected_matches, scaling.positives,
                scaling.false_positives, scaling.negatives, scaling.cells,
                grid.cells.size());
    if (wrong == 0) ++report->failed;
  }
}

}  // namespace

bool RunCorpusGrid(const Options& options, Report* report) {
  const std::vector<tools::ToolProfile> profiles = CorpusProfiles();
  // Fully serial: one cell at a time, each with one solver thread. With
  // the default (one solver thread per core) a grid at width 1 starts a
  // thread pool per cell for batches of tiny queries, which costs wall
  // time no layer of the cell accounts for.
  tools::RunOptions serial;
  serial.solver_threads = 1;
  // One corpus per timed grid; a grid takes well over half a second, so
  // this many never runs out within --seconds.
  const size_t count =
      options.smoke ? 1 : static_cast<size_t>(options.seconds * 2.0) + 3;
  const std::vector<uint64_t> seeds = DeriveSeeds(options.seed, count);

  // Set-up: generate every corpus before timing starts.
  std::vector<corpus::Corpus> corpora;
  std::vector<double> generate_s;
  for (uint64_t seed : seeds) {
    corpus::CorpusSpec spec =
        options.smoke ? corpus::SmokeSpec() : corpus::CorpusSpec{};
    spec.seed = seed;
    const auto t0 = Clock::now();
    auto generated = corpus::Generate(spec);
    generate_s.push_back(Seconds(t0, Clock::now()));
    if (!generated.ok()) {
      std::fprintf(stderr, "corpus seed %llu: %s\n",
                   static_cast<unsigned long long>(seed),
                   generated.status().ToString().c_str());
      return false;
    }
    corpora.push_back(std::move(generated).value());
  }
  std::printf("corpus_grid: corpus seeds from %llu, %zu cells x %zu profiles\n",
              static_cast<unsigned long long>(seeds.front()),
              corpora.front().cells.size(), profiles.size());

  if (!options.trace) {
    EndToEnd e;
    e.setup_s = generate_s;
    size_t next = 0;
    do {
      const corpus::Corpus& corpus = corpora[next++];
      const std::vector<tools::CellSpec> cells =
          tools::CorpusCells(corpus, profiles);
      const double cpu0 = CpuSeconds();
      const auto t0 = Clock::now();
      const tools::GridResult grid = tools::RunGrid(cells, serial, 1);
      e.unit_wall_s.push_back(Seconds(t0, Clock::now()));
      e.unit_cpu_s.push_back(CpuSeconds() - cpu0);
      e.timed_s += e.unit_wall_s.back();
      e.analyses += grid.cells.size();
      e.latency_ms.push_back(e.unit_wall_s.back() * 1e3);
      for (const tools::CellResult& cell : grid.cells) {
        e.cell_ms.push_back(
            static_cast<double>(cell.engine.metrics.explore_micros) * 1e-3);
      }
      CheckCorpusGrid(corpus, grid, report);
    } while (e.timed_s < options.seconds && next < corpora.size());
    AddEndToEndMetrics(e, report);
    return true;
  }

  // Traced run over the first corpus: the untraced grid (idle fraction,
  // and the base of the tracing overhead), then the traced analyses at the
  // same width and the replay.
  const corpus::Corpus& corpus = corpora.front();
  const std::vector<tools::CellSpec> cells =
      tools::CorpusCells(corpus, profiles);
  LayerTotals totals;
  LayerSink sink;
  ServiceLayer service;
  totals.generate_s = generate_s;
  for (const corpus::CorpusCell& cell : corpus.cells) {
    TimeBuild(cell.spec, &totals);
  }

  const auto t0 = Clock::now();
  const tools::GridResult plain = tools::RunGrid(cells, serial, 1);
  const double plain_s = Seconds(t0, Clock::now());
  const double idle_frac = 1.0 - ExploreSeconds(plain) / plain_s;
  CheckCorpusGrid(corpus, plain, report);

  const TracedCells passes = TraceCells(
      cells, 1,
      [&](const tools::CellSpec& c, const service::AnalysisResult& result) {
        const corpus::CorpusCell* cell = corpus.Find(c.bomb->id);
        return cell != nullptr && (cell->negative
                                       ? result.outcome != tools::Outcome::kOk
                                       : result.matches_paper);
      },
      [&](const tools::CellSpec& c) {
        service::AnalysisRequest request;
        request.corpus_cell = c.bomb->id;
        request.corpus_seed = corpus.seed;
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
