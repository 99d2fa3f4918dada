// Workload `service_mixed`: an in-process service::Daemon (2 analysis
// jobs, private socket inside the checkout) driven by a closed loop of 2
// client connections from this process (1 and 1 below 4 cores). In the seeded request stream,
// half the requests repeat a hot set of cheap dataset cells with
// want_path_condition on (served by WarmCache), half are corpus-cell
// requests never sent before (a cold analysis plus WarmCache inserts).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "bench.h"
#include "bench/bench_env.h"
#include "src/corpus/corpus.h"
#include "src/service/api.h"
#include "src/service/client.h"
#include "src/service/daemon.h"
#include "src/support/rng.h"
#include "src/support/str.h"
#include "src/tools/runner.h"

namespace perfbench {

using namespace sbce;

namespace {

// Daemon analysis jobs, and as many closed-loop clients: 2 each, fewer on
// machines with under 4 cores, so clients plus jobs never exceed nproc.
unsigned LoadWidth() {
  return std::clamp(bench::HardwareConcurrency() / 2, 1u, 2u);
}
// Requests per timed unit: one corpus block of the stream (360 cold + 360
// hot requests).
constexpr double kBlock = 720;

struct HotCell {
  const char* bomb;
  const char* profile;
};

// Cheap Table II cells (well under a millisecond of exploration each),
// spread over outcomes and profiles.
constexpr HotCell kHot[] = {
    {"arr_one", "Angr"},           {"arr_two", "Angr-NoLib"},
    {"csp_stack", "Triton"},       {"csp_exception", "BAP"},
    {"jmp_table", "Angr"},         {"svd_argvlen", "Angr"},
    {"par_forkpipe", "Angr-NoLib"}, {"svd_syscall", "Angr"},
};
constexpr size_t kHotCount = sizeof(kHot) / sizeof(kHot[0]);

const char* const kProfiles[] = {"BAP", "Triton", "Angr", "Angr-NoLib",
                                 "Ideal"};

struct StreamItem {
  service::AnalysisRequest request;
  int hot = -1;           // index into kHot, or -1 for a corpus cell
  bool negative = false;  // corpus negatives must not come out OK
};

/// Every request asks for one solver thread: by default each analysis
/// starts a solver pool with a thread per core, and the daemon's jobs
/// alone would then oversubscribe the machine.
service::AnalysisRequest BaseRequest(std::string profile) {
  service::AnalysisRequest r;
  r.profile = std::move(profile);
  r.budgets.solver_threads = 1;
  return r;
}

service::AnalysisRequest HotRequest(size_t i) {
  service::AnalysisRequest r = BaseRequest(kHot[i].profile);
  r.bomb = kHot[i].bomb;
  r.want_path_condition = true;
  return r;
}

/// The seeded request stream, one block per corpus: the corpus's 360
/// (cell, profile) pairs in a seeded order, interleaved at seeded
/// positions with as many hot requests. No cold request repeats, and
/// every block has the same mix.
std::vector<StreamItem> BuildStream(uint64_t seed,
                                    const std::vector<uint64_t>& corpus_seeds) {
  SplitMix64 rng(seed ^ 0x5e41ce);
  const auto shuffle = [&rng](auto& v) {
    for (size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng.NextBelow(i)]);
    }
  };
  std::vector<StreamItem> stream;
  for (uint64_t cs : corpus_seeds) {
    std::vector<StreamItem> cold;
    const auto corpus = corpus::SharedCorpus(cs);
    for (const corpus::CorpusCell& cell : corpus->cells) {
      for (const char* profile : kProfiles) {
        StreamItem item;
        item.request = BaseRequest(profile);
        item.request.corpus_cell = cell.spec.id;
        item.request.corpus_seed = cs;
        // Path conditions stay off here: rendering one (solver::ToString
        // over the expression DAG) grows exponentially with symbolic
        // memory nesting, so an array-depth corpus cell under Ideal takes
        // seconds at depth 2 and longer than any run at depth 3. The
        // segment is still captured and inserted into WarmCache.
        item.negative = cell.negative;
        cold.push_back(std::move(item));
      }
    }
    shuffle(cold);
    std::vector<char> hot_slot(2 * cold.size(), 0);
    std::fill(hot_slot.begin(), hot_slot.begin() + cold.size(), 1);
    shuffle(hot_slot);
    size_t next_cold = 0;
    for (const char hot : hot_slot) {
      if (hot) {
        StreamItem item;
        item.hot = static_cast<int>(rng.NextBelow(kHotCount));
        item.request = HotRequest(static_cast<size_t>(item.hot));
        stream.push_back(std::move(item));
      } else {
        stream.push_back(cold[next_cold++]);
      }
    }
  }
  return stream;
}

std::string Deterministic(const obs::JsonValue& doc) {
  auto result = service::ResultFromJson(doc);
  if (!result.ok()) return "";
  return obs::Dump(
      service::ResultToJson(result.value(), /*deterministic_only=*/true));
}

uint64_t U(const obs::JsonValue* doc, std::string_view key) {
  const obs::JsonValue* v = doc != nullptr ? doc->Find(key) : nullptr;
  return v != nullptr ? v->AsU64() : 0;
}

/// The engine counters a wire result carries (deterministic section plus
/// the perf section).
core::EngineMetrics WireMetrics(const obs::JsonValue& doc) {
  core::EngineMetrics m;
  const obs::JsonValue* perf = doc.Find("perf");
  m.rounds = U(&doc, "rounds");
  m.solver_queries = U(&doc, "solver_queries");
  m.solver_conflicts = U(perf, "solver_conflicts");
  m.solver_cache_hits = U(perf, "solver_cache_hits");
  m.solver_cache_misses = U(perf, "solver_cache_misses");
  m.incremental_solves = U(perf, "incremental_solves");
  m.portfolio_rescues = U(perf, "portfolio_rescues");
  m.presolve_definitive = U(perf, "presolve_definitive");
  m.checkpoint_hits = U(perf, "checkpoint_hits");
  m.checkpoint_misses = U(perf, "checkpoint_misses");
  m.explore_micros = U(perf, "explore_micros");
  return m;
}

/// One completed request, as the client saw it.
struct Completion {
  size_t index = 0;  // into the stream
  double latency_ms = 0;
  obs::JsonValue doc;
};

struct LoopResult {
  std::vector<Completion> done;   // completion order
  double wall_s = 0;
  double cpu_s = 0;
  bool transport_ok = true;
  obs::JsonValue stats;
};

/// Drives `stream` through `daemon` with LoadWidth() closed-loop clients
/// until the stream is exhausted or `seconds` have passed.
LoopResult DriveLoop(const std::string& socket_path,
                     const std::vector<StreamItem>& stream, double seconds) {
  LoopResult out;
  std::atomic<size_t> next{0};
  std::mutex mu;
  const double cpu0 = CpuSeconds();
  const auto t0 = Clock::now();
  std::vector<std::jthread> clients;
  for (unsigned c = 0; c < LoadWidth(); ++c) {
    clients.emplace_back([&] {
      auto client_or = service::Client::Connect(socket_path);
      if (!client_or.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        out.transport_ok = false;
        return;
      }
      service::Client client = std::move(client_or).value();
      for (;;) {
        if (Seconds(t0, Clock::now()) >= seconds) break;
        const size_t i = next.fetch_add(1);
        if (i >= stream.size()) break;
        const auto s0 = Clock::now();
        auto doc = client.AnalyzeJson(stream[i].request);
        const auto s1 = Clock::now();
        std::lock_guard<std::mutex> lock(mu);
        if (!doc.ok()) {
          out.transport_ok = false;
          break;
        }
        out.done.push_back({i, Seconds(s0, s1) * 1e3, std::move(doc).value()});
      }
    });
  }
  for (std::jthread& t : clients) t.join();
  out.wall_s = Seconds(t0, Clock::now());
  out.cpu_s = CpuSeconds() - cpu0;
  auto client_or = service::Client::Connect(socket_path);
  if (client_or.ok()) {
    auto stats = client_or.value().Stats();
    if (stats.ok()) out.stats = std::move(stats).value();
  }
  return out;
}

/// Verdict checks: every outcome matches its label, and every repeat of
/// a hot request is byte-identical (deterministic document) to its
/// reference reply.
void CheckLoop(const LoopResult& loop, const std::vector<StreamItem>& stream,
               const std::vector<std::string>& hot_reference,
               Report* report) {
  report->Check(loop.transport_ok, "service_mixed transport");
  for (const Completion& c : loop.done) {
    const StreamItem& item = stream[c.index];
    const obs::JsonValue* ok = c.doc.Find("ok");
    const obs::JsonValue* outcome = c.doc.Find("outcome");
    const obs::JsonValue* matches = c.doc.Find("matches_paper");
    const std::string label =
        item.hot >= 0 ? std::string(kHot[item.hot].bomb)
                      : item.request.corpus_cell;
    const std::string what = "service_mixed " + label + "/" +
                             item.request.profile;
    if (ok == nullptr || !ok->AsBool() || outcome == nullptr) {
      report->Check(false, what + ": request error");
      continue;
    }
    bool good;
    if (item.hot >= 0) {
      good = matches != nullptr && matches->AsBool() &&
             Deterministic(c.doc) ==
                 hot_reference[static_cast<size_t>(item.hot)];
    } else if (item.negative) {
      good = outcome->AsString() != "OK";
    } else {
      good = matches != nullptr && matches->AsBool();
    }
    report->Check(good, what + ": outcome " + std::string(outcome->AsString()));
  }
}

struct Served {
  std::unique_ptr<service::Daemon> daemon;
  std::string socket_path;
  std::vector<std::string> hot_reference;
};

/// Starts a daemon on a private socket in `socket_dir` and
/// warms the hot set, keeping each hot request's reference reply.
bool StartServed(const std::string& socket_dir, int generation,
                 Served* served, Report* report) {
  served->socket_path =
      StrFormat("%s/perfbench-%d-%d.sock", socket_dir.c_str(),
                static_cast<int>(getpid()), generation);
  service::Daemon::Options options;
  options.socket_path = served->socket_path;
  options.jobs = LoadWidth();
  served->daemon = std::make_unique<service::Daemon>(options);
  const Status started = served->daemon->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "daemon start: %s\n", started.ToString().c_str());
    return false;
  }
  auto client_or = service::Client::Connect(served->socket_path);
  if (!client_or.ok()) return false;
  service::Client client = std::move(client_or).value();
  served->hot_reference.clear();
  for (size_t i = 0; i < kHotCount; ++i) {
    auto doc = client.AnalyzeJson(HotRequest(i));
    if (!doc.ok()) return false;
    const obs::JsonValue* matches = doc.value().Find("matches_paper");
    report->Check(matches != nullptr && matches->AsBool(),
                  std::string("service_mixed warm-up ") + kHot[i].bomb);
    served->hot_reference.push_back(Deterministic(doc.value()));
  }
  return true;
}

void StopServed(Served* served) {
  if (served->daemon == nullptr) return;
  served->daemon->Stop();
  served->daemon.reset();
  unlink(served->socket_path.c_str());
}

double WarmBytes(const obs::JsonValue& stats) {
  double bytes = 0;
  if (const obs::JsonValue* warm = stats.Find("warm")) {
    for (const auto& [name, store] : warm->members) {
      if (const obs::JsonValue* b = store.Find("bytes")) {
        bytes += static_cast<double>(b->AsU64());
      }
    }
  }
  return bytes;
}

double WarmEvictions(const obs::JsonValue& stats) {
  double evictions = 0;
  const obs::JsonValue* warm = stats.Find("warm");
  const obs::JsonValue* counters =
      warm != nullptr ? warm->Find("counters") : nullptr;
  if (counters != nullptr) {
    for (const auto& [name, value] : counters->members) {
      if (name.ends_with(".evictions")) {
        evictions += static_cast<double>(value.AsU64());
      }
    }
  }
  return evictions;
}

}  // namespace

bool RunServiceMixed(const Options& options, Report* report) {
  // Enough corpora that the cold half never runs dry: 360 cold requests
  // per corpus, at well over the throughput this loop reaches.
  const size_t corpora =
      options.smoke ? 1
                    : static_cast<size_t>(options.seconds * 600.0 / 360.0) + 1;
  const std::vector<uint64_t> corpus_seeds =
      DeriveSeeds(options.seed, corpora);
  std::printf("service_mixed: daemon jobs %u, %u clients, %zu corpora\n",
              LoadWidth(), LoadWidth(), corpora);

  // Set-up: generate every corpus (process-wide, so the daemon resolves
  // corpus cells without regenerating), then start a daemon and warm the
  // hot set, five times; the last daemon serves the timed phase.
  std::vector<double> generate_s;
  for (uint64_t cs : corpus_seeds) {
    const auto t0 = Clock::now();
    if (corpus::SharedCorpus(cs) == nullptr) return false;
    generate_s.push_back(Seconds(t0, Clock::now()));
  }
  std::vector<StreamItem> stream = BuildStream(options.seed, corpus_seeds);
  if (options.smoke) stream.resize(24);

  if (!options.trace) {
    EndToEnd e;
    Served served;
    std::vector<double> start_s;
    for (int rep = 0; rep < 5; ++rep) {
      StopServed(&served);
      const auto t0 = Clock::now();
      if (!StartServed(options.socket_dir, rep, &served, report)) return false;
      start_s.push_back(Seconds(t0, Clock::now()));
    }
    const double gen = Median(generate_s);
    for (double s : start_s) e.setup_s.push_back(gen + s);
    const LoopResult loop =
        DriveLoop(served.socket_path, stream, options.seconds);
    StopServed(&served);
    CheckLoop(loop, stream, served.hot_reference, report);
    // One unit: the timed phase scaled to one stream block. A run holds
    // only a few blocks, and a median of so few read noisier than this.
    const double blocks = static_cast<double>(loop.done.size()) / kBlock;
    e.unit_wall_s.push_back(loop.wall_s / blocks);
    e.unit_cpu_s.push_back(loop.cpu_s / blocks);
    e.timed_s = loop.wall_s;
    e.analyses = loop.done.size();
    for (const Completion& c : loop.done) e.latency_ms.push_back(c.latency_ms);
    AddEndToEndMetrics(e, report);
    return true;
  }

  // Traced run: the same fixed-length stream through a fresh daemon
  // untraced, then through another fresh daemon with want_trace on.
  LayerTotals totals;
  LayerSink sink;
  ServiceLayer service;
  totals.generate_s = generate_s;
  const size_t traced_length = options.smoke ? stream.size() : 2000;
  std::vector<StreamItem> fixed(stream.begin(),
                                stream.begin() + static_cast<std::ptrdiff_t>(
                                    std::min(traced_length, stream.size())));

  Served served;
  if (!StartServed(options.socket_dir, 0, &served, report)) return false;
  const LoopResult plain = DriveLoop(served.socket_path, fixed, 1e9);
  StopServed(&served);
  CheckLoop(plain, fixed, served.hot_reference, report);
  size_t warm_served = 0;
  std::vector<obs::JsonValue> documents;
  for (const Completion& c : plain.done) {
    const core::EngineMetrics m = WireMetrics(c.doc);
    const double explore_ms = static_cast<double>(m.explore_micros) * 1e-3;
    service.explore_ms.push_back(explore_ms);
    service.wait_ms.push_back(c.latency_ms - explore_ms);
    const obs::JsonValue* perf = c.doc.Find("perf");
    const obs::JsonValue* warm = perf != nullptr ? perf->Find("served_warm")
                                                 : nullptr;
    if (warm != nullptr && warm->AsBool()) ++warm_served;
    documents.push_back(service::RequestToJson(fixed[c.index].request));
    documents.push_back(c.doc);
  }
  const double requests = static_cast<double>(plain.done.size());
  service.warm_frac = static_cast<double>(warm_served) / requests;
  const obs::JsonValue* daemon_stats = plain.stats.Find("daemon");
  service.epochs_per_req =
      static_cast<double>(U(daemon_stats, "service.epochs")) / requests;
  service.warm_bytes = WarmBytes(plain.stats);
  service.warm_evictions = WarmEvictions(plain.stats);
  double busy_s = 0;
  for (const double ms : service.explore_ms) busy_s += ms * 1e-3;
  const double idle_frac = 1.0 - busy_s / (LoadWidth() * plain.wall_s);

  for (StreamItem& item : fixed) item.request.want_trace = true;
  if (!StartServed(options.socket_dir, 1, &served, report)) return false;
  const LoopResult traced = DriveLoop(served.socket_path, fixed, 1e9);
  StopServed(&served);
  CheckLoop(traced, fixed, served.hot_reference, report);
  for (const Completion& c : traced.done) {
    totals.AddEngine(WireMetrics(c.doc));
    if (const obs::JsonValue* lines = c.doc.Find("trace")) {
      for (const obs::JsonValue& line : lines->items) {
        sink.AddJsonLine(line.AsString());
      }
    }
  }

  // Set-up layers and the seed-round replay over the distinct requests.
  std::set<std::string> built;
  std::set<std::pair<std::string, std::string>> replayed;
  for (const StreamItem& item : fixed) {
    const bombs::BombSpec* spec = nullptr;
    if (item.hot >= 0) {
      spec = bombs::FindBomb(item.request.bomb);
    } else {
      const auto corpus = corpus::SharedCorpus(item.request.corpus_seed);
      const corpus::CorpusCell* cell = corpus->Find(item.request.corpus_cell);
      spec = cell != nullptr ? &cell->spec : nullptr;
    }
    if (spec == nullptr) return false;
    const std::string key =
        item.hot >= 0 ? spec->id
                      : StrFormat("%llu:%s",
                                  static_cast<unsigned long long>(
                                      item.request.corpus_seed),
                                  spec->id.c_str());
    if (built.insert(key).second) TimeBuild(*spec, &totals);
    if (!replayed.emplace(key, item.request.profile).second) continue;
    ReplaySeedRound(*spec, *tools::ProfileByName(item.request.profile),
                    &totals);
  }

  std::printf("trace: %zu requests, untraced %.3f s, traced %.3f s\n",
              fixed.size(), plain.wall_s, traced.wall_s);
  AddLayerMetrics(totals, sink, service, idle_frac, WireCodecMicros(documents),
                  traced.wall_s / plain.wall_s - 1.0, report);
  return true;
}

}  // namespace perfbench
