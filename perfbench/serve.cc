// The `serve_lookup` and `serve_mixed` workloads: an in-process
// server::Server on the frozen image with default ServerOptions, driven
// through server::Client connections from this process.
//
// serve_lookup: min(nproc, 4) closed-loop connections send anchored lookups
// (star by feature, chain and snowflake by producer, all properties of one
// product), a fixed share planned in summary mode and a fixed share naming
// a constant absent from the graph. Each does well under a millisecond of
// query work, so request parsing, planning, the plan cache and the wire
// round trip dominate.
//
// serve_mixed: one closed-loop connection drains the unanchored scans
// (snowflake_free, fatstar, fatchain) with parallelism = nproc, while the
// other connections send the lookup mix on a fixed schedule well below what
// serve_lookup sustains, each lookup timed from when it was due. Joins,
// morsel parallelism, Decode and ROW streaming do the work; the lookups
// show what the scans cost everyone else.
//
// Every answer is checked against a local BgpEvaluator on a second
// MmapStore of the same image: lookups must return exactly the rows of the
// local sequential greedy evaluation (the planner-invariance contract), and
// scans the same row count and order-sensitive digest as the sequential
// local drain (the byte-identity contract).

#include <algorithm>
#include <map>
#include <malloc.h>
#include <memory>
#include <random>
#include <sstream>
#include <thread>

#include "query/evaluator.h"
#include "query/sparql_parser.h"
#include "server/client.h"
#include "server/server.h"
#include "store/mmap_store.h"
#include "summary/cardinality.h"
#include "summary/summarizer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace rdfsum;
using query::BgpEvaluator;
using query::PlannerMode;
using server::Client;
using server::QueryRequest;

constexpr const char* kPrefix = "PREFIX b: <http://bsbm.example.org/>\n";
constexpr const char* kRdfType =
    "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>";
constexpr uint8_t kWireGreedy = 1;
constexpr uint8_t kWireSummary = 2;

/// Distinct lookups per run; clients draw from this seeded pool, so every
/// answer can be computed locally before timing starts.
/// The mix is exact, not drawn, so it is the same for every seed: each
/// template a quarter of the pool, one request in kSummaryEvery planned in
/// summary mode, one in kAbsentEvery naming an absent constant.
constexpr size_t kPoolSize = 4096;
constexpr size_t kSummaryEvery = 4;
constexpr size_t kAbsentEvery = 10;
/// Server starts per run, each followed by one timed window; setup_s and
/// the lookup figures are medians over them.
constexpr int kRounds = 5;
constexpr uint32_t kMaxConnections = 4;
/// Scheduled lookups per second per connection in serve_mixed.
constexpr double kMixedLookupRate = 200.0;
/// Cap on the served lookups the traced run replays locally (taken evenly
/// over the traced windows), and on replayed scans per scan query.
constexpr size_t kMaxLookupReplays = 2000;
constexpr size_t kMaxScanReplays = 3;

struct Request {
  std::string cls;  // request class: template/planner, or template/absent
  std::string text;
  uint8_t planner = kWireGreedy;
  uint32_t parallelism = 0;
  bool absent = false;
  uint64_t rows = 0;    // expected
  uint64_t digest = 0;  // expected, order-sensitive
};

void AddRow(Digest* d, const std::vector<std::string>& row) {
  for (const std::string& t : row) {
    d->Add(t);
    d->Add("\t");
  }
  d->Add("\n");
}

query::BgpQuery MustParse(const std::string& text) {
  auto q = query::ParseSparql(text);
  if (!q.ok()) {
    std::fprintf(stderr, "benchmark query does not parse: %s\n%s\n",
                 q.status().ToString().c_str(), text.c_str());
    std::abort();
  }
  return std::move(q).value();
}

/// Sequential greedy local evaluation: the expected answer of `req`.
void Expect(const BgpEvaluator& eval, Request* req) {
  query::BgpQuery q = MustParse(req->text);
  auto cursor = eval.Open(q, PlannerMode::kGreedy);
  Digest d;
  uint64_t n = 0;
  query::IdRow row;
  std::vector<std::string> strings;
  while ((*cursor)->Next(&row)) {
    strings.clear();
    for (const Term& t : eval.Decode(row)) strings.push_back(t.ToNTriples());
    AddRow(&d, strings);
    ++n;
  }
  req->rows = n;
  req->digest = d.h;
}

std::vector<std::string> Column(const BgpEvaluator& eval,
                                const std::string& text) {
  std::vector<std::string> out;
  auto rows = eval.Evaluate(MustParse(text));
  for (const query::Row& r : *rows) out.push_back(r[0].ToNTriples());
  return out;
}

/// The seeded lookup pool: template and constant drawn per request, the
/// constants taken from the image itself.
std::vector<Request> LookupPool(const BgpEvaluator& eval, uint64_t seed) {
  const std::string p = kPrefix;
  const std::vector<std::string> features = Column(
      eval, p + "SELECT ?x WHERE { ?x " + kRdfType + " b:ProductFeature }");
  const std::vector<std::string> producers =
      Column(eval, p + "SELECT ?x WHERE { ?x " + kRdfType + " b:Producer }");
  const std::vector<std::string> products =
      Column(eval, p + "SELECT ?x WHERE { ?x " + kRdfType + " b:Product }");
  struct Template {
    const char* name;
    const std::vector<std::string>* constants;
    std::string before, after;
  };
  const Template templates[] = {
      {"star", &features,
       "SELECT ?p ?l ?pr WHERE { ?p b:label ?l . ?p b:producer ?pr . "
       "?p b:productFeature ",
       " }"},
      {"chain", &producers,
       "SELECT ?o ?d WHERE { ?o b:offerProduct ?p . ?o b:deliveryDays ?d . "
       "?p b:producer ",
       " }"},
      {"snowflake", &producers,
       "SELECT ?r ?price WHERE { ?r b:reviewFor ?p . ?r b:reviewer ?x . "
       "?x b:country ?c . ?o b:offerProduct ?p . ?o b:price ?price . "
       "?p b:producer ",
       " }"},
      {"product", &products, "SELECT ?prop ?v WHERE { ", " ?prop ?v }"},
  };
  std::mt19937_64 rng(seed);
  std::vector<Request> pool;
  for (size_t i = 0; i < kPoolSize; ++i) {
    const Template& t = templates[i % std::size(templates)];
    const size_t k = i / std::size(templates);
    Request req;
    req.planner = k % kSummaryEvery == 1 ? kWireSummary : kWireGreedy;
    req.absent = k % kAbsentEvery == kAbsentEvery - 1;
    std::string constant =
        req.absent || t.constants->empty()
            ? "<http://bsbm.example.org/absent/" + std::to_string(rng()) + ">"
            : (*t.constants)[rng() % t.constants->size()];
    req.cls = std::string(t.name) + "/" +
              (req.absent ? "absent"
                          : req.planner == kWireSummary ? "summary" : "greedy");
    req.text = p + t.before + constant + t.after;
    Expect(eval, &req);
    pool.push_back(std::move(req));
  }
  return pool;
}

constexpr uint32_t kScanQueries = 3;

std::vector<Request> Scans(const BgpEvaluator& eval) {
  const std::string p = kPrefix;
  std::vector<Request> scans = {
      {"snowflake_free",
       p + "SELECT ?r ?price WHERE { ?r b:reviewFor ?p . ?r b:reviewer ?x . "
           "?x b:country ?c . ?o b:offerProduct ?p . ?o b:price ?price }"},
      {"fatstar", p + "SELECT ?r ?price WHERE { ?r b:reviewFor ?p . "
                      "?o b:offerProduct ?p . ?o b:price ?price }"},
      {"fatchain",
       p + "SELECT ?o ?price WHERE { ?o b:offerProduct ?p . ?o b:price ?price }"},
  };
  for (Request& s : scans) {
    s.parallelism = Nproc();
    Expect(eval, &s);
  }
  return scans;
}

/// One served request as the client saw it.
struct Served {
  uint32_t index = 0;  // into the pool (lookups) or scan list
  uint64_t id = 0;
  int64_t due_ns = 0, start_ns = 0, first_ns = 0, end_ns = 0;
  uint64_t rows = 0;
  bool ok = false;
};

/// One client connection with everything its thread records.
struct Conn {
  std::unique_ptr<Client> client;
  SpanBuffer plain{false};
  SpanBuffer traced{true};
  std::vector<Served> served;
  uint64_t failed = 0;
  std::vector<std::string> errors;
};

/// Sends `req`, checks the answer, and records the exchange.
Served Issue(Conn& c, const Request& req, SpanBuffer& buf, uint64_t id,
             int64_t due_ns) {
  Served s;
  s.id = id;
  QueryRequest wire;
  wire.planner = req.planner;
  wire.parallelism = req.parallelism;
  Digest d;
  Scoped root(buf, "bench.request", id);
  s.start_ns = NowNs();
  s.due_ns = due_ns ? due_ns : s.start_ns;
  Status st;
  {
    Scoped call(buf, "server.query", id);
    st = c.client->Query(
        req.text, wire,
        [&](const std::vector<std::string>& row) {
          if (s.first_ns == 0) s.first_ns = NowNs();
          AddRow(&d, row);
          return true;
        },
        &s.rows);
  }
  s.end_ns = NowNs();
  if (s.first_ns == 0) s.first_ns = s.end_ns;
  s.ok = st.ok() && s.rows == req.rows && d.h == req.digest;
  if (!s.ok) {
    ++c.failed;
    if (c.errors.size() < 4) {
      c.errors.push_back(req.cls + ": " +
                         (st.ok() ? "wrong answer (" + std::to_string(s.rows) +
                                        " rows, expected " +
                                        std::to_string(req.rows) + ")"
                                  : st.ToString()));
    }
  }
  return s;
}

/// STATS text as key -> value (the numeric prefix of each value).
std::map<std::string, double> ParseStats(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const size_t colon = line.find(": ");
    if (colon == std::string::npos) continue;
    std::string value = line.substr(colon + 2);
    // "summary_mint_W: ok 1.25s" -> 1.25
    if (value.rfind("ok ", 0) == 0) value = value.substr(3);
    out[line.substr(0, colon)] = std::strtod(value.c_str(), nullptr);
  }
  return out;
}

std::map<std::string, double> Stats(Client& c) {
  auto text = c.Stats();
  return text.ok() ? ParseStats(*text) : std::map<std::string, double>{};
}

double Delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after, const char* key) {
  auto a = after.find(key), b = before.find(key);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

/// What a timed window produced, per kind of request.
struct Window {
  std::vector<Served> lookups, scans;
  int64_t start_ns = 0, end_ns = 0;
  std::map<std::string, double> before, after;  // STATS around the window
};

/// The local side: a second store on the same image, its evaluator, and
/// (traced runs only) the summary estimator for replaying summary plans.
struct Local {
  std::unique_ptr<store::MmapStore> store;
  std::optional<Graph> graph;
  std::optional<summary::CardinalityEstimator> estimator;
  std::optional<BgpEvaluator> eval;
};

struct ServeRun {
  ServeRun(const Options& o, bool m, Result& res) : opt(o), mixed(m), r(res) {}

  const Options& opt;
  bool mixed;
  Result& r;
  Local local;
  std::vector<Request> pool, scans;
  std::unique_ptr<server::Server> server;
  std::vector<Conn> conns;
  Trace trace;
  uint64_t next_id = 1;

  /// Moves the failures and traced spans the current connections recorded
  /// into the result and the run's trace.
  void Harvest() {
    for (Conn& c : conns) {
      trace.Add(c.traced);
      c.traced = SpanBuffer(true);
      r.failed += c.failed;
      c.failed = 0;
      for (std::string& e : c.errors) {
        if (r.errors.size() < 8) r.errors.push_back(std::move(e));
      }
      c.errors.clear();
    }
  }

  Status Connect(size_t n) {
    Harvest();
    conns.clear();
    conns.resize(n);
    for (Conn& c : conns) {
      auto client = Client::Connect("127.0.0.1", server->port());
      if (!client.ok()) return client.status();
      c.client = std::move(client).value();
    }
    return Status::OK();
  }

  /// One set-up: start the server on the image and send one request of
  /// every class (the first summary-planned one mints the summary).
  Status Setup(Samples* setup, Samples* mint) {
    if (server) {
      Harvest();
      conns.clear();
      server->Stop();
      server->Wait();
      server.reset();
      // Start each set-up from a trimmed heap, so what the previous one
      // left in the allocator's free lists does not add to the peak.
      malloc_trim(0);
    }
    const int64_t t0 = NowNs();
    server = std::make_unique<server::Server>();
    RDFSUM_RETURN_IF_ERROR(server->Start(opt.image));
    RDFSUM_RETURN_IF_ERROR(Connect(1));
    std::map<std::string, bool> seen;
    auto warm = [&](const Request& req) {
      if (seen[req.cls]) return;
      seen[req.cls] = true;
      ++r.attempted;
      Issue(conns[0], req, conns[0].plain, next_id++, 0);
    };
    for (const Request& req : pool) warm(req);
    if (mixed) {
      for (const Request& req : scans) warm(req);
    }
    setup->Add(NsToS(NowNs() - t0));
    auto stats = Stats(*conns[0].client);
    mint->Add(stats["summary_mint_W"]);
    return Status::OK();
  }

  void Lookups(Conn& c, SpanBuffer& buf, uint64_t thread, int64_t start,
               int64_t end) {
    std::mt19937_64 rng(opt.seed * 7919 + thread);
    const int64_t period =
        mixed ? static_cast<int64_t>(1e9 / kMixedLookupRate) : 0;
    for (int64_t k = 0;; ++k) {
      int64_t due = 0;
      if (mixed) {
        due = start + k * period;
        if (due >= end) break;
        while (NowNs() < due) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs()));
        }
      } else if (NowNs() >= end) {
        break;
      }
      const uint32_t index = static_cast<uint32_t>(rng() % pool.size());
      Served s = Issue(c, pool[index], buf, ((thread + 1) << 40) | k, due);
      s.index = index;
      c.served.push_back(s);
    }
  }

  void ScanLoop(Conn& c, SpanBuffer& buf, uint64_t thread, int64_t end) {
    for (uint64_t k = 0; NowNs() < end; ++k) {
      const uint32_t index = static_cast<uint32_t>(k % scans.size());
      Served s = Issue(c, scans[index], buf, ((thread + 1) << 40) | k, 0);
      s.index = index;
      c.served.push_back(s);
    }
  }

  Window Run(double seconds, bool traced) {
    Window w;
    for (Conn& c : conns) c.served.clear();
    w.before = Stats(*conns[0].client);
    w.start_ns = NowNs();
    const int64_t end = w.start_ns + static_cast<int64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < conns.size(); ++i) {
      threads.emplace_back([&, i] {
        Conn& c = conns[i];
        SpanBuffer& buf = traced ? c.traced : c.plain;
        if (mixed && i == 0) {
          ScanLoop(c, buf, i, end);
        } else {
          Lookups(c, buf, i, w.start_ns, end);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    w.end_ns = NowNs();
    w.after = Stats(*conns[0].client);
    for (size_t i = 0; i < conns.size(); ++i) {
      auto& dst = mixed && i == 0 ? w.scans : w.lookups;
      dst.insert(dst.end(), conns[i].served.begin(), conns[i].served.end());
    }
    return w;
  }
};

Samples Latencies(const std::vector<Served>& served, bool from_due) {
  Samples s;
  for (const Served& x : served) {
    s.Add(NsToMs(x.end_ns - (from_due ? x.due_ns : x.start_ns)));
  }
  return s;
}

Samples FirstRows(const std::vector<Served>& served) {
  Samples s;
  for (const Served& x : served) s.Add(NsToMs(x.first_ns - x.start_ns));
  return s;
}

std::vector<Served> Pooled(const std::vector<Window>& windows,
                           std::vector<Served> Window::*which) {
  std::vector<Served> out;
  for (const Window& w : windows) {
    out.insert(out.end(), (w.*which).begin(), (w.*which).end());
  }
  return out;
}

/// A STATS counter's growth summed over the windows.
double Delta(const std::vector<Window>& windows, const char* key) {
  double sum = 0;
  for (const Window& w : windows) sum += Delta(w.before, w.after, key);
  return sum;
}

/// The end-to-end metrics of the untraced windows. Lookup figures are taken
/// per window and reported as the median over windows; scans are too few
/// per window for that and are pooled.
void Report(const std::vector<Window>& windows, bool mixed, Result& r) {
  Samples p50, p95, p99, qps, first;
  for (const Window& w : windows) {
    const Samples lookup = Latencies(w.lookups, mixed);
    p50.Add(lookup.Median());
    p95.Add(lookup.Percentile(0.95));
    p99.Add(lookup.Percentile(0.99));
    qps.Add(w.lookups.size() / NsToS(w.end_ns - w.start_ns));
    first.Add(FirstRows(w.lookups).Median());
  }
  const std::vector<Served> lookups = Pooled(windows, &Window::lookups);
  const size_t n = lookups.size();
  r.Add("lookup_p50_ms", p50.Median(), "ms", n);
  r.Add("lookup_p95_ms", p95.Median(), "ms", n);
  r.Add("lookup_p99_ms", p99.Median(), "ms", n);
  if (!mixed) {
    r.Add("lookup_qps", qps.Median(), "req/s", n);
    r.Add("lookup_first_row_p50_ms", first.Median(), "ms", n);
    return;
  }
  // The three scan queries differ several-fold in size, so a median over
  // all scans would jump between queries; each query gets its own median
  // and the figure is their mean.
  const std::vector<Served> scans = Pooled(windows, &Window::scans);
  const Samples scan = Latencies(scans, false);
  double rows = 0, scan_p50 = 0, scan_first = 0;
  for (const Served& s : scans) rows += static_cast<double>(s.rows);
  for (uint32_t q = 0; q < kScanQueries; ++q) {
    std::vector<Served> of;
    for (const Served& s : scans) {
      if (s.index == q) of.push_back(s);
    }
    scan_p50 += Latencies(of, false).Median() / kScanQueries;
    scan_first += FirstRows(of).Median() / kScanQueries;
  }
  r.Add("scan_rows_per_s", rows / (scan.Sum() / 1e3), "rows/s", scan.size());
  r.Add("scan_p50_ms", scan_p50, "ms", scan.size());
  r.Add("scan_first_row_ms", scan_first, "ms", scan.size());

  Samples late;
  for (const Served& s : lookups) late.Add(NsToMs(s.start_ns - s.due_ns));
  r.Add("bench.generator_late_p99_ms", late.Percentile(0.99), "ms",
        late.size());
}

/// Plan/open/drain/decode of one request on the local evaluator, with the
/// served request's id on every span.
struct Replay {
  double plan_us = 0, open_us = 0, first_row_ms = 0, drain_ms = 0,
         decode_ms = 0;
  uint64_t rows = 0;
};

Replay ReplayOne(const BgpEvaluator& eval, const Request& req, SpanBuffer& buf,
                 uint64_t id) {
  Replay out;
  Scoped root(buf, "bench.replay", id);
  query::BgpQuery q;
  {
    Scoped s(buf, "query.parse", id);
    q = MustParse(req.text);
  }
  const PlannerMode mode =
      req.planner == kWireSummary ? PlannerMode::kSummary : PlannerMode::kGreedy;
  int64_t t = NowNs();
  query::QueryPlan plan;
  {
    Scoped s(buf, "query.plan", id);
    plan = eval.Plan(q, mode);
  }
  out.plan_us = NsToMs(NowNs() - t) * 1e3;
  query::CursorOptions copts;
  copts.parallelism = req.parallelism ? req.parallelism : 1;
  std::vector<query::IdRow> rows;
  std::unique_ptr<query::Cursor> cursor;
  t = NowNs();
  {
    Scoped s(buf, "query.open", id);
    cursor = std::move(eval.Open(q, plan, copts)).value();
  }
  out.open_us = NsToMs(NowNs() - t) * 1e3;
  {
    Scoped s(buf, "query.drain", id);
    query::IdRow row;
    while (cursor->Next(&row)) {
      if (rows.empty()) out.first_row_ms = NsToMs(NowNs() - t);
      rows.push_back(row);
    }
    cursor.reset();
  }
  out.drain_ms = NsToMs(NowNs() - t);
  if (rows.empty()) out.first_row_ms = out.drain_ms;
  out.rows = rows.size();
  t = NowNs();
  {
    Scoped s(buf, "query.decode", id);
    for (const query::IdRow& row : rows) eval.Decode(row);
  }
  out.decode_ms = NsToMs(NowNs() - t);
  return out;
}

/// Rows produced by every operator of the executed tree, and the q-error
/// of the plan's final estimate against the true embedding count.
struct Examined {
  double operator_rows = 0, results = 0, qerror = 1;
};

Examined ExplainOne(const BgpEvaluator& eval, const Request& req,
                    SpanBuffer& buf, uint64_t id) {
  Scoped s(buf, "query.explain", id);
  const PlannerMode mode =
      req.planner == kWireSummary ? PlannerMode::kSummary : PlannerMode::kGreedy;
  auto ex = eval.Explain(MustParse(req.text), mode);
  Examined out;
  if (!ex.ok()) return out;
  for (const query::OperatorStats& op : ex->operators) {
    out.operator_rows += static_cast<double>(op.rows_produced);
  }
  out.results = static_cast<double>(ex->num_result_rows);
  const double est = std::max(
      1.0, ex->plan.steps.empty() ? 0.0 : ex->plan.steps.back().estimated_rows);
  const double act = std::max<double>(1.0, ex->num_embeddings);
  out.qerror = std::max(est / act, act / est);
  return out;
}

/// Drain time of `req` at `parallelism` (best of two), no decode.
double DrainMs(const BgpEvaluator& eval, const Request& req,
               uint32_t parallelism) {
  const query::BgpQuery q = MustParse(req.text);
  query::CursorOptions copts;
  copts.parallelism = parallelism;
  double best = 1e300;
  for (int rep = 0; rep < 2; ++rep) {
    const int64_t t = NowNs();
    auto cursor = eval.Open(q, PlannerMode::kGreedy, copts);
    query::IdRow row;
    while ((*cursor)->Next(&row)) {
    }
    best = std::min(best, NsToMs(NowNs() - t));
  }
  return best;
}

}  // namespace

Result RunServe(const Options& opt, bool mixed) {
  Result r;
  r.workload = mixed ? "serve_mixed" : "serve_lookup";
  r.traced = opt.trace;
  ServeRun run(opt, mixed, r);
  SpanBuffer local_buf(opt.trace);

  auto opened = store::MmapStore::Open(opt.image);
  if (!opened.ok()) {
    r.attempted = 1;
    r.Fail("local open: " + opened.status().ToString());
    return r;
  }
  Local& local = run.local;
  local.store = std::move(opened).value();
  if (opt.trace) {
    // Replaying summary-planned requests needs the estimator the server
    // mints: the weak summary of the image's graph.
    {
      Scoped s(local_buf, "store.to_graph", 0);
      local.graph.emplace(std::move(local.store->ToGraph()).value());
    }
    summary::SummaryResult weak;
    {
      Scoped s(local_buf, "summary.W", 0);
      weak = summary::Summarize(*local.graph, summary::SummaryKind::kWeak);
    }
    Scoped s(local_buf, "summary.estimator", 0);
    local.estimator.emplace(*local.graph, weak);
  }
  query::EvaluatorOptions eo;
  eo.estimator = local.estimator ? &*local.estimator : nullptr;
  local.eval.emplace(local.store->dict(), local.store->table(), eo);
  const BgpEvaluator& eval = *local.eval;

  run.pool = LookupPool(eval, opt.seed);
  if (mixed) run.scans = Scans(eval);
  if (opt.inject_wrong_answer) {
    run.pool[0].digest ^= 1;
    if (mixed) run.scans[0].digest ^= 1;
  }

  // Each round starts a fresh server and measures one window on it. Lookup
  // throughput moved by up to a quarter from one run to the next, so a run
  // spreads its measurement over several server lifetimes and takes the
  // median. The untraced windows give the end-to-end metrics; a traced run
  // follows each with a traced window of the same length (the untraced
  // ones are the overhead baseline).
  // serve_mixed needs the scan connection plus at least one lookup one.
  const uint32_t connections =
      std::max<uint32_t>(mixed ? 2 : 1, std::min(Nproc(), kMaxConnections));
  const double window_s = (opt.trace ? opt.seconds / 2 : opt.seconds) / kRounds;
  Samples setup, mint;
  std::vector<Window> plain, traced;
  for (int i = 0; i < kRounds; ++i) {
    Status s = run.Setup(&setup, &mint);
    if (s.ok()) s = run.Connect(connections);
    if (!s.ok()) {
      r.Fail("setup: " + s.ToString());
      return r;
    }
    plain.push_back(run.Run(window_s, false));
    if (opt.trace) traced.push_back(run.Run(window_s, true));
  }

  r.Add("setup_s", setup.Median(), "s", setup.size());
  Report(plain, mixed, r);
  r.inputs = {{"triples", static_cast<double>(
                              local.store->image().meta().num_triples)},
              {"image_bytes", static_cast<double>(local.store->image().size())},
              {"nt_bytes", opt.input_bytes},
              {"connections", static_cast<double>(run.conns.size())}};
  r.Add("image_bytes_per_input_byte",
        static_cast<double>(local.store->image().size()) / opt.input_bytes,
        "B/B", 1);

  if (opt.trace) {
    auto which = mixed ? &Window::scans : &Window::lookups;
    const std::vector<Served> traced_lookups = Pooled(traced, &Window::lookups);
    const std::vector<Served> traced_scans = Pooled(traced, &Window::scans);
    const Samples base = Latencies(Pooled(plain, which), false);
    const Samples with = Latencies(Pooled(traced, which), false);
    r.Add(std::string("bench.trace_overhead.") + r.workload,
          with.Median() / base.Median(), "ratio", with.size());
    auto delta = [&](const char* key) { return Delta(traced, key); };
    if (!mixed) {
      // Server phase means per lookup; wire is the client latency the
      // server's phases do not cover, so the four add up to the mean.
      const double n = delta("phase_exec_count");
      const double parse = delta("phase_parse_total_us") / n;
      const double plan = delta("phase_plan_total_us") / n;
      const double exec = delta("phase_exec_total_us") / n;
      const Samples lat = Latencies(traced_lookups, false);
      r.Add("server.parse_us", parse, "us", n);
      r.Add("server.plan_us", plan, "us", n);
      r.Add("server.exec_us", exec, "us", n);
      r.Add("server.wire_us", lat.Mean() * 1e3 - parse - plan - exec, "us",
            lat.size());
      r.Add("bench.lookup_mean_us", lat.Mean() * 1e3, "us", lat.size());
      const double hits = delta("plan_cache_hits");
      const double lookups = hits + delta("plan_cache_misses");
      r.Add("server.plan_cache_hit_ratio", hits / lookups, "ratio", lookups);
      r.Add("server.plan_cache_lookups", lookups, "count", 1);
      r.Add("server.mint_s", mint.Median(), "s", mint.size());
    } else {
      r.Add("server.admission_rejected", delta("admission_rejected"),
            "count", 1);
      r.Add("server.parallel_queries", delta("parallel_queries"),
            "count", 1);
      r.Add("server.parallel_slots_trimmed",
            delta("parallel_slots_trimmed"), "count", 1);
    }

    // Local replay of the traced windows' requests, same ids.
    if (!mixed) {
      const size_t n = traced_lookups.size();
      const size_t stride = std::max<size_t>(1, (n + kMaxLookupReplays - 1) /
                                                    kMaxLookupReplays);
      Samples plan_greedy, plan_summary, open, qe_greedy, qe_summary;
      double operator_rows = 0, results = 0;
      for (size_t i = 0; i < n; i += stride) {
        const Served& s = traced_lookups[i];
        const Request& req = run.pool[s.index];
        Replay rep = ReplayOne(eval, req, local_buf, s.id);
        (req.planner == kWireSummary ? plan_summary : plan_greedy)
            .Add(rep.plan_us);
        open.Add(rep.open_us);
        if (req.absent) continue;
        Examined ex = ExplainOne(eval, req, local_buf, s.id);
        operator_rows += ex.operator_rows;
        results += ex.results;
        (req.planner == kWireSummary ? qe_summary : qe_greedy).Add(ex.qerror);
      }
      r.Add("query.plan_us.greedy", plan_greedy.Median(), "us",
            plan_greedy.size());
      r.Add("query.plan_us.summary", plan_summary.Median(), "us",
            plan_summary.size());
      r.Add("query.open_us", open.Median(), "us", open.size());
      r.Add("query.rows_examined_per_result.lookup",
            operator_rows / std::max(1.0, results), "ratio",
            qe_greedy.size() + qe_summary.size());
      r.Add("query.qerror_p50.greedy", qe_greedy.Median(), "ratio",
            qe_greedy.size());
      r.Add("query.qerror_p50.summary", qe_summary.Median(), "ratio",
            qe_summary.size());
    } else {
      Samples first, drain, decode;
      std::vector<size_t> replayed(run.scans.size(), 0);
      for (const Served& s : traced_scans) {
        if (replayed[s.index]++ >= kMaxScanReplays) continue;
        Replay rep = ReplayOne(eval, run.scans[s.index], local_buf, s.id);
        first.Add(rep.first_row_ms);
        drain.Add(rep.drain_ms);
        decode.Add(rep.decode_ms);
      }
      r.Add("query.first_row_ms", first.Median(), "ms", first.size());
      r.Add("query.drain_ms", drain.Median(), "ms", drain.size());
      r.Add("query.decode_ms", decode.Median(), "ms", decode.size());

      // Each scan alone on the idle server: its server exec time against
      // the local drain + decode of the same scan at the same fan-out, and
      // the t1 vs nproc drain ratio.
      double server_ms = 0, local_ms = 0, t1_ms = 0, tn_ms = 0;
      double operator_rows = 0, results = 0;
      Conn& c = run.conns[0];
      for (const Request& scan : run.scans) {
        auto before = Stats(*c.client);
        ++r.attempted;
        Served s = Issue(c, scan, local_buf, run.next_id++, 0);
        auto after = Stats(*c.client);
        server_ms += Delta(before, after, "phase_exec_total_us") / 1e3;
        Replay rep = ReplayOne(eval, scan, local_buf, s.id);
        local_ms += rep.drain_ms + rep.decode_ms;
        t1_ms += DrainMs(eval, scan, 1);
        tn_ms += DrainMs(eval, scan, Nproc());
        Examined ex = ExplainOne(eval, scan, local_buf, s.id);
        operator_rows += ex.operator_rows;
        results += ex.results;
      }
      r.Add("server.stream_overhead_ratio", server_ms / local_ms, "ratio",
            run.scans.size());
      r.Add("query.parallel_speedup", t1_ms / tn_ms, "ratio",
            run.scans.size());
      r.Add("query.parallel_t1_drain_ms", t1_ms, "ms", run.scans.size());
      r.Add("query.rows_examined_per_result.scan",
            operator_rows / std::max(1.0, results), "ratio", run.scans.size());
    }

    run.Harvest();
    run.trace.Add(local_buf);
    r.layers = run.trace.ByLayer();
    r.spans = run.trace.ByName();
    if (!opt.trace_out.empty()) run.trace.Write(opt.trace_out);
  }

  for (const std::vector<Window>* ws : {&plain, &traced}) {
    for (const Window& w : *ws) r.attempted += w.lookups.size() + w.scans.size();
  }
  run.Harvest();
  run.conns.clear();
  run.server->Stop();
  run.server->Wait();
  r.Add("failed_frac",
        static_cast<double>(r.failed) / static_cast<double>(r.attempted),
        "ratio", r.attempted);
  r.Add("peak_rss_mb", PeakRssMb(), "MB", 1);
  return r;
}

}  // namespace perfbench
