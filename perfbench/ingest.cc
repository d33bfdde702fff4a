// The `ingest` workload and the input preparation shared by all workloads.
//
// One pass is the whole write side of the system on the seeded BSBM file:
// NTriplesParser::ParseFile -> Graph::Dense -> store::FreezeGraphToFile ->
// MmapStore::Open (checksums on) -> ToGraph -> summary::TrySummarize for
// W, S, TW and TS, parse/freeze/summarize at nproc threads. io, rdf, store
// and summary do nearly all the work; query and server do none.
//
// Checks, each a failed attempt when it does not hold: every pass writes a
// byte-identical image, and the summaries computed from the image equal the
// summaries of the parsed graph (serialized bytes and node/edge counts).

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "gen/bsbm.h"
#include "io/ntriples_parser.h"
#include "io/ntriples_writer.h"
#include "rdf/frozen_image.h"
#include "store/mmap_store.h"
#include "summary/summarizer.h"
#include "workloads.h"

namespace perfbench {

using namespace rdfsum;

uint32_t Nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

namespace {

constexpr summary::SummaryKind kKinds[] = {
    summary::SummaryKind::kWeak, summary::SummaryKind::kStrong,
    summary::SummaryKind::kTypedWeak, summary::SummaryKind::kTypedStrong};
constexpr const char* kKindSpan[] = {"summary.W", "summary.S", "summary.TW",
                                     "summary.TS"};
constexpr const char* kKindName[] = {"W", "S", "TW", "TS"};

/// Setup passes run before timing; setup_s is their median wall.
constexpr int kSetupPasses = 2;
/// Fewest timed passes per measured phase, even when --seconds is short.
constexpr int kMinPasses = 2;

struct SummaryCheck {
  uint64_t digest = 0;
  uint64_t nodes = 0;
  uint64_t edges = 0;
  bool operator==(const SummaryCheck&) const = default;
};

SummaryCheck CheckOf(const summary::SummaryResult& r) {
  Digest d;
  d.Add(io::NTriplesWriter::ToString(r.graph));
  return {d.h, r.stats.num_all_nodes, r.stats.num_all_edges};
}

uint64_t FileDigest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  Digest d;
  d.Add(buf.str());
  return d.h;
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(n);
}

struct Pass {
  std::string error;  // empty when every call succeeded
  int64_t wall_ns = 0;       // pass wall, excluding the answer checks
  int64_t queryable_ns = 0;  // pass start -> image open (queries possible)
  io::ParseStats parse;
  double freeze_sort_s = 0.0;
  SummaryCheck summaries[4];
  uint64_t triples = 0;
  uint64_t image_bytes = 0, perm_bytes = 0, dict_bytes = 0, dense_bytes = 0;
};

uint64_t SectionSum(const FrozenImage& img, std::initializer_list<int> ids) {
  uint64_t n = 0;
  for (int id : ids) n += img.SectionBytes(static_cast<SectionId>(id)).size();
  return n;
}

Pass RunPass(const Options& opt, const std::string& image_path,
             uint32_t threads, SpanBuffer& buf, uint64_t id) {
  Pass r;
  const int64_t t0 = NowNs();
  int64_t check_ns = 0;
  Scoped pass(buf, "bench.pass", id);
  std::unique_ptr<store::MmapStore> st;
  {
    Graph g;
    {
      Scoped s(buf, "io.parse", id);
      io::ParseOptions po;
      po.num_threads = threads;
      Status status = io::NTriplesParser::ParseFile(opt.nt, &g, &r.parse, po);
      if (!status.ok()) r.error = "parse: " + status.ToString();
    }
    if (!r.error.empty()) return r;
    {
      Scoped s(buf, "rdf.dense", id);
      g.Dense();
    }
    {
      Scoped s(buf, "store.freeze", id);
      store::FreezeOptions fo;
      fo.num_threads = threads;
      fo.freeze_seconds = &r.freeze_sort_s;
      Status status = store::FreezeGraphToFile(g, image_path, fo);
      if (!status.ok()) r.error = "freeze: " + status.ToString();
    }
    if (!r.error.empty()) return r;
    Scoped s(buf, "rdf.release", id);
    Graph drop = std::move(g);
  }
  {
    Scoped s(buf, "store.open", id);
    auto opened = store::MmapStore::Open(image_path);
    if (!opened.ok()) {
      r.error = "open: " + opened.status().ToString();
      return r;
    }
    st = std::move(opened).value();
  }
  r.queryable_ns = NowNs() - t0;
  {
    std::optional<Graph> g;
    {
      Scoped s(buf, "store.to_graph", id);
      auto got = st->ToGraph();
      if (!got.ok()) {
        r.error = "to_graph: " + got.status().ToString();
        return r;
      }
      g.emplace(std::move(got).value());
    }
    for (int k = 0; k < 4; ++k) {
      auto res = [&] {
        Scoped s(buf, kKindSpan[k], id);
        summary::SummaryOptions so;
        so.num_threads = threads;
        return summary::TrySummarize(*g, kKinds[k], so);
      }();
      if (!res.ok()) {
        r.error = std::string("summarize ") + kKindName[k] + ": " +
                  res.status().ToString();
        return r;
      }
      // Serializing the summary for the check needs the store's dictionary,
      // so it runs here; its time is taken out of the pass wall.
      const int64_t c0 = NowNs();
      {
        Scoped check(buf, "bench.check", id);
        r.summaries[k] = CheckOf(*res);
      }
      check_ns += NowNs() - c0;
    }
    const FrozenImage& img = st->image();
    r.triples = img.meta().num_triples;
    r.image_bytes = img.size();
    r.perm_bytes = SectionSum(img, {5, 6, 7, 8});
    r.dict_bytes = SectionSum(img, {2, 3, 4});
    r.dense_bytes = SectionSum(img, {11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
                                     21, 22, 23, 24, 25});
    Scoped s(buf, "store.close", id);
    g.reset();
    st.reset();
  }
  r.wall_ns = NowNs() - t0 - check_ns;
  return r;
}

/// Span duration by name for one pass (the traced run's per-call times).
double SpanSeconds(const SpanBuffer& buf, uint64_t id, std::string_view name) {
  double s = 0.0;
  for (const Span& sp : buf.spans()) {
    if (sp.request == id && name == sp.name) s += NsToS(sp.end_ns - sp.start_ns);
  }
  return s;
}

}  // namespace

Result Prep(const Options& opt) {
  Result r;
  r.workload = "prep";
  gen::BsbmOptions bo;
  bo.num_products = gen::BsbmProductsForTriples(opt.triples);
  bo.seed = opt.seed;
  {
    Graph g = gen::GenerateBsbm(bo);
    r.inputs.push_back({"triples", static_cast<double>(g.NumTriples())});
    ++r.attempted;
    Status s = io::NTriplesWriter::WriteFile(g, opt.nt);
    if (!s.ok()) r.Fail("write: " + s.ToString());
  }
  r.inputs.push_back({"nt_bytes", static_cast<double>(FileBytes(opt.nt))});
  if (!opt.image.empty() && r.failed == 0) {
    // Served images come from the same path users take: parse the file,
    // freeze what was parsed.
    Graph g;
    io::ParseOptions po;
    po.num_threads = Nproc();
    ++r.attempted;
    Status s = io::NTriplesParser::ParseFile(opt.nt, &g, nullptr, po);
    store::FreezeOptions fo;
    fo.num_threads = Nproc();
    if (s.ok()) s = store::FreezeGraphToFile(g, opt.image, fo);
    if (!s.ok()) r.Fail("load/freeze: " + s.ToString());
    r.inputs.push_back(
        {"image_bytes", static_cast<double>(FileBytes(opt.image))});
  }
  return r;
}

Result RunIngest(const Options& opt) {
  Result r;
  r.workload = "ingest";
  r.traced = opt.trace;
  const uint32_t threads = Nproc();
  const std::string image_path = opt.work + "/ingest.rsb";
  const double nt_bytes = static_cast<double>(FileBytes(opt.nt));

  // Parse-path reference: the summaries of the freshly parsed graph, which
  // every pass's image-path summaries must reproduce.
  SummaryCheck reference[4];
  {
    Graph g;
    io::ParseOptions po;
    po.num_threads = threads;
    Status s = io::NTriplesParser::ParseFile(opt.nt, &g, nullptr, po);
    if (!s.ok()) {
      r.attempted = 1;
      r.Fail("reference parse: " + s.ToString());
      return r;
    }
    for (int k = 0; k < 4; ++k) {
      summary::SummaryOptions so;
      so.num_threads = threads;
      reference[k] = CheckOf(summary::Summarize(g, kKinds[k], so));
    }
    if (opt.inject_wrong_answer) reference[0].digest ^= 1;
  }

  SpanBuffer untraced(false);
  SpanBuffer traced(true);
  uint64_t image_digest = 0;
  uint64_t pass_id = 0;
  auto run_checked = [&](SpanBuffer& buf) {
    ++r.attempted;
    Pass p = RunPass(opt, image_path, threads, buf, pass_id++);
    if (!p.error.empty()) {
      r.Fail(p.error);
      return p;
    }
    const uint64_t d = FileDigest(image_path);
    if (image_digest == 0) image_digest = d;
    if (d != image_digest) r.Fail("image bytes differ from the first pass");
    for (int k = 0; k < 4; ++k) {
      if (!(p.summaries[k] == reference[k])) {
        r.Fail(std::string("image-path summary ") + kKindName[k] +
               " differs from the parse path");
      }
    }
    return p;
  };

  Samples setup;
  for (int i = 0; i < kSetupPasses; ++i) {
    setup.Add(NsToS(run_checked(untraced).wall_ns));
  }

  // Untraced passes give the end-to-end metrics. A traced run spends half
  // its time untraced (the overhead baseline) and half traced.
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::vector<Pass> plain, spanned;
  auto timed = [&](SpanBuffer& buf, double seconds, std::vector<Pass>* out) {
    const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
    while (out->size() < static_cast<size_t>(kMinPasses) || NowNs() < end) {
      Pass p = run_checked(buf);
      if (!p.error.empty()) break;
      out->push_back(std::move(p));
    }
  };
  timed(untraced, untraced_s, &plain);
  if (opt.trace) timed(traced, opt.seconds / 2, &spanned);
  if (plain.empty() || (opt.trace && spanned.empty())) return r;

  Samples wall, queryable;
  for (const Pass& p : plain) {
    wall.Add(NsToMs(p.wall_ns));
    queryable.Add(NsToMs(p.queryable_ns));
  }
  const Pass& last = plain.back();
  const double triples = static_cast<double>(last.triples);
  r.inputs = {{"triples", triples},
              {"nt_bytes", nt_bytes},
              {"image_bytes", static_cast<double>(last.image_bytes)},
              {"threads", static_cast<double>(threads)}};
  r.Add("setup_s", setup.Median(), "s", setup.size());
  r.Add("ingest_triples_per_s", triples / (wall.Median() / 1e3), "triples/s",
        wall.size());
  r.Add("ingest_pass_p50_ms", wall.Median(), "ms", wall.size());
  r.Add("ingest_pass_p90_ms", wall.Percentile(0.9), "ms", wall.size());
  r.Add("ingest_queryable_p50_ms", queryable.Median(), "ms", queryable.size());
  r.Add("image_bytes_per_input_byte",
        static_cast<double>(last.image_bytes) / nt_bytes, "B/B", 1);

  if (opt.trace) {
    Samples traced_wall;
    for (const Pass& p : spanned) traced_wall.Add(NsToMs(p.wall_ns));
    r.Add("bench.trace_overhead.ingest", traced_wall.Median() / wall.Median(),
          "ratio", spanned.size());
    // Per-call medians over the traced passes.
    auto median_of = [&](auto&& fn) {
      Samples s;
      for (size_t i = 0; i < spanned.size(); ++i) s.Add(fn(spanned[i], i));
      return s.Median();
    };
    const uint64_t first_id = pass_id - spanned.size();
    auto span_s = [&](const char* name) {
      return median_of([&](const Pass&, size_t i) {
        return SpanSeconds(traced, first_id + i, name);
      });
    };
    const uint64_t n = spanned.size();
    r.Add("io.parse_s", span_s("io.parse"), "s", n);
    r.Add("io.chunk_parse_s",
          median_of([](const Pass& p, size_t) { return p.parse.parse_seconds; }),
          "s", n);
    r.Add("io.intern_s",
          median_of([](const Pass& p, size_t) { return p.parse.intern_seconds; }),
          "s", n);
    r.Add("rdf.dense_s", span_s("rdf.dense"), "s", n);
    r.Add("rdf.release_s", span_s("rdf.release"), "s", n);
    r.Add("store.freeze_sort_s",
          median_of([](const Pass& p, size_t) { return p.freeze_sort_s; }), "s",
          n);
    r.Add("store.freeze_write_s", median_of([&](const Pass& p, size_t i) {
            return SpanSeconds(traced, first_id + i, "store.freeze") -
                   p.freeze_sort_s;
          }),
          "s", n);
    r.Add("store.open_s", span_s("store.open"), "s", n);
    r.Add("store.to_graph_s", span_s("store.to_graph"), "s", n);
    r.Add("store.close_s", span_s("store.close"), "s", n);
    for (int k = 0; k < 4; ++k) {
      r.Add(std::string("summary.") + kKindName[k] + "_s", span_s(kKindSpan[k]),
            "s", n);
    }
    // The pass wall not covered by any layer span: the layer phases above
    // plus this remainder add up to the pass wall.
    r.Add("bench.ingest_unaccounted_s", median_of([&](const Pass& p, size_t i) {
            double covered = 0.0;
            for (const char* name :
                 {"io.parse", "rdf.dense", "store.freeze", "rdf.release",
                  "store.open", "store.to_graph", "store.close", "summary.W",
                  "summary.S", "summary.TW", "summary.TS"}) {
              covered += SpanSeconds(traced, first_id + i, name);
            }
            return NsToS(p.wall_ns) - covered;
          }),
          "s", n);
    r.Add("bench.ingest_pass_traced_s", traced_wall.Median() / 1e3, "s", n);
    r.Add("store.image_bytes_per_triple", last.image_bytes / triples, "B", 1);
    r.Add("store.perm_bytes_per_triple", last.perm_bytes / triples, "B", 1);
    r.Add("store.dict_bytes_per_triple", last.dict_bytes / triples, "B", 1);
    r.Add("store.dense_bytes_per_triple", last.dense_bytes / triples, "B", 1);
    for (int k = 0; k < 4; ++k) {
      r.Add(std::string("summary.") + kKindName[k] + "_nodes",
            static_cast<double>(last.summaries[k].nodes), "count", 1);
      r.Add(std::string("summary.") + kKindName[k] + "_edges",
            static_cast<double>(last.summaries[k].edges), "count", 1);
    }
    Trace trace;
    trace.Add(traced);
    r.layers = trace.ByLayer();
    r.spans = trace.ByName();
    if (!opt.trace_out.empty()) trace.Write(opt.trace_out);
  }
  r.Add("failed_frac",
        static_cast<double>(r.failed) / static_cast<double>(r.attempted),
        "ratio", r.attempted);
  r.Add("peak_rss_mb", PeakRssMb(), "MB", 1);
  std::filesystem::remove(image_path);
  return r;
}

}  // namespace perfbench
