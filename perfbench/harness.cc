#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include <sys/resource.h>

namespace perfbench {

double Samples::Sum() const {
  double s = 0.0;
  for (double v : v_) s += v;
  return s;
}

double Samples::Percentile(double p) const {
  if (v_.empty()) return 0.0;
  std::vector<double> sorted = v_;
  std::sort(sorted.begin(), sorted.end());
  // Nearest rank: the smallest sample with at least p of all samples at or
  // below it.
  size_t rank = static_cast<size_t>(std::ceil(p * sorted.size()));
  if (rank == 0) rank = 1;
  return sorted[std::min(rank, sorted.size()) - 1];
}

std::vector<SpanTotals> Trace::ByName() const {
  std::map<std::string, SpanTotals> by;
  for (const std::vector<Span>& spans : buffers_) {
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      SpanTotals& t = by[s.name];
      t.name = s.name;
      ++t.count;
      t.total_s += NsToS(s.end_ns - s.start_ns);
      t.self_s += NsToS(s.end_ns - s.start_ns - child_ns[i]);
    }
  }
  std::vector<SpanTotals> out;
  for (auto& [name, t] : by) out.push_back(t);
  return out;
}

std::vector<SpanTotals> Trace::ByLayer() const {
  std::map<std::string, SpanTotals> by;
  for (const SpanTotals& n : ByName()) {
    std::string layer = n.name.substr(0, n.name.find('.'));
    SpanTotals& t = by[layer];
    t.name = layer;
    t.count += n.count;
    t.total_s += n.total_s;
    t.self_s += n.self_s;
  }
  std::vector<SpanTotals> out;
  for (auto& [name, t] : by) out.push_back(t);
  return out;
}

bool Trace::Write(const std::string& path) const {
  std::ofstream out(path);
  out << "thread,request,name,parent,start_ns,end_ns\n";
  for (size_t b = 0; b < buffers_.size(); ++b) {
    for (const Span& s : buffers_[b]) {
      out << b << ',' << s.request << ',' << s.name << ',' << s.parent << ','
          << s.start_ns << ',' << s.end_ns << '\n';
    }
  }
  return static_cast<bool>(out);
}

namespace {

std::string Quote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AppendTotals(std::ostringstream& o, const char* key,
                  const std::vector<SpanTotals>& rows) {
  o << ',' << Quote(key) << ":{";
  for (size_t i = 0; i < rows.size(); ++i) {
    const SpanTotals& t = rows[i];
    o << (i ? "," : "") << Quote(t.name) << ":{\"count\":" << t.count
      << ",\"total_s\":" << Num(t.total_s) << ",\"self_s\":" << Num(t.self_s)
      << '}';
  }
  o << '}';
}

}  // namespace

std::string Result::ToJson() const {
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
#ifdef PERFBENCH_BUILD_TYPE
  const char* build_type = PERFBENCH_BUILD_TYPE;
#else
  const char* build_type = "unknown";
#endif
  std::ostringstream o;
  o << "{\"workload\":" << Quote(workload) << ",\"compiler\":"
    << Quote(compiler) << ",\"build_type\":" << Quote(build_type)
    << ",\"traced\":" << (traced ? "true" : "false")
    << ",\"attempted\":" << attempted << ",\"failed\":" << failed
    << ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    o << (i ? "," : "") << Quote(m.name) << ":{\"value\":" << Num(m.value)
      << ",\"unit\":" << Quote(m.unit) << ",\"samples\":" << m.samples << '}';
  }
  o << '}';
  AppendTotals(o, "layers", layers);
  AppendTotals(o, "spans", spans);
  o << ",\"inputs\":{";
  for (size_t i = 0; i < inputs.size(); ++i) {
    o << (i ? "," : "") << Quote(inputs[i].first) << ':'
      << Num(inputs[i].second);
  }
  o << "},\"errors\":[";
  for (size_t i = 0; i < errors.size(); ++i) {
    o << (i ? "," : "") << Quote(errors[i]);
  }
  o << "]}";
  return o.str();
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench
