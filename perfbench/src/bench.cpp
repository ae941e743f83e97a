#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double ms_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

double ms_since(Clock::time_point start) {
  return ms_between(start, Clock::now());
}

void Outcome::fail(const std::string& why) {
  constexpr std::int64_t kLogged = 20;
  if (failed_ < kLogged) std::fprintf(stderr, "perfbench: FAIL %s\n", why.c_str());
  ++failed_;
}

int Tracer::open(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start = Clock::now();
  spans_.push_back(std::move(span));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void Tracer::close(int id) {
  spans_[id].end = Clock::now();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void Tracer::add(std::string name, Clock::time_point start,
                 Clock::time_point end) {
  Span span;
  span.name = std::move(name);
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start = start;
  span.end = end;
  spans_.push_back(std::move(span));
}

void Tracer::count(const std::string& name, double amount) {
  counters_[name] += amount;
}

std::map<std::string, double> Tracer::self_ms() const {
  // Children of one span run one after another, so the time they cover
  // is the sum of their durations.
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& span : spans_)
    if (span.parent >= 0)
      child_ms[span.parent] += ms_between(span.start, span.end);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name] +=
        std::max(0.0, ms_between(spans_[i].start, spans_[i].end) - child_ms[i]);
  return out;
}

double Tracer::total_self_ms() const {
  double total = 0.0;
  for (const auto& [name, ms] : self_ms()) total += ms;
  return total;
}

double quantile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double rank = q * static_cast<double>(sample.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sample.size() - 1);
  return sample[lo] + (sample[hi] - sample[lo]) * (rank - static_cast<double>(lo));
}

double mean(const std::vector<double>& sample) {
  if (sample.empty()) return 0.0;
  double sum = 0.0;
  for (double v : sample) sum += v;
  return sum / static_cast<double>(sample.size());
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void set_latency_metrics(Outcome& out, const std::vector<double>& op_ms,
                         double busy_s) {
  out.set("op_p50_ms", quantile(op_ms, 0.50));
  out.set("op_p99_ms", quantile(op_ms, 0.99));
  out.set("ops_per_s",
          busy_s > 0 ? static_cast<double>(op_ms.size()) / busy_s : 0.0);
  out.set("peak_rss_mb", peak_rss_mb());
}

namespace {

/// Changes the first number in document order (the self-test's
/// deliberately wrong expected value).
bool perturb_first_number(dvs::Json& doc) {
  if (doc.is_array()) {
    for (dvs::Json& item : doc.as_array())
      if (perturb_first_number(item)) return true;
    return false;
  }
  if (doc.is_object()) {
    for (auto& [key, item] : doc.as_object())
      if (perturb_first_number(item)) return true;
    return false;
  }
  if (doc.is_number()) {
    doc = dvs::Json(doc.as_double() + 1.0);
    return true;
  }
  return false;
}

/// Exact structural equality; the first differing path goes to `where`.
bool same(const dvs::Json& a, const dvs::Json& b, const std::string& path,
          std::string* where) {
  if (a.is_number() && b.is_number()) {
    if (a.as_double() == b.as_double()) return true;
  } else if (a.is_array() && b.is_array()) {
    const auto& x = a.as_array();
    const auto& y = b.as_array();
    if (x.size() == y.size()) {
      for (std::size_t i = 0; i < x.size(); ++i)
        if (!same(x[i], y[i], path + "[" + std::to_string(i) + "]", where))
          return false;
      return true;
    }
  } else if (a.is_object() && b.is_object()) {
    const auto& x = a.as_object();
    const auto& y = b.as_object();
    const bool same_keys =
        std::equal(x.begin(), x.end(), y.begin(), y.end(),
                   [](const auto& p, const auto& q) { return p.first == q.first; });
    if (same_keys) {
      for (const auto& [key, value] : x)
        if (!same(value, y.at(key), path + "." + key, where)) return false;
      return true;
    }
  } else if (a.dump() == b.dump()) {
    return true;
  }
  *where = path + ": got " + a.dump() + ", expected " + b.dump();
  return false;
}

}  // namespace

void check_expected(const Args& args, const std::string& name,
                    const dvs::Json& actual, Outcome& out) {
  if (args.seed != kDefaultSeed) return;
  const std::string path = args.expected_dir + "/" + name + ".json";
  if (args.write_expected) {
    std::ofstream file(path);
    file << actual.dump() << "\n";
    out.check(static_cast<bool>(file), "cannot write " + path);
    std::fprintf(stderr, "perfbench: wrote %s\n", path.c_str());
    return;
  }
  std::ifstream file(path);
  std::stringstream text;
  text << file.rdbuf();
  out.attempt();
  if (!file) {
    out.fail("missing expected outputs " + path);
    return;
  }
  dvs::Json expected = dvs::Json::parse(text.str());
  if (args.perturb_expected) perturb_first_number(expected);
  // One attempted check per top-level entry; each differing entry is one
  // failure.
  const auto& want = expected.as_object();
  out.attempt(static_cast<std::int64_t>(want.size()));
  for (const auto& [key, value] : want) {
    const dvs::Json* got = actual.find(key);
    std::string where;
    if (got == nullptr)
      out.fail("expected " + key + " missing from the outputs");
    else if (!same(*got, value, key, &where))
      out.fail("output differs from " + path + " at " + where);
  }
}

void set_trace_metrics(Outcome& out, const Tracer& tracer,
                       double traced_wall_ms, int traced_ops,
                       double untraced_op_ms) {
  const double ops = traced_ops > 0 ? traced_ops : 1;
  for (const auto& [name, ms] : tracer.self_ms()) {
    if (name == "bench.op")
      out.set("bench.glue_ms", ms / ops);
    else if (name == "opt.pipeline")
      out.set("opt.pipeline_self_ms", ms / ops);
    else
      out.set(name + "_ms", ms / ops);
  }
  for (const auto& [name, value] : tracer.counters()) out.set(name, value / ops);
  const double per_op = traced_wall_ms / ops;
  out.set("bench.traced_op_ms", per_op);
  out.set("bench.span_coverage",
          traced_wall_ms > 0 ? tracer.total_self_ms() / traced_wall_ms : 0.0);
  out.set("bench.trace_overhead_pct",
          untraced_op_ms > 0 ? 100.0 * (per_op - untraced_op_ms) / untraced_op_ms
                             : 0.0);
}

}  // namespace perfbench
