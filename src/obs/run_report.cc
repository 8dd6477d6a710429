#include "obs/run_report.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>
#include <map>
#include <set>

#include "obs/json.h"

namespace deca::obs {

const ReportMetric* ReportRun::Find(std::string_view name) const {
  for (const ReportMetric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void ReportRun::Add(std::string_view name, double value, bool exact) {
  metrics.push_back({std::string(name), value, exact});
}

const ReportRun* RunReport::Find(std::string_view label) const {
  for (const ReportRun& r : runs) {
    if (r.label == label) return &r;
  }
  return nullptr;
}

std::string ToJson(const RunReport& report) {
  std::string out;
  out += "{\n";
  out += "  \"schema\": \"" + std::string(RunReport::kSchema) + "\",\n";
  out += "  \"version\": " + std::to_string(RunReport::kVersion) + ",\n";
  out += "  \"bench\": \"" + JsonEscape(report.bench) + "\",\n";
  out += "  \"runs\": [";
  for (size_t i = 0; i < report.runs.size(); ++i) {
    const ReportRun& run = report.runs[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"label\": \"" + JsonEscape(run.label) + "\",\n";
    out += "     \"metrics\": [";
    for (size_t m = 0; m < run.metrics.size(); ++m) {
      const ReportMetric& mm = run.metrics[m];
      out += m == 0 ? "\n" : ",\n";
      out += "       {\"name\": \"" + JsonEscape(mm.name) +
             "\", \"value\": " + JsonNumber(mm.value) +
             ", \"exact\": " + (mm.exact ? "true" : "false") + "}";
    }
    out += "\n     ],\n";
    out += "     \"spans\": [";
    for (size_t s = 0; s < run.spans.size(); ++s) {
      const SpanAgg& sp = run.spans[s];
      out += s == 0 ? "\n" : ",\n";
      out += "       {\"cat\": \"" + JsonEscape(sp.cat) + "\", \"name\": \"" +
             JsonEscape(sp.name) +
             "\", \"count\": " + std::to_string(sp.count) +
             ", \"total_ms\": " + JsonNumber(sp.total_ms) + "}";
    }
    out += "\n     ]}";
  }
  out += "\n  ]\n}\n";
  return out;
}

bool FromJson(std::string_view json, RunReport* out, std::string* err) {
  JsonValue root;
  if (!ParseJson(json, &root, err)) return false;
  if (!root.is(JsonValue::Type::kObject)) {
    if (err != nullptr) *err = "report root is not an object";
    return false;
  }
  if (root.Str("schema") != RunReport::kSchema) {
    if (err != nullptr) *err = "schema is not '" +
                               std::string(RunReport::kSchema) + "'";
    return false;
  }
  int version = static_cast<int>(root.Num("version", -1));
  if (version < RunReport::kMinVersion || version > RunReport::kVersion) {
    if (err != nullptr) *err = "unsupported report version";
    return false;
  }
  out->bench = root.Str("bench");
  out->runs.clear();
  const JsonValue* runs = root.Find("runs");
  if (runs == nullptr || !runs->is(JsonValue::Type::kArray)) {
    if (err != nullptr) *err = "missing 'runs' array";
    return false;
  }
  for (const JsonValue& jr : runs->arr) {
    if (!jr.is(JsonValue::Type::kObject)) {
      if (err != nullptr) *err = "run entry is not an object";
      return false;
    }
    ReportRun run;
    run.label = jr.Str("label");
    if (const JsonValue* metrics = jr.Find("metrics");
        metrics != nullptr && metrics->is(JsonValue::Type::kArray)) {
      for (const JsonValue& jm : metrics->arr) {
        ReportMetric m;
        m.name = jm.Str("name");
        m.value = jm.Num("value");
        m.exact = jm.Bool("exact");
        run.metrics.push_back(std::move(m));
      }
    }
    if (const JsonValue* spans = jr.Find("spans");
        spans != nullptr && spans->is(JsonValue::Type::kArray)) {
      for (const JsonValue& js : spans->arr) {
        SpanAgg s;
        s.cat = js.Str("cat");
        s.name = js.Str("name");
        s.count = static_cast<uint64_t>(js.Num("count"));
        s.total_ms = js.Num("total_ms");
        run.spans.push_back(std::move(s));
      }
    }
    out->runs.push_back(std::move(run));
  }
  return true;
}

namespace {

/// The latency-family rule of Validate: metrics whose names differ only in
/// a `_p50`/`_p99`/`_max` token (e.g. `pauses.slice_p50_ms`,
/// `pauses.slice_p99_ms`, `pauses.slice_max_ms`) are non-negative and
/// non-decreasing in that order.
bool LatencyFamiliesOrdered(const ReportRun& run, std::string* err) {
  static constexpr std::string_view kTails[] = {"_p50", "_p99", "_max"};
  std::map<std::string, std::array<const ReportMetric*, 3>> families;
  for (const ReportMetric& m : run.metrics) {
    for (size_t rank = 0; rank < std::size(kTails); ++rank) {
      const size_t pos = m.name.find(kTails[rank]);
      const size_t end = pos + kTails[rank].size();
      if (pos == std::string::npos ||
          (end != m.name.size() && m.name[end] != '_')) {
        continue;
      }
      std::string key = m.name;
      key.replace(pos, kTails[rank].size(), "_*");
      families[key][rank] = &m;
      break;
    }
  }
  for (const auto& [key, family] : families) {
    double floor = 0;
    for (const ReportMetric* m : family) {
      if (m == nullptr) continue;
      if (m->value < floor) {
        if (err != nullptr) {
          *err = "latency family '" + key + "' negative or out of order at '" +
                 m->name + "' in '" + run.label + "'";
        }
        return false;
      }
      floor = m->value;
    }
  }
  return true;
}

}  // namespace

bool Validate(const RunReport& report, std::string* err) {
  auto fail = [err](const std::string& what) {
    if (err != nullptr) *err = what;
    return false;
  };
  if (report.bench.empty()) return fail("empty bench name");
  if (report.runs.empty()) return fail("report has no runs");
  std::set<std::string> labels;
  for (const ReportRun& run : report.runs) {
    if (run.label.empty()) return fail("run with empty label");
    if (!labels.insert(run.label).second) {
      return fail("duplicate run label '" + run.label + "'");
    }
    std::set<std::string> names;
    for (const ReportMetric& m : run.metrics) {
      if (m.name.empty()) return fail("metric with empty name in '" +
                                      run.label + "'");
      if (!names.insert(m.name).second) {
        return fail("duplicate metric '" + m.name + "' in '" + run.label +
                    "'");
      }
      if (!std::isfinite(m.value)) {
        return fail("non-finite metric '" + m.name + "' in '" + run.label +
                    "'");
      }
    }
    for (const SpanAgg& s : run.spans) {
      if (s.cat.empty() || s.name.empty()) {
        return fail("span aggregate with empty cat/name in '" + run.label +
                    "'");
      }
      if (!std::isfinite(s.total_ms) || s.total_ms < 0) {
        return fail("bad span total_ms for '" + s.name + "' in '" +
                    run.label + "'");
      }
    }
    if (!LatencyFamiliesOrdered(run, err)) return false;
    const ReportMetric* allocs = run.Find("alloc.allocs");
    const ReportMetric* frees = run.Find("alloc.frees");
    if (allocs != nullptr && frees != nullptr &&
        frees->value > allocs->value) {
      return fail("alloc.frees > alloc.allocs in '" + run.label + "'");
    }
  }
  return true;
}

bool ReportsEqual(const RunReport& a, const RunReport& b) {
  if (a.bench != b.bench || a.runs.size() != b.runs.size()) return false;
  for (size_t i = 0; i < a.runs.size(); ++i) {
    const ReportRun& ra = a.runs[i];
    const ReportRun& rb = b.runs[i];
    if (ra.label != rb.label || ra.metrics.size() != rb.metrics.size() ||
        ra.spans.size() != rb.spans.size()) {
      return false;
    }
    for (size_t m = 0; m < ra.metrics.size(); ++m) {
      if (ra.metrics[m].name != rb.metrics[m].name ||
          ra.metrics[m].value != rb.metrics[m].value ||
          ra.metrics[m].exact != rb.metrics[m].exact) {
        return false;
      }
    }
    for (size_t s = 0; s < ra.spans.size(); ++s) {
      if (ra.spans[s].cat != rb.spans[s].cat ||
          ra.spans[s].name != rb.spans[s].name ||
          ra.spans[s].count != rb.spans[s].count ||
          ra.spans[s].total_ms != rb.spans[s].total_ms) {
        return false;
      }
    }
  }
  return true;
}

namespace {

bool ExactEqual(double base, double cur, double rel_eps) {
  double scale = std::max({1.0, std::fabs(base), std::fabs(cur)});
  return std::fabs(base - cur) <= rel_eps * scale;
}

}  // namespace

DiffResult DiffReports(const RunReport& baseline, const RunReport& current,
                       const DiffOptions& opt) {
  DiffResult result;
  auto fail = [&result](std::string what) {
    result.failures.push_back(std::move(what));
  };
  if (baseline.bench != current.bench) {
    fail("bench mismatch: baseline '" + baseline.bench + "' vs current '" +
         current.bench + "'");
    return result;
  }
  for (const ReportRun& base_run : baseline.runs) {
    const ReportRun* cur_run = current.Find(base_run.label);
    if (cur_run == nullptr) {
      fail("run '" + base_run.label + "' missing from current report");
      continue;
    }
    for (const ReportMetric& bm : base_run.metrics) {
      if (opt.exact_only && !bm.exact) continue;
      const ReportMetric* cm = cur_run->Find(bm.name);
      if (cm == nullptr) {
        fail(base_run.label + ": metric '" + bm.name +
             "' missing from current report");
        continue;
      }
      if (bm.exact) {
        if (!ExactEqual(bm.value, cm->value, opt.exact_rel_eps)) {
          fail(base_run.label + ": exact metric '" + bm.name + "' changed " +
               JsonNumber(bm.value) + " -> " + JsonNumber(cm->value));
        }
      } else {
        double limit = bm.value * (1.0 + opt.time_threshold);
        if (cm->value > limit && cm->value - bm.value > opt.time_floor_ms) {
          fail(base_run.label + ": time metric '" + bm.name + "' regressed " +
               JsonNumber(bm.value) + " -> " + JsonNumber(cm->value) +
               " ms (allowed +" +
               JsonNumber(opt.time_threshold * 100.0) + "%)");
        }
      }
    }
    for (const SpanAgg& bs : base_run.spans) {
      if (opt.exact_only) break;
      const SpanAgg* cs = nullptr;
      for (const SpanAgg& s : cur_run->spans) {
        if (s.cat == bs.cat && s.name == bs.name) {
          cs = &s;
          break;
        }
      }
      if (cs == nullptr) {
        fail(base_run.label + ": span '" + bs.cat + "/" + bs.name +
             "' missing from current report");
        continue;
      }
      if (cs->count != bs.count) {
        fail(base_run.label + ": span '" + bs.cat + "/" + bs.name +
             "' count changed " + std::to_string(bs.count) + " -> " +
             std::to_string(cs->count));
      }
      double limit = bs.total_ms * (1.0 + opt.time_threshold);
      if (cs->total_ms > limit &&
          cs->total_ms - bs.total_ms > opt.time_floor_ms) {
        fail(base_run.label + ": span '" + bs.cat + "/" + bs.name +
             "' total_ms regressed " + JsonNumber(bs.total_ms) + " -> " +
             JsonNumber(cs->total_ms));
      }
    }
  }
  return result;
}

}  // namespace deca::obs
