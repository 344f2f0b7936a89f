#include "bwc/pass/report.h"

#include <cstdio>
#include <sstream>

#include "bwc/support/json_escape.h"

namespace bwc::pass {

namespace {

void append_ir_stats(std::ostringstream& os, const char* key,
                     const IrStats& s) {
  os << json_quote(key) << ": {\"loops\": " << s.loops
     << ", \"statements\": " << s.statements
     << ", \"arrays_referenced\": " << s.arrays_referenced
     << ", \"referenced_bytes\": " << s.referenced_bytes << "}";
}

}  // namespace

const char* remark_kind_name(RemarkKind kind) {
  switch (kind) {
    case RemarkKind::kApplied: return "applied";
    case RemarkKind::kMissed: return "missed";
    case RemarkKind::kNote: return "note";
  }
  return "note";
}

const char* remark_severity_name(RemarkSeverity severity) {
  switch (severity) {
    case RemarkSeverity::kInfo: return "info";
    case RemarkSeverity::kWarning: return "warning";
    case RemarkSeverity::kError: return "error";
  }
  return "info";
}

IrStats compute_ir_stats(const ir::Program& program,
                         const std::vector<analysis::LoopSummary>& summaries) {
  IrStats stats;
  stats.statements = static_cast<int>(program.top().size());
  stats.loops = static_cast<int>(program.top_loop_indices().size());
  std::vector<bool> referenced(
      static_cast<std::size_t>(program.array_count()), false);
  for (const auto& s : summaries) {
    for (const auto& [array, access] : s.arrays)
      referenced[static_cast<std::size_t>(array)] = true;
  }
  for (int a = 0; a < program.array_count(); ++a) {
    if (referenced[static_cast<std::size_t>(a)]) {
      ++stats.arrays_referenced;
      stats.referenced_bytes += program.array(a).byte_size();
    }
  }
  return stats;
}

std::int64_t PassReport::traffic_bound_delta() const {
  if (traffic_bound_before < 0 || traffic_bound_after < 0) return 0;
  return traffic_bound_after - traffic_bound_before;
}

void PassReport::applied(
    std::string code, std::string message,
    std::vector<std::pair<std::string, std::string>> args) {
  remarks.push_back(Remark{RemarkKind::kApplied, std::move(code),
                           std::move(message), std::move(args)});
}

void PassReport::missed(
    std::string code, std::string message,
    std::vector<std::pair<std::string, std::string>> args) {
  remarks.push_back(Remark{RemarkKind::kMissed, std::move(code),
                           std::move(message), std::move(args)});
}

void PassReport::note(std::string code, std::string message,
                      std::vector<std::pair<std::string, std::string>> args) {
  remarks.push_back(Remark{RemarkKind::kNote, std::move(code),
                           std::move(message), std::move(args)});
}

void PassReport::finding(
    RemarkSeverity severity, std::string code, std::string message,
    std::vector<std::pair<std::string, std::string>> args) {
  remarks.push_back(Remark{RemarkKind::kNote, std::move(code),
                           std::move(message), std::move(args), severity});
}

std::string PipelineReport::to_text() const {
  std::ostringstream os;
  for (const PassReport& p : passes) {
    for (const Remark& r : p.remarks) {
      if (r.kind != RemarkKind::kNote) os << "  - " << r.message << "\n";
    }
    if (!p.verify.ran) continue;
    os << "  - verify (" << p.label << "): " << p.verify.check;
    if (p.verify.skipped) {
      os << " skipped: " << p.verify.skip_reason << "\n";
    } else {
      os << " certified, " << p.verify.instances_checked
         << " instance(s) checked\n";
    }
  }
  return os.str();
}

int PipelineReport::error_findings() const {
  int errors = 0;
  for (const auto& report : passes) {
    for (const auto& r : report.remarks)
      if (r.severity == RemarkSeverity::kError) ++errors;
  }
  return errors;
}

std::string PipelineReport::to_json(const std::string& program,
                                    const std::string& pipeline) const {
  std::ostringstream os;
  os << "{\"schema\": \"bwc-remarks-v1\"";
  os << ", \"program\": " << json_quote(program);
  os << ", \"pipeline\": " << json_quote(pipeline);
  os << ", \"analysis_cache\": {\"hits\": " << analysis.hits
     << ", \"misses\": " << analysis.misses
     << ", \"invalidations\": " << analysis.invalidations << "}";
  os << ", \"passes\": [";
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassReport& p = passes[i];
    if (i > 0) os << ", ";
    os << "{\"pass\": " << json_quote(p.pass)
       << ", \"label\": " << json_quote(p.label)
       << ", \"changed\": " << (p.changed ? "true" : "false");
    char ms[64];
    std::snprintf(ms, sizeof(ms), "%.6f", p.wall_ms);
    os << ", \"wall_ms\": " << ms;
    std::snprintf(ms, sizeof(ms), "%.6f", p.verify_ms);
    os << ", \"verify_ms\": " << ms;
    os << ", ";
    append_ir_stats(os, "ir_before", p.ir_before);
    os << ", ";
    append_ir_stats(os, "ir_after", p.ir_after);
    os << ", \"traffic_bound_before_bytes\": " << p.traffic_bound_before
       << ", \"traffic_bound_after_bytes\": " << p.traffic_bound_after
       << ", \"traffic_bound_delta_bytes\": " << p.traffic_bound_delta();
    if (p.verify.ran) {
      os << ", \"verify\": {\"check\": " << json_quote(p.verify.check)
         << ", \"skipped\": " << (p.verify.skipped ? "true" : "false")
         << ", \"skip_reason\": " << json_quote(p.verify.skip_reason)
         << ", \"instances_checked\": " << p.verify.instances_checked << "}";
    } else {
      os << ", \"verify\": null";
    }
    os << ", \"per_array\": [";
    for (std::size_t a = 0; a < p.per_array.size(); ++a) {
      const ArrayTraffic& t = p.per_array[a];
      if (a > 0) os << ", ";
      os << "{\"name\": " << json_quote(t.name)
         << ", \"bytes_before\": " << t.bytes_before
         << ", \"bytes_after\": " << t.bytes_after << "}";
    }
    os << "]";
    os << ", \"remarks\": [";
    for (std::size_t r = 0; r < p.remarks.size(); ++r) {
      const Remark& rem = p.remarks[r];
      if (r > 0) os << ", ";
      os << "{\"kind\": " << json_quote(remark_kind_name(rem.kind))
         << ", \"severity\": " << json_quote(remark_severity_name(rem.severity))
         << ", \"code\": " << json_quote(rem.code)
         << ", \"message\": " << json_quote(rem.message) << ", \"args\": {";
      for (std::size_t a = 0; a < rem.args.size(); ++a) {
        if (a > 0) os << ", ";
        os << json_quote(rem.args[a].first) << ": "
           << json_quote(rem.args[a].second);
      }
      os << "}}";
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

}  // namespace bwc::pass
