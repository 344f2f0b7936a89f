#include "bwc/verify/observability.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bwc/verify/events.h"

namespace bwc::verify {

namespace {

/// Array names declared by a program (declaration set, not trace set).
std::set<std::string> declared_arrays(const ir::Program& p) {
  std::set<std::string> names;
  for (const auto& a : p.arrays()) names.insert(a.name);
  return names;
}

std::set<std::string> output_array_names(const ir::Program& p) {
  std::set<std::string> names;
  for (const ir::ArrayId a : p.output_arrays()) names.insert(p.array(a).name);
  return names;
}

/// Per-array access tallies from a trace: which array slots (in the shared
/// LocationSpace) are written / read at all.
struct TraceTouch {
  std::set<int> written;
  std::set<int> read;
};

TraceTouch touch_of(const EventTrace& trace, const LocationSpace& space) {
  TraceTouch t;
  for (const auto& inst : trace.instances) {
    if (!space.is_scalar(inst.write)) t.written.insert(space.slot_of(inst.write));
    for (const Location r : inst.reads) {
      if (!space.is_scalar(r)) t.read.insert(space.slot_of(r));
    }
  }
  return t;
}

}  // namespace

Report validate_store_elimination(const ir::Program& pre,
                                  const ir::Program& post) {
  Report report;
  report.check = "store-elimination";

  LocationSpace space;
  EventTrace ta, tb;
  if (!trace_pair(pre, post, "pre-pass", "post-pass", {}, &report, &space, &ta,
                  &tb)) {
    return report;
  }

  const TraceTouch pre_touch = touch_of(ta, space);
  const TraceTouch post_touch = touch_of(tb, space);

  // Arrays whose stores the pass removed: written by pre, untouched by any
  // post write.
  std::set<int> eliminated;
  for (const int slot : pre_touch.written) {
    if (post_touch.written.count(slot) == 0) eliminated.insert(slot);
  }
  if (eliminated.empty()) {
    report.info("no-op", "no array lost its stores; nothing to certify");
    return report;
  }

  const std::set<std::string> outputs_pre = output_array_names(pre);
  const std::set<std::string> outputs_post = output_array_names(post);
  for (const int slot : eliminated) {
    const std::string& name = space.array_name(slot);
    if (outputs_pre.count(name) != 0 || outputs_post.count(name) != 0) {
      report.error("store-elim-output",
                   "stores to array '" + name +
                       "' were eliminated, but the array is an observable "
                       "program output: its final contents are gone");
    }
  }

  // Walk the pre trace once. For every read of an eliminated element the
  // last writer (if any) must be a same-statement, same-iteration producer
  // -- the only kind of store a forwarding scalar can replace. Reads that
  // precede every write observe the element's initial contents; those must
  // survive in post as genuine memory reads, counted per element below.
  std::map<Location, const Instance*> last_writer;
  std::map<Location, std::uint64_t> initial_reads_pre;
  int escapes = 0;
  for (const auto& inst : ta.instances) {
    for (const Location r : inst.reads) {
      if (space.is_scalar(r) || eliminated.count(space.slot_of(r)) == 0) {
        continue;
      }
      const auto lw = last_writer.find(r);
      if (lw == last_writer.end()) {
        ++initial_reads_pre[r];
        continue;
      }
      const Instance& w = *lw->second;
      if (w.top_index != inst.top_index || w.iters != inst.iters) {
        if (escapes < 3) {
          report.error(
              "store-elim-observed",
              "eliminated store of " + space.describe(r) + " by " +
                  w.describe() + " is observed by " + inst.describe() +
                  (w.top_index != inst.top_index
                       ? " in a different statement"
                       : " in a different iteration") +
                  ": the value escapes the producing iteration and cannot "
                  "be forwarded through a scalar");
        }
        ++escapes;
      }
    }
    if (!space.is_scalar(inst.write) &&
        eliminated.count(space.slot_of(inst.write)) != 0) {
      last_writer[inst.write] = &inst;
    }
  }
  if (escapes > 3) {
    report.error("store-elim-observed",
                 "... and " + std::to_string(escapes - 3) +
                     " further observed eliminated store(s)");
  }

  // In post the eliminated arrays are never written, so every remaining
  // read of them observes initial contents. A post element read more often
  // than pre read its initial value is observing stale memory where pre
  // observed a store.
  std::map<Location, std::uint64_t> reads_post;
  for (const auto& inst : tb.instances) {
    for (const Location r : inst.reads) {
      if (!space.is_scalar(r) && eliminated.count(space.slot_of(r)) != 0) {
        ++reads_post[r];
      }
    }
  }
  int stale = 0;
  for (const auto& [loc, n] : reads_post) {
    const auto it = initial_reads_pre.find(loc);
    const std::uint64_t allowed = it == initial_reads_pre.end() ? 0 : it->second;
    if (n > allowed) {
      if (stale < 3) {
        report.error("store-elim-stale-read",
                     "post-pass program reads " + space.describe(loc) + " " +
                         std::to_string(n) + " time(s), but only " +
                         std::to_string(allowed) +
                         " initial-value read(s) are reproducible without "
                         "the eliminated stores");
      }
      ++stale;
    }
  }
  if (stale > 3) {
    report.error("store-elim-stale-read",
                 "... and " + std::to_string(stale - 3) +
                     " further stale-read element(s)");
  }

  if (report.ok()) {
    std::string names;
    for (const int slot : eliminated) {
      if (!names.empty()) names += ", ";
      names += space.array_name(slot);
    }
    report.info("certified",
                "store elimination certified for {" + names +
                    "}: no eliminated store is observable (not outputs, "
                    "values never escape their producing iteration)");
  }
  return report;
}

Report validate_storage_reduction(const ir::Program& pre,
                                  const ir::Program& post) {
  Report report;
  report.check = "storage-reduction";

  LocationSpace space;
  EventTrace ta, tb;
  if (!trace_pair(pre, post, "pre-pass", "post-pass", {}, &report, &space, &ta,
                  &tb)) {
    return report;
  }

  const TraceTouch pre_touch = touch_of(ta, space);
  const TraceTouch post_touch = touch_of(tb, space);

  // Arrays the pass retired: written by pre, never written by post. Their
  // memory holds nothing post maintains, so post may not read it either.
  std::set<int> reduced;
  for (const int slot : pre_touch.written) {
    if (post_touch.written.count(slot) == 0) reduced.insert(slot);
  }
  if (reduced.empty()) {
    report.info("no-op", "no array was retired; nothing to certify");
    return report;
  }
  for (const int slot : reduced) {
    if (post_touch.read.count(slot) != 0) {
      report.error("storage-reduction-retired-read",
                   "array '" + space.array_name(slot) +
                       "' was reduced away, but the post-pass program still "
                       "reads it: those reads see contents nothing writes "
                       "any more");
    }
  }

  const std::set<std::string> outputs_pre = output_array_names(pre);
  const std::set<std::string> outputs_post = output_array_names(post);
  for (const int slot : reduced) {
    const std::string& name = space.array_name(slot);
    if (outputs_pre.count(name) != 0 || outputs_post.count(name) != 0) {
      report.error("storage-reduction-output",
                   "array '" + name +
                       "' was reduced away, but it is an observable program "
                       "output: its final contents are gone");
    }
  }

  // Element-granular liveness over the pre trace, re-derived from scratch:
  // a value is live from its producing write until its last read before
  // the next write of the same element, and is freed at that read (an
  // instance reads before it writes, so the instance's own write may reuse
  // the storage). Reads with no prior write observe initial contents fresh
  // replacement buffers cannot reproduce.
  struct LiveValue {
    std::size_t born;       // trace position of the write
    std::size_t last_read;  // last observing read position
    std::uint64_t bytes;
    bool read = false;
  };
  std::map<Location, LiveValue> open;  // current value per element
  std::vector<std::pair<std::size_t, std::int64_t>> deltas;  // (pos, +/-bytes)
  int initial = 0;
  auto close = [&](const LiveValue& v) {
    if (!v.read) return;  // dead value: occupies no replacement storage
    deltas.emplace_back(v.born, static_cast<std::int64_t>(v.bytes));
    deltas.emplace_back(v.last_read, -static_cast<std::int64_t>(v.bytes));
  };
  for (std::size_t pos = 0; pos < ta.instances.size(); ++pos) {
    const Instance& inst = ta.instances[pos];
    for (const Location r : inst.reads) {
      if (space.is_scalar(r) || reduced.count(space.slot_of(r)) == 0) continue;
      const auto it = open.find(r);
      if (it == open.end()) {
        if (initial < 3) {
          report.error(
              "storage-reduction-initial-read",
              inst.describe() + " reads the initial contents of " +
                  space.describe(r) +
                  ", which the reduced storage cannot reproduce (no write "
                  "precedes the read)");
        }
        ++initial;
        continue;
      }
      it->second.read = true;
      it->second.last_read = pos;
    }
    if (!space.is_scalar(inst.write) &&
        reduced.count(space.slot_of(inst.write)) != 0) {
      const auto it = open.find(inst.write);
      if (it != open.end()) close(it->second);
      open[inst.write] =
          LiveValue{pos, pos, space.array_elem_bytes(space.slot_of(inst.write)),
                    false};
    }
  }
  for (const auto& [loc, v] : open) close(v);
  if (initial > 3) {
    report.error("storage-reduction-initial-read",
                 "... and " + std::to_string(initial - 3) +
                     " further initial-contents read(s)");
  }

  // Peak simultaneously-live bytes across all reduced arrays.
  std::sort(deltas.begin(), deltas.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second < b.second;  // releases before acquisitions
            });
  std::int64_t live = 0, peak = 0;
  for (const auto& [pos, d] : deltas) {
    (void)pos;
    live += d;
    peak = std::max(peak, live);
  }

  // Replacement capacity: storage post declares that pre did not.
  const std::set<std::string> pre_arrays = declared_arrays(pre);
  std::int64_t capacity = 0;
  std::string replacement_names;
  for (const auto& a : post.arrays()) {
    if (pre_arrays.count(a.name) != 0) continue;
    std::int64_t elems = 1;
    for (const std::int64_t e : a.extents) elems *= e;
    capacity += elems * static_cast<std::int64_t>(a.elem_bytes);
    if (!replacement_names.empty()) replacement_names += ", ";
    replacement_names += a.name;
  }
  for (const auto& s : post.scalars()) {
    if (pre.has_scalar(s)) continue;
    capacity += 8;
  }
  if (peak > capacity) {
    report.error(
        "storage-reduction-capacity",
        "reduced arrays hold up to " + std::to_string(peak) +
            " simultaneously-live byte(s), but the pass introduced only " +
            std::to_string(capacity) + " replacement byte(s)" +
            (replacement_names.empty() ? std::string()
                                       : " (" + replacement_names + ")") +
            ": the live set cannot fit");
  }

  if (report.ok()) {
    std::string names;
    for (const int slot : reduced) {
      if (!names.empty()) names += ", ";
      names += space.array_name(slot);
    }
    report.info("certified",
                "storage reduction certified for {" + names +
                    "}: not outputs, no initial contents observed, peak "
                    "live set of " +
                    std::to_string(peak) + " byte(s) fits the " +
                    std::to_string(capacity) + " replacement byte(s)");
  }
  return report;
}

}  // namespace bwc::verify
