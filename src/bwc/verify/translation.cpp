#include "bwc/verify/translation.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "bwc/verify/events.h"

namespace bwc::verify {

namespace {

std::uint64_t mix(std::uint64_t seed, std::uint64_t v) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull + v;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Semantic key of an instance: what it writes, what it reads, what it
/// computes. Two instances with equal keys are interchangeable copies of
/// the same work item.
std::uint64_t instance_key(const Instance& inst) {
  std::uint64_t h = mix(0xbeef, inst.write);
  for (const Location r : inst.reads) h = mix(h, r);
  return mix(h, inst.rhs_hash);
}

/// Commutative summary of a set of writer instances (order-free identity):
/// count plus order-insensitive hashes of the member ids.
struct WriterSet {
  std::uint64_t count = 0;
  std::uint64_t xor_hash = 0;
  std::uint64_t sum_hash = 0;

  void add(int id) {
    const std::uint64_t h = mix(0x5e7, static_cast<std::uint64_t>(id));
    ++count;
    xor_hash ^= h;
    sum_hash += h;
  }
  bool operator==(const WriterSet& o) const = default;
};

struct LocationHistory {
  /// Writer instance ids (original-side ids) in execution order.
  std::vector<int> writers;
  /// (reader instance id, id of last writer before it or -1).
  std::vector<std::pair<int, int>> reads;
  /// For relaxed (reduction) scalars: per non-reduction read, the
  /// order-free set of writers completed before it.
  std::vector<std::pair<int, WriterSet>> read_sets;
};

/// Does every write of this location, in a trace, come from a reduction
/// instance, all with one common operator?
bool all_reduction_writes(const std::vector<Instance>& instances,
                          Location loc, ir::BinOp* op, bool* any) {
  bool first = true;
  *any = false;
  for (const auto& inst : instances) {
    if (inst.write != loc) continue;
    *any = true;
    if (!inst.reduction) return false;
    if (first) {
      *op = inst.reduction_op;
      first = false;
    } else if (inst.reduction_op != *op) {
      return false;
    }
  }
  return true;
}

std::string outputs_signature(const ir::Program& p) {
  std::string sig;
  std::set<std::string> names(p.output_scalars().begin(),
                              p.output_scalars().end());
  for (const auto& s : names) sig += "scalar " + s + "; ";
  std::set<std::string> arrays;
  for (const ir::ArrayId a : p.output_arrays()) {
    const ir::ArrayDecl& d = p.array(a);
    std::string entry = "array " + d.name + "[";
    for (std::size_t i = 0; i < d.extents.size(); ++i) {
      if (i > 0) entry += ",";
      entry += std::to_string(d.extents[i]);
    }
    entry += "]";
    arrays.insert(entry);
  }
  for (const auto& a : arrays) sig += a + "; ";
  return sig;
}

}  // namespace

Report validate_translation(const ir::Program& original,
                            const ir::Program& transformed) {
  Report report;
  report.check = "translation";

  // A transformed program must stand on its own structurally, and
  // observable outputs must be declared identically (by name and shape).
  LocationSpace space;
  EventTrace ta, tb;
  const auto same_outputs = [&] {
    const std::string out_a = outputs_signature(original);
    const std::string out_b = outputs_signature(transformed);
    if (out_a == out_b) return true;
    report.error("outputs-changed",
                 "observable outputs differ: original declares {" + out_a +
                     "}, transformed declares {" + out_b + "}");
    return false;
  };
  if (!trace_pair(original, transformed, "original", "transformed",
                  same_outputs, &report, &space, &ta, &tb)) {
    return report;
  }

  // -- 1. Instance bijection --------------------------------------------
  // Bucket transformed instances by semantic key; match each original
  // instance to the next unclaimed transformed instance with the same key
  // (k-th occurrence to k-th occurrence -- equal-key instances are
  // interchangeable copies).
  std::unordered_map<std::uint64_t, std::vector<int>> trans_by_key;
  for (int i = 0; i < static_cast<int>(tb.instances.size()); ++i)
    trans_by_key[instance_key(tb.instances[i])].push_back(i);
  for (auto& [key, ids] : trans_by_key) {
    (void)key;
    std::reverse(ids.begin(), ids.end());  // pop_back yields execution order
  }

  // orig id -> transformed id, and the inverse.
  std::vector<int> to_trans(ta.instances.size(), -1);
  std::vector<int> to_orig(tb.instances.size(), -1);
  int missing = 0;
  for (int i = 0; i < static_cast<int>(ta.instances.size()); ++i) {
    auto it = trans_by_key.find(instance_key(ta.instances[i]));
    if (it == trans_by_key.end() || it->second.empty()) {
      if (missing < 3) {
        const Instance& inst = ta.instances[static_cast<std::size_t>(i)];
        report.error("instance-missing",
                     "transformed program lost an instance: write of " +
                         space.describe(inst.write) + " by " +
                         inst.describe() +
                         " has no counterpart (dropped or altered statement)");
      }
      ++missing;
      continue;
    }
    const int j = it->second.back();
    it->second.pop_back();
    to_trans[static_cast<std::size_t>(i)] = j;
    to_orig[static_cast<std::size_t>(j)] = i;
  }
  if (missing > 3) {
    report.error("instance-missing",
                 "... and " + std::to_string(missing - 3) +
                     " further lost instance(s)");
  }
  int extra = 0;
  for (int j = 0; j < static_cast<int>(tb.instances.size()); ++j) {
    if (to_orig[static_cast<std::size_t>(j)] >= 0) continue;
    if (extra < 3) {
      const Instance& inst = tb.instances[static_cast<std::size_t>(j)];
      report.error("instance-extra",
                   "transformed program gained an instance: write of " +
                       space.describe(inst.write) + " by " + inst.describe() +
                       " has no original counterpart (duplicated or "
                       "fabricated statement)");
    }
    ++extra;
  }
  if (extra > 3) {
    report.error("instance-extra", "... and " + std::to_string(extra - 3) +
                                       " further extra instance(s)");
  }
  if (!report.ok()) return report;

  // -- 2/3. Per-location dependence preservation ------------------------
  // Reduction relaxation is per scalar location and must hold in both
  // programs for the same operator.
  std::set<Location> relaxed;
  {
    std::set<Location> scalar_locs;
    for (const auto& inst : ta.instances) {
      if (space.is_scalar(inst.write)) scalar_locs.insert(inst.write);
    }
    for (const Location loc : scalar_locs) {
      ir::BinOp op_a{}, op_b{};
      bool any_a = false, any_b = false;
      if (all_reduction_writes(ta.instances, loc, &op_a, &any_a) &&
          all_reduction_writes(tb.instances, loc, &op_b, &any_b) && any_a &&
          any_b && op_a == op_b) {
        relaxed.insert(loc);
      }
    }
  }

  auto build_histories = [&](const std::vector<Instance>& instances,
                             const std::vector<int>& map_to_orig,
                             bool is_original) {
    std::map<Location, LocationHistory> hist;
    std::map<Location, WriterSet> completed;  // for relaxed scalars
    std::map<Location, int> last_writer;
    for (int idx = 0; idx < static_cast<int>(instances.size()); ++idx) {
      const Instance& inst = instances[static_cast<std::size_t>(idx)];
      const int orig_id =
          is_original ? idx : map_to_orig[static_cast<std::size_t>(idx)];
      for (const Location r : inst.reads) {
        // A reduction's read of its own accumulator is part of the update.
        if (relaxed.count(r) != 0) {
          if (inst.reduction && inst.write == r) continue;
          hist[r].read_sets.emplace_back(orig_id, completed[r]);
          continue;
        }
        const auto lw = last_writer.find(r);
        hist[r].reads.emplace_back(orig_id,
                                   lw == last_writer.end() ? -1 : lw->second);
      }
      if (relaxed.count(inst.write) != 0) {
        completed[inst.write].add(orig_id);
      } else {
        hist[inst.write].writers.push_back(orig_id);
        last_writer[inst.write] = orig_id;
      }
    }
    return hist;
  };

  const auto hist_a = build_histories(ta.instances, to_orig, true);
  const auto hist_b = build_histories(tb.instances, to_orig, false);

  auto name_inst = [&](int orig_id) -> std::string {
    if (orig_id < 0) return "(initial value)";
    const Instance& inst = ta.instances[static_cast<std::size_t>(orig_id)];
    return "write of " + space.describe(inst.write) + " by " + inst.describe();
  };

  int violations = 0;
  auto violation = [&](const std::string& code, const std::string& message) {
    if (violations < 8) report.error(code, message);
    ++violations;
  };

  for (const auto& [loc, ha] : hist_a) {
    const auto itb = hist_b.find(loc);
    // The bijection guarantees the same instances touch the same locations
    // in both programs, so a location can never be absent on one side.
    const LocationHistory empty;
    const LocationHistory& hb = itb == hist_b.end() ? empty : itb->second;

    // Output dependences: identical write sequence.
    if (ha.writers != hb.writers) {
      std::size_t k = 0;
      while (k < ha.writers.size() && k < hb.writers.size() &&
             ha.writers[k] == hb.writers[k])
        ++k;
      const std::string wa =
          k < ha.writers.size() ? name_inst(ha.writers[k]) : "(end)";
      const std::string wb =
          k < hb.writers.size() ? name_inst(hb.writers[k]) : "(end)";
      violation("output-dependence-reversed",
                "output dependence violated on " + space.describe(loc) +
                    ": the " + std::to_string(k + 1) +
                    ". write must be " + wa +
                    ", but the transformed program performs " + wb);
    }

    // Flow/anti dependences: every read observes the same producer.
    std::map<int, int> read_producer_a;
    for (const auto& [reader, producer] : ha.reads)
      read_producer_a[reader] = producer;
    for (const auto& [reader, producer] : hb.reads) {
      const auto it = read_producer_a.find(reader);
      if (it == read_producer_a.end()) continue;  // bijection already failed
      if (it->second == producer) continue;
      const std::string reader_name =
          name_inst(reader) + " reading " + space.describe(loc);
      if (producer == -1 ||
          (it->second != -1 &&
           /* observed an older write */ producer < it->second)) {
        violation("flow-dependence-reversed",
                  "flow dependence violated on " + space.describe(loc) +
                      ": " + reader_name + " must observe " +
                      name_inst(it->second) +
                      ", but the transformed program schedules the read "
                      "before it (it observes " +
                      name_inst(producer) + ")");
      } else {
        violation("anti-dependence-reversed",
                  "anti dependence violated on " + space.describe(loc) +
                      ": " + name_inst(producer) + " overtakes " +
                      reader_name + " (which must observe " +
                      name_inst(it->second) + ")");
      }
    }

    // Relaxed scalars: non-reduction reads must see the same completed set.
    std::map<int, WriterSet> sets_a;
    for (const auto& [reader, set] : ha.read_sets) sets_a[reader] = set;
    for (const auto& [reader, set] : hb.read_sets) {
      const auto it = sets_a.find(reader);
      if (it == sets_a.end()) continue;
      if (it->second == set) continue;
      violation("reduction-read-partial",
                "read of reduction scalar " + space.describe(loc) + " by " +
                    name_inst(reader) + " observes " +
                    std::to_string(set.count) + " of " +
                    std::to_string(it->second.count) +
                    " updates: the transformed program exposes a partial "
                    "reduction value");
    }
  }
  if (violations > 8) {
    report.error("more-violations", "... and " +
                                        std::to_string(violations - 8) +
                                        " further dependence violation(s)");
  }

  if (report.ok()) {
    report.info("certified",
                "translation certified: " +
                    std::to_string(ta.instances.size()) +
                    " instances matched, all flow/anti/output dependences "
                    "preserved (" +
                    std::to_string(relaxed.size()) +
                    " commutative reduction scalar(s))");
  }
  return report;
}

}  // namespace bwc::verify
