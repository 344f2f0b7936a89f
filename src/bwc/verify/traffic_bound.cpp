#include "bwc/verify/traffic_bound.h"

#include <algorithm>
#include <utility>

#include "bwc/ir/stmt.h"
#include "bwc/verify/static_dependence.h"

namespace bwc::verify {

namespace {

/// One array reference over one combination of its site's domain pieces:
/// a guard the splitter refines can leave a loop variable several pieces,
/// and each combination is one box.
struct Ref {
  std::vector<Interval> box;  // per-dim subscript value range
  std::vector<ir::Affine> subs;
  bool write = false;
  /// Under a guard the splitter cannot refine: it may not execute, and its
  /// box over-approximates (the guard may suppress any subset).
  bool guarded = false;
  bool known = true;  // every subscript variable bound (else box is empty)
  bool boxy = true;   // all coefficients in {0, +-1}: box is exact
  /// Definitely touches every element of box when it runs: each dim uses
  /// at most one unit-coefficient variable, no variable shared between
  /// dims.
  bool covers_box = true;
  /// The iteration->element map is injective over the whole enclosing
  /// nest: covers_box plus every enclosing loop variable used.
  bool injective_full = true;
  std::int64_t count = 0;  // distinct elements this box alone touches
  int top = 0;             // enclosing top-level statement, program order
  int site = 0;            // its site's execution order within `top`
};

/// Every array reference of a program, read from the engine's assignment
/// sites, with the flop upper bound.
struct Refs {
  std::vector<std::vector<Ref>> by_array;
  /// References the bound skips (guarded or not known), once each.
  std::vector<int> excluded;
  std::int64_t flops = 0;
};

std::int64_t expr_flops(const ir::Expr& e) {
  std::int64_t f = 0;
  if (e.kind == ir::ExprKind::kBinary) f += ir::kBinaryFlops;
  if (e.kind == ir::ExprKind::kCall) f += e.call_flops;
  for (const auto& o : e.operands) {
    if (o != nullptr) f += expr_flops(*o);
  }
  return f;
}

/// Append the boxes of `r`, one per combination of the domain pieces of
/// the loop levels its subscripts read. A subscript variable binds to its
/// innermost enclosing loop, as at run time.
void add_boxes(AffineRef r, int top, int site, std::vector<Ref>* out) {
  Ref ref;
  ref.write = r.write;
  ref.guarded = !r.exact_domain;
  ref.top = top;
  ref.site = site;
  // Per dim, the (level, coefficient) of each term.
  std::vector<std::vector<std::pair<std::size_t, std::int64_t>>> dims;
  std::vector<std::size_t> levels;
  bool injective = true;  // every dim uses at most one variable
  for (const ir::Affine& sub : r.subscripts) {
    auto& terms = dims.emplace_back();
    for (const auto& [name, coeff] : sub.terms()) {
      const auto it =
          std::find(r.loop_vars.rbegin(), r.loop_vars.rend(), name);
      if (it == r.loop_vars.rend()) {
        ref.known = false;
        continue;
      }
      levels.push_back(
          static_cast<std::size_t>(r.loop_vars.rend() - it - 1));
      terms.emplace_back(levels.back(), coeff);
      if (coeff != 1 && coeff != -1) ref.boxy = ref.covers_box = false;
    }
    if (terms.size() > 1) injective = ref.covers_box = false;
  }
  ref.subs = std::move(r.subscripts);
  if (!ref.known) {
    out->push_back(std::move(ref));
    return;
  }
  std::sort(levels.begin(), levels.end());
  const auto distinct_end = std::unique(levels.begin(), levels.end());
  if (distinct_end != levels.end()) ref.covers_box = false;  // shared var
  levels.erase(distinct_end, levels.end());
  ref.injective_full =
      ref.covers_box && levels.size() == r.loop_vars.size();

  std::vector<Interval> piece(r.loop_vars.size());
  std::vector<std::size_t> idx(levels.size(), 0);
  while (true) {
    for (std::size_t k = 0; k < levels.size(); ++k)
      piece[levels[k]] = r.domains[levels[k]].ranges[idx[k]];
    ref.box.clear();
    std::int64_t max_dim = dims.empty() ? 0 : 1;
    for (std::size_t d = 0; d < dims.size(); ++d) {
      Interval iv{ref.subs[d].constant_term(), ref.subs[d].constant_term()};
      bool unit = true;
      for (const auto& [level, coeff] : dims[d]) {
        const Interval& p = piece[level];
        iv.lo += coeff * (coeff >= 0 ? p.lo : p.hi);
        iv.hi += coeff * (coeff >= 0 ? p.hi : p.lo);
        if (coeff != 1 && coeff != -1) unit = false;
      }
      ref.box.push_back(iv);
      const std::int64_t dim_count =
          unit ? iv.size()
               : (dims[d].size() == 1 ? piece[dims[d][0].first].size() : 1);
      max_dim = std::max(max_dim, dim_count);
    }
    ref.count = injective ? 1 : max_dim;
    if (injective) {
      for (const std::size_t level : levels) ref.count *= piece[level].size();
    }
    std::size_t k = 0;
    for (; k < levels.size(); ++k) {
      if (++idx[k] < r.domains[levels[k]].ranges.size()) break;
      idx[k] = 0;
    }
    if (k == levels.size()) {
      out->push_back(std::move(ref));
      return;
    }
    out->push_back(ref);
  }
}

Refs collect(const ir::Program& program) {
  Refs refs;
  refs.by_array.resize(static_cast<std::size_t>(program.array_count()));
  refs.excluded.resize(refs.by_array.size());
  for (std::size_t t = 0; t < program.top().size(); ++t) {
    const SiteWalk walk = collect_assign_sites(*program.top()[t]);
    for (std::size_t s = 0; s < walk.sites.size(); ++s) {
      const AssignSite& site = walk.sites[s];
      if (site.stmt->rhs != nullptr) {
        std::int64_t trips = 1;
        for (const VarDomain& d : site.domains) trips *= d.size();
        refs.flops += trips * expr_flops(*site.stmt->rhs);
      }
      for (AffineRef& r : site_refs(program, site)) {
        if (r.array.empty()) continue;
        const auto a = static_cast<std::size_t>(program.array_id(r.array));
        std::vector<Ref>& out = refs.by_array[a];
        const std::size_t first = out.size();
        add_boxes(std::move(r), static_cast<int>(t), static_cast<int>(s),
                  &out);
        if (out[first].guarded || !out[first].known) ++refs.excluded[a];
      }
    }
  }
  return refs;
}

bool box_contains(const std::vector<Interval>& box,
                  const std::vector<std::int64_t>& point) {
  for (std::size_t d = 0; d < box.size(); ++d) {
    if (point[d] < box[d].lo || point[d] > box[d].hi) return false;
  }
  return true;
}

/// Cut the span of `boxes` (all of rank `rank`) into the cells of the
/// grid their bounds define -- coordinate compression -- and call
/// visit(low corner, element count) on each. False, visiting nothing,
/// when the grid would exceed 2M cells.
template <typename Visit>
bool for_each_cell(const std::vector<const Ref*>& boxes, std::size_t rank,
                   const Visit& visit) {
  std::vector<std::vector<std::int64_t>> coords(rank);
  for (const Ref* r : boxes) {
    for (std::size_t d = 0; d < rank; ++d) {
      coords[d].push_back(r->box[d].lo);
      coords[d].push_back(r->box[d].hi + 1);
    }
  }
  std::int64_t cells = 1;
  for (auto& c : coords) {
    std::sort(c.begin(), c.end());
    c.erase(std::unique(c.begin(), c.end()), c.end());
    cells *= static_cast<std::int64_t>(c.size()) - 1;
    if (cells > 2'000'000) return false;
  }
  std::vector<std::size_t> idx(rank, 0);
  std::vector<std::int64_t> point(rank, 0);
  while (true) {
    std::int64_t volume = 1;
    for (std::size_t d = 0; d < rank; ++d) {
      point[d] = coords[d][idx[d]];
      volume *= coords[d][idx[d] + 1] - point[d];
    }
    visit(point, volume);
    std::size_t d = 0;
    for (; d < rank; ++d) {
      if (++idx[d] < coords[d].size() - 1) break;
      idx[d] = 0;
    }
    if (d == rank) return true;
  }
}

/// Exact cell count of a union of dense boxes; -1 when their ranks differ
/// or the compressed grid would be unreasonably large.
std::int64_t union_of_boxes(const std::vector<const Ref*>& boxes) {
  if (boxes.empty()) return 0;
  const std::size_t rank = boxes[0]->box.size();
  for (const Ref* r : boxes) {
    if (r->box.size() != rank) return -1;  // rank mismatch: malformed
  }
  std::int64_t covered = 0;
  const bool fits = for_each_cell(
      boxes, rank,
      [&](const std::vector<std::int64_t>& point, std::int64_t volume) {
        for (const Ref* r : boxes) {
          if (box_contains(r->box, point)) {
            covered += volume;
            return;
          }
        }
      });
  return fits ? covered : -1;
}

}  // namespace

TrafficBound compute_traffic_bound(const ir::Program& program) {
  const Refs refs = collect(program);

  TrafficBound bound;
  bound.flops_upper_bound = refs.flops;
  for (ir::ArrayId a = 0; a < program.array_count(); ++a) {
    const ir::ArrayDecl& decl = program.array(a);
    ArrayFootprint fp;
    fp.name = decl.name;
    fp.guarded_refs = refs.excluded[static_cast<std::size_t>(a)];
    std::vector<const Ref*> boxy;
    std::size_t counted = 0;
    std::int64_t max_count = 0;
    for (const Ref& r : refs.by_array[static_cast<std::size_t>(a)]) {
      if (r.guarded || !r.known) continue;
      ++counted;
      if (r.boxy) boxy.push_back(&r);
      max_count = std::max(max_count, r.count);
    }
    const std::int64_t cells = union_of_boxes(boxy);
    if (boxy.size() == counted && cells >= 0) {
      fp.distinct_elements = cells;
      fp.exact = fp.guarded_refs == 0;
    } else {
      fp.distinct_elements = std::max(cells, max_count);
    }
    fp.bytes =
        fp.distinct_elements * static_cast<std::int64_t>(decl.elem_bytes);
    bound.lower_bound_bytes += fp.bytes;
    bound.arrays.push_back(std::move(fp));
  }
  return bound;
}

namespace {

/// A write that may precede read claim `c` never covers it when it is a
/// same-site or later-site write of the same top-level statement, with
/// byte-identical subscripts, whose iteration->element map is injective
/// over the whole nest: each element is then touched in exactly one
/// iteration, and within it the read (RHS evaluation, or an earlier
/// statement) runs before the store.
bool exempt_from(const Ref& c, const Ref& w) {
  return w.top == c.top && w.site >= c.site && w.injective_full &&
         w.subs == c.subs;
}

}  // namespace

DataFloor compute_data_floor(const ir::Program& program) {
  const Refs refs = collect(program);

  DataFloor floor;
  for (ir::ArrayId a = 0; a < program.array_count(); ++a) {
    const ir::ArrayDecl& decl = program.array(a);
    FloorRegion region;
    region.name = decl.name;
    const std::size_t rank = decl.extents.size();
    const bool is_output = program.is_output_array(a);

    std::vector<const Ref*> claims;    // exact unguarded reads
    std::vector<const Ref*> subtract;  // writes that may precede a read
    std::vector<const Ref*> outputs;   // definite writes of output arrays
    bool opaque_write = false;  // a write whose extent we cannot bound
    for (const Ref& r : refs.by_array[static_cast<std::size_t>(a)]) {
      if (r.write) {
        if (!r.known || r.box.size() != rank) {
          opaque_write = true;
          continue;
        }
        subtract.push_back(&r);
        if (is_output && !r.guarded && r.covers_box) outputs.push_back(&r);
      } else if (r.known && !r.guarded && r.covers_box &&
                 r.box.size() == rank) {
        claims.push_back(&r);
      }
    }
    // An unbounded write may cover any element before any read: no
    // initial-read claim survives (output obligations are unaffected --
    // more writes never shrink what must be produced).
    if (opaque_write) claims.clear();

    if (rank > 0 && (!claims.empty() || !outputs.empty())) {
      // Every output is also a subtract box, so these bounds cut the grid.
      std::vector<const Ref*> boxes = claims;
      boxes.insert(boxes.end(), subtract.begin(), subtract.end());
      // Past 2M cells nothing is counted: the floor stays sound.
      for_each_cell(
          boxes, rank,
          [&](const std::vector<std::int64_t>& point, std::int64_t volume) {
            bool initial = false;
            for (const Ref* c : claims) {
              if (!box_contains(c->box, point)) continue;
              bool covered = false;
              for (const Ref* w : subtract) {
                if (w->top > c->top) continue;  // runs strictly later
                if (exempt_from(*c, *w)) continue;
                if (box_contains(w->box, point)) {
                  covered = true;
                  break;
                }
              }
              if (!covered) {
                initial = true;
                break;
              }
            }
            bool written = false;
            for (const Ref* o : outputs) {
              if (box_contains(o->box, point)) {
                written = true;
                break;
              }
            }
            if (initial) region.initial_read_elements += volume;
            if (written) region.output_write_elements += volume;
            if (initial || written) region.elements += volume;
          });
    }

    region.bytes =
        region.elements * static_cast<std::int64_t>(decl.elem_bytes);
    floor.floor_bytes += region.bytes;
    floor.arrays.push_back(std::move(region));
  }
  return floor;
}

std::string DataFloor::render() const {
  std::string out = "data-movement floor: " + std::to_string(floor_bytes) +
                    " bytes memory<->L2 (any equivalent program)\n";
  for (const FloorRegion& r : arrays) {
    out += "  " + r.name + ": " + std::to_string(r.elements) +
           " element(s), " + std::to_string(r.bytes) + " byte(s) (" +
           std::to_string(r.initial_read_elements) + " initial-read, " +
           std::to_string(r.output_write_elements) + " output-write)\n";
  }
  return out;
}

std::string TrafficBound::render() const {
  std::string out = "traffic lower bound: " +
                    std::to_string(lower_bound_bytes) +
                    " bytes memory<->L2 (flops upper bound: " +
                    std::to_string(flops_upper_bound) + ")\n";
  for (const ArrayFootprint& fp : arrays) {
    out += "  " + fp.name + ": " + (fp.exact ? "" : ">= ") +
           std::to_string(fp.distinct_elements) + " element(s), " +
           std::to_string(fp.bytes) + " byte(s)";
    if (fp.guarded_refs > 0) {
      out += " (" + std::to_string(fp.guarded_refs) +
             " guarded ref(s) excluded)";
    }
    out += "\n";
  }
  return out;
}

}  // namespace bwc::verify
