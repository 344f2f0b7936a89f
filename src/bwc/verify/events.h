// Concrete access-event enumeration for verification.
//
// All loop bounds, guards and subscripts in the IR are affine with constant
// coefficients over concretely-bounded loop variables, so the exact set of
// dynamic statement instances -- and the exact memory locations each one
// reads and writes -- is computable without executing any arithmetic. The
// tracer walks a program in execution order and emits one Instance per
// dynamic assignment. This is the verifier's independent ground truth: it
// shares no code with analysis/ (summaries, dependence tests) or
// runtime/ (interpreter, compiled engine).
//
// Locations are interned by *name* in a LocationSpace shared across the
// programs being compared, so that an original and a transformed program
// agree on what "element 17 of array a" means even though their ArrayIds
// may differ.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bwc/ir/program.h"
#include "bwc/verify/diagnostics.h"

namespace bwc::verify {

/// Encoded memory location: an array element or a scalar. Arrays and
/// scalars are interned by name so locations are comparable across the
/// programs of a translation-validation pair.
using Location = std::uint64_t;

class LocationSpace {
 public:
  /// Intern array `name`; `elem_bytes` is recorded on first sight.
  int array_slot(const std::string& name, std::uint64_t elem_bytes = 8);
  int scalar_slot(const std::string& name);

  Location array_element(int slot, std::int64_t element) const;
  Location scalar(int slot) const;

  bool is_scalar(Location loc) const;
  /// Array slot of an array-element location (must not be a scalar).
  int slot_of(Location loc) const;
  std::int64_t element_of(Location loc) const;

  const std::string& array_name(int slot) const;
  const std::string& scalar_name(int slot) const;
  std::uint64_t array_elem_bytes(int slot) const;

  /// Human-readable location, e.g. "a[17]" or "sum".
  std::string describe(Location loc) const;

 private:
  std::map<std::string, int> array_slots_;
  std::vector<std::string> array_names_;
  std::vector<std::uint64_t> array_elem_bytes_;
  std::map<std::string, int> scalar_slots_;
  std::vector<std::string> scalar_names_;
};

/// One dynamic execution of an assignment statement.
struct Instance {
  /// Index of the enclosing top-level statement in Program::top().
  std::int32_t top_index = -1;
  /// Value of the outermost enclosing loop variable (0 when not in a loop);
  /// used by the observability checker's live-distance measure.
  std::int64_t outer_iter = 0;
  /// Loop-variable values outermost-to-innermost (diagnostics only).
  std::vector<std::int64_t> iters;
  /// The single location written (array element or scalar).
  Location write = 0;
  /// Locations read by the right-hand side, sorted (duplicates removed).
  std::vector<Location> reads;
  /// Semantic fingerprint of the right-hand side with loop variables
  /// resolved to their concrete values and numeric subtrees folded:
  /// invariant under loop-variable renaming, shifting (i -> i - s) and any
  /// other substitution that preserves the computed value's structure.
  std::uint64_t rhs_hash = 0;
  /// The statement has the reduction shape `s = s op expr` with s not
  /// otherwise appearing in expr (op one of +, min, max).
  bool reduction = false;
  ir::BinOp reduction_op = ir::BinOp::kAdd;

  /// "stmt #2 (i=5, j=3)" -- identifies the instance in diagnostics.
  std::string describe() const;
};

struct EventTrace {
  std::vector<Instance> instances;  // in execution order
  /// Total access events (reads + writes) across all instances.
  std::uint64_t event_count = 0;
  /// The budget was exhausted; `instances` is incomplete and the trace
  /// must not be used for certification.
  bool truncated = false;
};

/// Access events one traced program may emit. Beyond it an instance-level
/// check is reported as skipped (certification requires a complete
/// trace), so oversized programs degrade to structural validation.
inline constexpr std::uint64_t kMaxTraceEvents = 2'000'000;

/// Statically estimate the number of access events the trace would emit
/// (sum over assignments of trip-count x accesses; guards assumed taken).
/// Used to refuse oversized traces before paying for them.
std::uint64_t estimate_events(const ir::Program& program);

/// Enumerate the program's dynamic instances in execution order. The
/// program must already be structurally valid (validate_structure);
/// malformed programs cause diagnostics via `report` and a truncated
/// trace. Tracing stops once `max_events` access events were emitted.
EventTrace trace_program(const ir::Program& program, LocationSpace& space,
                         std::uint64_t max_events, Report* report);

/// The trace validators' shared preamble: structure-check both programs
/// (`role_a` / `role_b` name them in the diagnostic), run `precheck`
/// (false when it reported an error), refuse by static estimate, and
/// trace both into one LocationSpace within kMaxTraceEvents each. Returns
/// false when `report` is already final: an error, or a skipped check.
bool trace_pair(const ir::Program& a, const ir::Program& b,
                const std::string& role_a, const std::string& role_b,
                const std::function<bool()>& precheck, Report* report,
                LocationSpace* space, EventTrace* ta, EventTrace* tb);

}  // namespace bwc::verify
