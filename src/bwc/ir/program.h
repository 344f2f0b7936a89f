// The Program container: array/scalar declarations, top-level statements,
// and the observable outputs that transformations must preserve.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bwc/ir/stmt.h"

namespace bwc::ir {

/// Explicit storage layout of an array: a permutation of its logical
/// dimensions, per-storage-position padding, and an optional inter-array
/// interleave group. A default-constructed layout is packed column-major
/// with one array per allocation -- exactly what every declaration meant
/// before layouts became explicit, so the default is always legal.
///
/// Layouts only change where elements sit in the simulated address space
/// (and therefore which cache lines and sets their accesses touch); the
/// logical element named by a subscript tuple -- and thus every computed
/// value -- is layout-invariant.
struct ArrayLayout {
  /// Storage order as logical dimension indices, fastest-varying first.
  /// Empty means identity (logical dim 0 fastest, the column-major
  /// default); otherwise a permutation of 0..rank-1.
  std::vector<int> order;
  /// Extra element slots appended to each *storage* position's extent
  /// (position 0 = fastest). Empty means no padding; otherwise one
  /// non-negative entry per dimension. Padding slots are never addressed.
  std::vector<std::int64_t> pad;
  /// Interleave group id: arrays sharing a non-negative id live element-
  /// interleaved (AoS) in one allocation, member rank by ArrayId order.
  /// -1 means ungrouped (SoA, its own allocation).
  int group = -1;

  bool is_default() const {
    return order.empty() && pad.empty() && group < 0;
  }
  friend bool operator==(const ArrayLayout&, const ArrayLayout&) = default;
};

/// A declared array: name, extents (1-D or 2-D, Fortran-style column-major
/// like the paper's a[i,j] examples), element size, and storage layout.
struct ArrayDecl {
  std::string name;
  std::vector<std::int64_t> extents;  // e.g. {N} or {N, N}
  std::uint64_t elem_bytes = 8;
  ArrayLayout layout;

  std::int64_t element_count() const;
  std::uint64_t byte_size() const {
    return static_cast<std::uint64_t>(element_count()) * elem_bytes;
  }
  /// Column-major linearization of indices (1-based, matching the paper's
  /// pseudo-code convention a[i,j] with i fastest). Layout-independent:
  /// this is the logical (storage vector) index of the element.
  std::int64_t linearize(const std::vector<std::int64_t>& indices) const;

  /// BWC_CHECKs that `layout` is well-formed for this declaration:
  /// `order` empty or a permutation of 0..rank-1, `pad` empty or one
  /// non-negative entry per dimension.
  void check_layout() const;

  /// Logical dimension stored at storage position k (fastest first).
  int storage_dim(std::size_t k) const {
    return layout.order.empty() ? static_cast<int>(k) : layout.order[k];
  }
  /// Extent at storage position k including its padding slots.
  std::int64_t padded_extent(std::size_t k) const {
    return extents[static_cast<std::size_t>(storage_dim(k))] +
           (layout.pad.empty() ? 0 : layout.pad[k]);
  }
  /// Element slots the laid-out array occupies (>= element_count()).
  std::int64_t padded_element_count() const;
  /// Per *logical* dimension: the element-slot stride of that dimension in
  /// the laid-out allocation (identity layout: {1, extent0, ...}).
  std::vector<std::int64_t> layout_strides() const;
  /// Element-slot offset of a (1-based) index tuple in the laid-out
  /// allocation. Equals linearize() under the default layout.
  std::int64_t layout_offset(const std::vector<std::int64_t>& indices) const;
};

class Program {
 public:
  Program() = default;
  explicit Program(std::string name) : name_(std::move(name)) {}

  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;
  Program(Program&&) = default;
  Program& operator=(Program&&) = default;

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  // -- Declarations --------------------------------------------------------
  ArrayId add_array(const std::string& name, std::vector<std::int64_t> extents,
                    std::uint64_t elem_bytes = 8);
  void add_scalar(const std::string& name);

  int array_count() const { return static_cast<int>(arrays_.size()); }
  const ArrayDecl& array(ArrayId id) const;
  ArrayDecl& mutable_array(ArrayId id);
  /// Lookup by name; throws when absent.
  ArrayId array_id(const std::string& name) const;
  bool has_array(const std::string& name) const;
  const std::vector<ArrayDecl>& arrays() const { return arrays_; }
  const std::vector<std::string>& scalars() const { return scalars_; }
  bool has_scalar(const std::string& name) const;

  // -- Statements -----------------------------------------------------------
  StmtList& top() { return top_; }
  const StmtList& top() const { return top_; }
  void append(StmtPtr s) { top_.push_back(std::move(s)); }

  /// Indices into top() of the loop statements, in program order. These are
  /// the nodes of the fusion graph.
  std::vector<int> top_loop_indices() const;

  // -- Observable outputs ---------------------------------------------------
  void mark_output_scalar(const std::string& name);
  void mark_output_array(ArrayId id);
  const std::vector<std::string>& output_scalars() const {
    return output_scalars_;
  }
  const std::vector<ArrayId>& output_arrays() const { return output_arrays_; }
  bool is_output_array(ArrayId id) const;

  /// Members of interleave group `group` in ArrayId (= member rank) order.
  std::vector<ArrayId> interleave_group(int group) const;

  Program clone() const;

  /// Total bytes of all declared arrays (the program's data footprint).
  std::uint64_t total_array_bytes() const;

 private:
  std::string name_;
  std::vector<ArrayDecl> arrays_;
  std::vector<std::string> scalars_;
  StmtList top_;
  std::vector<std::string> output_scalars_;
  std::vector<ArrayId> output_arrays_;
};

bool equal(const Program& a, const Program& b);

/// Resolved simulated addressing of one array under its layout and
/// interleave group: every element address is
///   allocation_base + member_offset + layout_offset * addr_scale.
/// Ungrouped arrays own a padded_element_count()*elem_bytes allocation with
/// addr_scale = elem_bytes. Group members share the rank-0 member's
/// allocation of padded_element_count()*G*elem_bytes, with addr_scale =
/// G*elem_bytes and member_offset = rank*elem_bytes. Group members must
/// agree on elem_bytes and padded element count (BWC_CHECKed).
struct ArrayAddressing {
  std::uint64_t addr_scale = 8;    // bytes between consecutive slots
  std::uint64_t member_offset = 0; // byte offset inside the allocation
  std::uint64_t alloc_bytes = 0;   // allocation size (owner's figure)
  bool owns_allocation = true;     // false for rank > 0 group members
  ArrayId owner = -1;              // allocation owner (self when ungrouped)
};
ArrayAddressing resolve_addressing(const Program& program, ArrayId id);

/// The allocation walk every executor and the layout-traffic estimator
/// share: in ArrayId order, each allocation owner is placed at the next
/// kArrayAlignment boundary from kArrayBaseAddress on, and group members
/// sit at their member_offset inside their owner's allocation. Pages by
/// default, like large-array allocation in real runtimes, so
/// physically-indexed cache models see realistic page-collision
/// behaviour. Returns each array's base address (its element 0 slot).
inline constexpr std::uint64_t kArrayBaseAddress = 1 << 20;
inline constexpr std::uint64_t kArrayAlignment = 4096;
std::vector<std::uint64_t> array_base_addresses(const Program& program);

}  // namespace bwc::ir
