#include "bwc/ir/program.h"

#include <algorithm>

#include "bwc/support/error.h"

namespace bwc::ir {

std::int64_t ArrayDecl::element_count() const {
  std::int64_t n = 1;
  for (std::int64_t e : extents) n *= e;
  return n;
}

std::int64_t ArrayDecl::linearize(
    const std::vector<std::int64_t>& indices) const {
  BWC_CHECK(indices.size() == extents.size(),
            "index arity mismatch for array " + name);
  // Column-major with 1-based indices: a[i,j] -> (i-1) + (j-1)*extent0.
  std::int64_t linear = 0;
  std::int64_t stride = 1;
  for (std::size_t d = 0; d < extents.size(); ++d) {
    const std::int64_t idx = indices[d] - 1;
    BWC_CHECK(idx >= 0 && idx < extents[d],
              "index out of bounds for array " + name + " dim " +
                  std::to_string(d) + ": " + std::to_string(indices[d]));
    linear += idx * stride;
    stride *= extents[d];
  }
  return linear;
}

void ArrayDecl::check_layout() const {
  const std::size_t rank = extents.size();
  if (!layout.order.empty()) {
    BWC_CHECK(layout.order.size() == rank,
              "layout order arity mismatch for array " + name);
    std::vector<bool> seen(rank, false);
    for (int d : layout.order) {
      BWC_CHECK(d >= 0 && static_cast<std::size_t>(d) < rank &&
                    !seen[static_cast<std::size_t>(d)],
                "layout order is not a permutation for array " + name);
      seen[static_cast<std::size_t>(d)] = true;
    }
  }
  if (!layout.pad.empty()) {
    BWC_CHECK(layout.pad.size() == rank,
              "layout pad arity mismatch for array " + name);
    for (std::int64_t p : layout.pad)
      BWC_CHECK(p >= 0, "layout pad must be non-negative for array " + name);
  }
}

std::int64_t ArrayDecl::padded_element_count() const {
  check_layout();
  std::int64_t n = 1;
  for (std::size_t k = 0; k < extents.size(); ++k) n *= padded_extent(k);
  return n;
}

std::vector<std::int64_t> ArrayDecl::layout_strides() const {
  check_layout();
  std::vector<std::int64_t> strides(extents.size(), 0);
  std::int64_t stride = 1;
  for (std::size_t k = 0; k < extents.size(); ++k) {
    strides[static_cast<std::size_t>(storage_dim(k))] = stride;
    stride *= padded_extent(k);
  }
  return strides;
}

std::int64_t ArrayDecl::layout_offset(
    const std::vector<std::int64_t>& indices) const {
  BWC_CHECK(indices.size() == extents.size(),
            "index arity mismatch for array " + name);
  const std::vector<std::int64_t> strides = layout_strides();
  std::int64_t offset = 0;
  for (std::size_t d = 0; d < extents.size(); ++d) {
    const std::int64_t idx = indices[d] - 1;
    BWC_CHECK(idx >= 0 && idx < extents[d],
              "index out of bounds for array " + name + " dim " +
                  std::to_string(d) + ": " + std::to_string(indices[d]));
    offset += idx * strides[d];
  }
  return offset;
}

ArrayId Program::add_array(const std::string& name,
                           std::vector<std::int64_t> extents,
                           std::uint64_t elem_bytes) {
  BWC_CHECK(!name.empty(), "array name must not be empty");
  BWC_CHECK(!has_array(name), "duplicate array name: " + name);
  BWC_CHECK(!extents.empty() && extents.size() <= 2,
            "arrays must be 1-D or 2-D");
  for (std::int64_t e : extents)
    BWC_CHECK(e >= 1, "array extents must be positive");
  BWC_CHECK(elem_bytes > 0, "element size must be positive");
  arrays_.push_back({name, std::move(extents), elem_bytes});
  return static_cast<ArrayId>(arrays_.size() - 1);
}

void Program::add_scalar(const std::string& name) {
  BWC_CHECK(!name.empty(), "scalar name must not be empty");
  BWC_CHECK(!has_scalar(name), "duplicate scalar name: " + name);
  scalars_.push_back(name);
}

const ArrayDecl& Program::array(ArrayId id) const {
  BWC_CHECK(id >= 0 && id < array_count(), "array id out of range");
  return arrays_[static_cast<std::size_t>(id)];
}

ArrayDecl& Program::mutable_array(ArrayId id) {
  BWC_CHECK(id >= 0 && id < array_count(), "array id out of range");
  return arrays_[static_cast<std::size_t>(id)];
}

ArrayId Program::array_id(const std::string& name) const {
  for (int i = 0; i < array_count(); ++i) {
    if (arrays_[static_cast<std::size_t>(i)].name == name) return i;
  }
  throw Error("unknown array: " + name);
}

bool Program::has_array(const std::string& name) const {
  return std::any_of(arrays_.begin(), arrays_.end(),
                     [&name](const ArrayDecl& a) { return a.name == name; });
}

bool Program::has_scalar(const std::string& name) const {
  return std::find(scalars_.begin(), scalars_.end(), name) != scalars_.end();
}

std::vector<int> Program::top_loop_indices() const {
  std::vector<int> indices;
  for (int i = 0; i < static_cast<int>(top_.size()); ++i) {
    if (top_[static_cast<std::size_t>(i)]->kind == StmtKind::kLoop)
      indices.push_back(i);
  }
  return indices;
}

void Program::mark_output_scalar(const std::string& name) {
  BWC_CHECK(has_scalar(name), "unknown output scalar: " + name);
  if (std::find(output_scalars_.begin(), output_scalars_.end(), name) ==
      output_scalars_.end())
    output_scalars_.push_back(name);
}

void Program::mark_output_array(ArrayId id) {
  BWC_CHECK(id >= 0 && id < array_count(), "array id out of range");
  if (!is_output_array(id)) output_arrays_.push_back(id);
}

bool Program::is_output_array(ArrayId id) const {
  return std::find(output_arrays_.begin(), output_arrays_.end(), id) !=
         output_arrays_.end();
}

std::vector<ArrayId> Program::interleave_group(int group) const {
  std::vector<ArrayId> members;
  if (group < 0) return members;
  for (int i = 0; i < array_count(); ++i) {
    if (arrays_[static_cast<std::size_t>(i)].layout.group == group)
      members.push_back(i);
  }
  return members;
}

Program Program::clone() const {
  Program p(name_);
  p.arrays_ = arrays_;
  p.scalars_ = scalars_;
  p.top_ = clone_list(top_);
  p.output_scalars_ = output_scalars_;
  p.output_arrays_ = output_arrays_;
  return p;
}

std::uint64_t Program::total_array_bytes() const {
  std::uint64_t total = 0;
  for (const auto& a : arrays_) total += a.byte_size();
  return total;
}

bool equal(const Program& a, const Program& b) {
  if (a.array_count() != b.array_count()) return false;
  for (int i = 0; i < a.array_count(); ++i) {
    const auto& da = a.array(i);
    const auto& db = b.array(i);
    if (da.name != db.name || da.extents != db.extents ||
        da.elem_bytes != db.elem_bytes || da.layout != db.layout)
      return false;
  }
  return a.scalars() == b.scalars() && equal(a.top(), b.top()) &&
         a.output_scalars() == b.output_scalars() &&
         a.output_arrays() == b.output_arrays();
}

ArrayAddressing resolve_addressing(const Program& program, ArrayId id) {
  const ArrayDecl& decl = program.array(id);
  decl.check_layout();
  ArrayAddressing out;
  if (decl.layout.group < 0) {
    out.addr_scale = decl.elem_bytes;
    out.member_offset = 0;
    out.alloc_bytes =
        static_cast<std::uint64_t>(decl.padded_element_count()) *
        decl.elem_bytes;
    out.owns_allocation = true;
    out.owner = id;
    return out;
  }
  const std::vector<ArrayId> members =
      program.interleave_group(decl.layout.group);
  BWC_CHECK(!members.empty(), "empty interleave group for array " + decl.name);
  const std::int64_t slots = decl.padded_element_count();
  std::uint64_t rank = 0;
  for (std::size_t m = 0; m < members.size(); ++m) {
    const ArrayDecl& member = program.array(members[m]);
    BWC_CHECK(member.elem_bytes == decl.elem_bytes &&
                  member.padded_element_count() == slots,
              "interleave group " + std::to_string(decl.layout.group) +
                  " members disagree on element size or padded extent");
    if (members[m] == id) rank = static_cast<std::uint64_t>(m);
  }
  const std::uint64_t group_size = members.size();
  out.addr_scale = group_size * decl.elem_bytes;
  out.member_offset = rank * decl.elem_bytes;
  out.alloc_bytes =
      static_cast<std::uint64_t>(slots) * group_size * decl.elem_bytes;
  out.owns_allocation = rank == 0;
  out.owner = members[0];
  return out;
}

std::vector<std::uint64_t> array_base_addresses(const Program& program) {
  std::uint64_t next = kArrayBaseAddress;
  std::vector<std::uint64_t> alloc_base(
      static_cast<std::size_t>(program.array_count()), 0);
  std::vector<std::uint64_t> bases;
  bases.reserve(alloc_base.size());
  for (ArrayId a = 0; a < program.array_count(); ++a) {
    const ArrayAddressing addressing = resolve_addressing(program, a);
    if (addressing.owns_allocation) {
      next = (next + kArrayAlignment - 1) / kArrayAlignment * kArrayAlignment;
      alloc_base[static_cast<std::size_t>(a)] = next;
      next += addressing.alloc_bytes;
    } else {
      alloc_base[static_cast<std::size_t>(a)] =
          alloc_base[static_cast<std::size_t>(addressing.owner)];
    }
    bases.push_back(alloc_base[static_cast<std::size_t>(a)] +
                    addressing.member_offset);
  }
  return bases;
}

}  // namespace bwc::ir
