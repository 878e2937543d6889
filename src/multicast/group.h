// Multicast groups and group sets.
//
// P-SMR organizes the k worker threads of every replica into k groups
// (thread t_i of each replica belongs to g_i) and the prototype adds one
// group g_all containing every thread (paper Section VI-A).  A command's
// destination γ is a set of groups computed by the C-G function.  We encode
// group sets as a 64-bit mask, so a deployment supports up to 63 worker
// groups — far beyond the paper's 8.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <string>

namespace psmr::multicast {

/// Index of a multicast group.  Worker groups are 0..k-1; the shared group
/// g_all is addressed via GroupSet::all(k), not an index.
using GroupId = std::uint32_t;

/// An immutable set of worker groups (bitmask).
class GroupSet {
 public:
  constexpr GroupSet() = default;

  static constexpr GroupSet single(GroupId g) {
    assert(g < 64);
    return GroupSet(std::uint64_t{1} << g);
  }
  /// The set {g_0, ..., g_{k-1}} — every worker group.
  static constexpr GroupSet all(std::size_t k) {
    assert(k > 0 && k <= 64);
    return GroupSet(k == 64 ? ~std::uint64_t{0}
                            : ((std::uint64_t{1} << k) - 1));
  }
  static constexpr GroupSet from_mask(std::uint64_t mask) {
    return GroupSet(mask);
  }

  [[nodiscard]] constexpr bool contains(GroupId g) const {
    return g < 64 && (mask_ >> g) & 1;
  }
  [[nodiscard]] constexpr std::size_t size() const {
    return static_cast<std::size_t>(std::popcount(mask_));
  }
  [[nodiscard]] constexpr bool empty() const { return mask_ == 0; }
  [[nodiscard]] constexpr bool singleton() const { return size() == 1; }

  /// Smallest group index in the set — the paper's deterministic choice of
  /// executing thread in synchronous mode (Algorithm 1, line 16).
  [[nodiscard]] constexpr GroupId min() const {
    assert(!empty());
    return static_cast<GroupId>(std::countr_zero(mask_));
  }

  [[nodiscard]] constexpr std::uint64_t mask() const { return mask_; }

  [[nodiscard]] constexpr GroupSet operator&(GroupSet o) const {
    return GroupSet(mask_ & o.mask_);
  }
  [[nodiscard]] constexpr GroupSet operator|(GroupSet o) const {
    return GroupSet(mask_ | o.mask_);
  }
  constexpr bool operator==(const GroupSet&) const = default;

  /// Calls fn(GroupId) for each member, ascending.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    std::uint64_t m = mask_;
    while (m != 0) {
      GroupId g = static_cast<GroupId>(std::countr_zero(m));
      fn(g);
      m &= m - 1;
    }
  }

  [[nodiscard]] std::string str() const {
    std::string out = "{";
    bool first = true;
    for_each([&](GroupId g) {
      if (!first) out += ",";
      out += std::to_string(g);
      first = false;
    });
    return out + "}";
  }

 private:
  constexpr explicit GroupSet(std::uint64_t mask) : mask_(mask) {}
  std::uint64_t mask_ = 0;
};

}  // namespace psmr::multicast
