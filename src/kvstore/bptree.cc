#include "kvstore/bptree.h"

#include <algorithm>
#include <cassert>

#include "util/hash.h"

namespace psmr::kvstore {

namespace {
using btree_core::kInfKey;
using btree_core::layout_ok;
using btree_core::leaf_find_eq;
using btree_core::leaf_lower_bound;
using btree_core::pad_tail;
using btree_core::sync_router;
}  // namespace

BPlusTree::BPlusTree() : root_(new Leaf()) {}

BPlusTree::~BPlusTree() { destroy(root_); }

void BPlusTree::clear() {
  destroy(root_);
  root_ = new Leaf();
  size_ = 0;
}

void BPlusTree::destroy(Node* node) {
  if (!node->leaf) {
    auto* inner = static_cast<Inner*>(node);
    for (int i = 0; i <= inner->count; ++i) destroy(inner->child[i]);
    delete inner;
  } else {
    delete static_cast<Leaf*>(node);
  }
}

std::optional<BPlusTree::Value> BPlusTree::find(Key k) const {
  Leaf* leaf = find_leaf(k);
  int pos = leaf_find_eq(leaf, k);
  if (pos < 0) return std::nullopt;
  return std::atomic_ref<Value>(leaf->vals[pos])
      .load(std::memory_order_relaxed);
}

bool BPlusTree::update(Key k, Value v) {
  Leaf* leaf = find_leaf(k);
  int pos = leaf_find_eq(leaf, k);
  if (pos < 0) return false;
  std::atomic_ref<Value>(leaf->vals[pos])
      .store(v, std::memory_order_relaxed);
  return true;
}

void BPlusTree::find_batch(const Key* keys, std::size_t n,
                           std::optional<Value>* out) const {
  constexpr std::size_t W = kBatchWidth;
  for (std::size_t i = 0; i < n; i += W) {
    const std::size_t m = n - i < W ? n - i : W;  // partial final wave
    const Node* cur[W];
    for (std::size_t w = 0; w < m; ++w) cur[w] = root_;
    // Lockstep descent (every leaf is at the same depth).  Each wave only
    // issues independent loads across the lanes: first every lane's router
    // probe, then every lane's segment scan + child step, so the
    // out-of-order core keeps all lanes' misses in flight together.
    while (!cur[0]->leaf) {
      int base[W];
      for (std::size_t w = 0; w < m; ++w) {
        const auto* in = static_cast<const Inner*>(cur[w]);
        base[w] = btree_core::router_seg_upper(in->router, keys[i + w]) *
                  btree_core::kSegment;
      }
      for (std::size_t w = 0; w < m; ++w) {
        const auto* in = static_cast<const Inner*>(cur[w]);
        int idx = base[w] +
                  btree_core::segment_upper(in->keys + base[w], keys[i + w]);
        if (idx > in->count) idx = in->count;
        cur[w] = in->child[idx];
      }
    }
    int base[W];
    for (std::size_t w = 0; w < m; ++w) {
      const auto* leaf = static_cast<const Leaf*>(cur[w]);
      base[w] = btree_core::router_seg_lower(leaf->router, keys[i + w]) *
                btree_core::kSegment;
      btree_core::prefetch_range(leaf->vals + base[w],
                                 btree_core::kSegment * sizeof(Value));
    }
    for (std::size_t w = 0; w < m; ++w) {
      const auto* leaf = static_cast<const Leaf*>(cur[w]);
      int pos = base[w] +
                btree_core::segment_lower(leaf->keys + base[w], keys[i + w]);
      if (pos < leaf->count && leaf->keys[pos] == keys[i + w]) {
        out[i + w] = std::atomic_ref<Value>(
                         const_cast<Value&>(leaf->vals[pos]))
                         .load(std::memory_order_relaxed);
      } else {
        out[i + w] = std::nullopt;
      }
    }
  }
}

// insert() and insert_rec() are the loop that preloads a KvService (ten
// million inserts at deployment set-up).  They are pinned to cache-line
// boundaries so that code-size changes elsewhere in the binary cannot move
// them: a 16-byte shift of this code was measured to swing set-up time by
// up to a quarter.
__attribute__((aligned(64))) bool BPlusTree::insert(Key k, Value v) {
  bool inserted = false;
  auto split = insert_rec(root_, k, v, inserted);
  if (split) {
    auto* new_root = new Inner();
    new_root->count = 1;
    new_root->keys[0] = split->separator;
    new_root->child[0] = root_;
    new_root->child[1] = split->right;
    root_ = new_root;
  }
  if (inserted) ++size_;
  return inserted;
}

__attribute__((aligned(64))) std::optional<BPlusTree::SplitResult>
BPlusTree::insert_rec(Node* node, Key k, Value v, bool& inserted) {
  if (node->leaf) {
    auto* leaf = static_cast<Leaf*>(node);
    int pos = leaf_lower_bound(leaf, k);
    if (pos < leaf->count && leaf->keys[pos] == k) {
      inserted = false;
      return std::nullopt;
    }
    for (int i = leaf->count; i > pos; --i) {
      leaf->keys[i] = leaf->keys[i - 1];
      leaf->vals[i] = leaf->vals[i - 1];
    }
    leaf->keys[pos] = k;
    leaf->vals[pos] = v;
    ++leaf->count;
    inserted = true;
    if (leaf->count <= kMaxEntries) {
      sync_router(leaf->router, leaf->keys);
      return std::nullopt;
    }

    // Split: right sibling takes the upper half — or, when the overflow was
    // a pure append (sequential load), just the minimum legal tail, so
    // sealed leaves stay ~88% full (btree_core::append_split_keep).
    auto* right = new Leaf();
    int keep = pos == leaf->count - 1
                   ? btree_core::append_split_keep(leaf->count)
                   : leaf->count / 2;
    right->count = leaf->count - keep;
    std::copy(leaf->keys + keep, leaf->keys + leaf->count, right->keys);
    std::copy(leaf->vals + keep, leaf->vals + leaf->count, right->vals);
    leaf->count = keep;
    pad_tail(leaf->keys, keep);
    sync_router(leaf->router, leaf->keys);
    sync_router(right->router, right->keys);
    right->next = leaf->next;
    leaf->next = right;
    return SplitResult{right->keys[0], right};
  }

  auto* inner = static_cast<Inner*>(node);
  int idx = btree_core::child_index(inner, k);
  auto child_split = insert_rec(inner->child[idx], k, v, inserted);
  if (!child_split) return std::nullopt;

  // Insert the new separator and right child at position idx.
  for (int i = inner->count; i > idx; --i) {
    inner->keys[i] = inner->keys[i - 1];
    inner->child[i + 1] = inner->child[i];
  }
  inner->keys[idx] = child_split->separator;
  inner->child[idx + 1] = child_split->right;
  ++inner->count;
  if (inner->count <= kMaxEntries) {
    sync_router(inner->router, inner->keys);
    return std::nullopt;
  }

  // Split the inner node: the key at `mid` moves up.  Append-driven
  // overflows split at the insertion point like leaves do.
  auto* right = new Inner();
  int mid = idx == inner->count - 1
                ? btree_core::append_split_keep(inner->count) - 1
                : inner->count / 2;
  Key up = inner->keys[mid];
  right->count = inner->count - mid - 1;
  std::copy(inner->keys + mid + 1, inner->keys + inner->count, right->keys);
  std::copy(inner->child + mid + 1, inner->child + inner->count + 1,
            right->child);
  inner->count = mid;
  pad_tail(inner->keys, mid);
  sync_router(inner->router, inner->keys);
  sync_router(right->router, right->keys);
  return SplitResult{up, right};
}

bool BPlusTree::erase(Key k) {
  bool erased = false;
  erase_rec(root_, k, erased);
  if (!root_->leaf && root_->count == 0) {
    auto* old = static_cast<Inner*>(root_);
    root_ = old->child[0];
    delete old;
  }
  if (erased) --size_;
  return erased;
}

bool BPlusTree::erase_rec(Node* node, Key k, bool& erased) {
  if (node->leaf) {
    auto* leaf = static_cast<Leaf*>(node);
    int pos = leaf_find_eq(leaf, k);
    if (pos < 0) {
      erased = false;
      return false;
    }
    for (int i = pos; i < leaf->count - 1; ++i) {
      leaf->keys[i] = leaf->keys[i + 1];
      leaf->vals[i] = leaf->vals[i + 1];
    }
    --leaf->count;
    leaf->keys[leaf->count] = kInfKey;
    sync_router(leaf->router, leaf->keys);
    erased = true;
    return leaf->count < kMinEntries;
  }

  auto* inner = static_cast<Inner*>(node);
  int idx = btree_core::child_index(inner, k);
  bool under = erase_rec(inner->child[idx], k, erased);
  if (under) rebalance_child(inner, idx);
  return inner->count < kMinEntries;
}

void BPlusTree::rebalance_child(Inner* parent, int idx) {
  Node* node = parent->child[idx];
  Node* left = idx > 0 ? parent->child[idx - 1] : nullptr;
  Node* right = idx < parent->count ? parent->child[idx + 1] : nullptr;

  if (node->leaf) {
    auto* cur = static_cast<Leaf*>(node);
    auto* l = static_cast<Leaf*>(left);
    auto* r = static_cast<Leaf*>(right);
    if (l && l->count > kMinEntries) {
      // Borrow the largest entry from the left sibling.
      for (int i = cur->count; i > 0; --i) {
        cur->keys[i] = cur->keys[i - 1];
        cur->vals[i] = cur->vals[i - 1];
      }
      cur->keys[0] = l->keys[l->count - 1];
      cur->vals[0] = l->vals[l->count - 1];
      ++cur->count;
      --l->count;
      l->keys[l->count] = kInfKey;
      sync_router(cur->router, cur->keys);
      sync_router(l->router, l->keys);
      parent->keys[idx - 1] = cur->keys[0];
      sync_router(parent->router, parent->keys);
      return;
    }
    if (r && r->count > kMinEntries) {
      // Borrow the smallest entry from the right sibling.
      cur->keys[cur->count] = r->keys[0];
      cur->vals[cur->count] = r->vals[0];
      ++cur->count;
      for (int i = 0; i < r->count - 1; ++i) {
        r->keys[i] = r->keys[i + 1];
        r->vals[i] = r->vals[i + 1];
      }
      --r->count;
      r->keys[r->count] = kInfKey;
      sync_router(cur->router, cur->keys);
      sync_router(r->router, r->keys);
      parent->keys[idx] = r->keys[0];
      sync_router(parent->router, parent->keys);
      return;
    }
    // Merge with a sibling (prefer left).
    Leaf* dst = l ? l : cur;
    Leaf* src = l ? cur : r;
    int sep = l ? idx - 1 : idx;
    std::copy(src->keys, src->keys + src->count, dst->keys + dst->count);
    std::copy(src->vals, src->vals + src->count, dst->vals + dst->count);
    dst->count += src->count;
    sync_router(dst->router, dst->keys);
    dst->next = src->next;
    delete src;
    for (int i = sep; i < parent->count - 1; ++i) {
      parent->keys[i] = parent->keys[i + 1];
      parent->child[i + 1] = parent->child[i + 2];
    }
    --parent->count;
    parent->keys[parent->count] = kInfKey;
    sync_router(parent->router, parent->keys);
    return;
  }

  auto* cur = static_cast<Inner*>(node);
  auto* l = static_cast<Inner*>(left);
  auto* r = static_cast<Inner*>(right);
  if (l && l->count > kMinEntries) {
    // Rotate right through the parent separator.
    for (int i = cur->count; i > 0; --i) {
      cur->keys[i] = cur->keys[i - 1];
      cur->child[i + 1] = cur->child[i];
    }
    cur->child[1] = cur->child[0];
    cur->keys[0] = parent->keys[idx - 1];
    cur->child[0] = l->child[l->count];
    ++cur->count;
    parent->keys[idx - 1] = l->keys[l->count - 1];
    --l->count;
    l->keys[l->count] = kInfKey;
    sync_router(cur->router, cur->keys);
    sync_router(l->router, l->keys);
    sync_router(parent->router, parent->keys);
    return;
  }
  if (r && r->count > kMinEntries) {
    // Rotate left through the parent separator.
    cur->keys[cur->count] = parent->keys[idx];
    cur->child[cur->count + 1] = r->child[0];
    ++cur->count;
    parent->keys[idx] = r->keys[0];
    for (int i = 0; i < r->count - 1; ++i) {
      r->keys[i] = r->keys[i + 1];
      r->child[i] = r->child[i + 1];
    }
    r->child[r->count - 1] = r->child[r->count];
    --r->count;
    r->keys[r->count] = kInfKey;
    sync_router(cur->router, cur->keys);
    sync_router(r->router, r->keys);
    sync_router(parent->router, parent->keys);
    return;
  }
  // Merge: left + separator + current (or current + separator + right).
  Inner* dst = l ? l : cur;
  Inner* src = l ? cur : r;
  int sep = l ? idx - 1 : idx;
  dst->keys[dst->count] = parent->keys[sep];
  std::copy(src->keys, src->keys + src->count, dst->keys + dst->count + 1);
  std::copy(src->child, src->child + src->count + 1,
            dst->child + dst->count + 1);
  dst->count += src->count + 1;
  sync_router(dst->router, dst->keys);
  delete src;
  for (int i = sep; i < parent->count - 1; ++i) {
    parent->keys[i] = parent->keys[i + 1];
    parent->child[i + 1] = parent->child[i + 2];
  }
  --parent->count;
  parent->keys[parent->count] = kInfKey;
  sync_router(parent->router, parent->keys);
}

void BPlusTree::for_each(const std::function<void(Key, Value)>& fn) const {
  for_each<const std::function<void(Key, Value)>&>(fn);
}

std::uint64_t BPlusTree::digest() const {
  std::uint64_t h = util::kFoldSeed;
  for_each([&h](Key k, Value v) { h = util::fold_kv(h, k, v); });
  return h;
}

int BPlusTree::height() const {
  int h = 1;
  Node* node = root_;
  while (!node->leaf) {
    node = static_cast<Inner*>(node)->child[0];
    ++h;
  }
  return h;
}

bool BPlusTree::validate() const {
  int leaf_depth = height();
  if (!validate_rec(root_, 1, leaf_depth, std::nullopt, std::nullopt)) {
    return false;
  }
  // The leaf chain must enumerate exactly size() keys in ascending order.
  std::size_t seen = 0;
  std::optional<Key> prev;
  bool ok = true;
  for_each([&](Key k, Value) {
    if (prev && *prev >= k) ok = false;
    prev = k;
    ++seen;
  });
  return ok && seen == size_;
}

bool BPlusTree::validate_rec(const Node* node, int depth, int leaf_depth,
                             std::optional<Key> lo,
                             std::optional<Key> hi) const {
  const bool is_root = node == root_;
  if (node->leaf) {
    if (depth != leaf_depth) return false;
    auto* leaf = static_cast<const Leaf*>(node);
    if (!is_root && leaf->count < kMinEntries) return false;
    if (leaf->count > kMaxEntries) return false;
    if (!layout_ok(leaf)) return false;
    for (int i = 0; i < leaf->count; ++i) {
      if (i > 0 && leaf->keys[i - 1] >= leaf->keys[i]) return false;
      if (lo && leaf->keys[i] < *lo) return false;
      if (hi && leaf->keys[i] >= *hi) return false;
    }
    return true;
  }
  auto* inner = static_cast<const Inner*>(node);
  if (!is_root && inner->count < kMinEntries) return false;
  if (is_root && inner->count < 1) return false;
  if (inner->count > kMaxEntries) return false;
  if (!layout_ok(inner)) return false;
  for (int i = 0; i < inner->count; ++i) {
    if (i > 0 && inner->keys[i - 1] >= inner->keys[i]) return false;
    if (lo && inner->keys[i] < *lo) return false;
    if (hi && inner->keys[i] > *hi) return false;
  }
  for (int i = 0; i <= inner->count; ++i) {
    std::optional<Key> clo = i == 0 ? lo : std::optional<Key>(inner->keys[i - 1]);
    std::optional<Key> chi =
        i == inner->count ? hi : std::optional<Key>(inner->keys[i]);
    if (!validate_rec(inner->child[i], depth + 1, leaf_depth, clo, chi)) {
      return false;
    }
  }
  return true;
}

}  // namespace psmr::kvstore
