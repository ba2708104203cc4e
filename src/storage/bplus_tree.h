// In-memory B+-tree keyed by composite SQL values.
//
// Backs every clustered and secondary index in the engine. Keys are
// common::Row compared lexicographically with Value::Compare; payloads are
// a template parameter (the full row for clustered indexes, the primary key
// for secondary indexes).
//
// Duplicate keys are rejected (secondary indexes append the primary key to
// the key to make entries unique). Leaves are doubly linked for ordered
// range scans. Deletion rebalances (borrow-then-merge), so the tree stays
// within the usual occupancy bounds; tests/storage_bplus_tree_test.cc
// cross-checks against std::map under random workloads.
//
// Thread-compatibility: the tree itself is not synchronized; Table guards
// each tree with a shared_mutex, and transactional isolation is provided a
// level up by the 2PL lock manager.
#ifndef SQLCM_STORAGE_BPLUS_TREE_H_
#define SQLCM_STORAGE_BPLUS_TREE_H_

#include <cassert>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/value.h"

namespace sqlcm::storage {

/// Lexicographic three-way comparison of composite keys. A shorter key that
/// is a prefix of a longer one compares less (enables prefix scans).
inline int CompareKeys(const common::Row& a, const common::Row& b) {
  const size_t n = a.size() < b.size() ? a.size() : b.size();
  for (size_t i = 0; i < n; ++i) {
    const int c = a[i].Compare(b[i]);
    if (c != 0) return c;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

template <typename V>
class BPlusTree {
 public:
  /// Maximum keys per node; nodes split when exceeding this and rebalance
  /// below kMinKeys. 32 keeps nodes around one cache page for typical keys.
  static constexpr size_t kMaxKeys = 32;
  static constexpr size_t kMinKeys = kMaxKeys / 2;

  using Key = common::Row;

  BPlusTree() { root_ = NewLeaf(); }
  ~BPlusTree() { FreeNode(root_); }
  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Inserts; returns false (and leaves the tree unchanged) on duplicate.
  bool Insert(const Key& key, V value) {
    SplitResult split;
    if (!InsertRec(root_, key, std::move(value), &split)) return false;
    if (split.new_node != nullptr) {
      Internal* new_root = NewInternal();
      new_root->keys.push_back(std::move(split.separator));
      new_root->children.push_back(root_);
      new_root->children.push_back(split.new_node);
      root_ = new_root;
    }
    ++size_;
    return true;
  }

  /// Returns the payload for `key` or nullptr.
  V* Find(const Key& key) {
    Leaf* leaf = DescendToLeaf(key);
    const size_t i = LowerBoundIndex(leaf->keys, key);
    if (i < leaf->keys.size() && CompareKeys(leaf->keys[i], key) == 0) {
      return &leaf->values[i];
    }
    return nullptr;
  }
  const V* Find(const Key& key) const {
    return const_cast<BPlusTree*>(this)->Find(key);
  }

  /// Removes `key`; returns false if absent.
  bool Erase(const Key& key) {
    if (!EraseRec(root_, key)) return false;
    // Shrink the root when an internal root has a single child.
    if (!root_->leaf) {
      Internal* r = static_cast<Internal*>(root_);
      if (r->children.size() == 1) {
        root_ = r->children[0];
        r->children.clear();
        delete r;
      }
    }
    --size_;
    return true;
  }

  /// Forward iterator over (key, value) in key order.
  class Iterator {
   public:
    Iterator() = default;
    bool Valid() const { return leaf_ != nullptr; }
    const Key& key() const { return leaf_->keys[idx_]; }
    V& value() const { return leaf_->values[idx_]; }
    void Next() {
      if (++idx_ >= leaf_->keys.size()) {
        leaf_ = leaf_->next;
        idx_ = 0;
      }
    }

   private:
    friend class BPlusTree;
    Iterator(typename BPlusTree::Leaf* leaf, size_t idx)
        : leaf_(leaf), idx_(idx) {}
    typename BPlusTree::Leaf* leaf_ = nullptr;
    size_t idx_ = 0;
  };

  Iterator Begin() {
    Node* n = root_;
    while (!n->leaf) n = static_cast<Internal*>(n)->children.front();
    Leaf* leaf = static_cast<Leaf*>(n);
    if (leaf->keys.empty()) return Iterator();
    return Iterator(leaf, 0);
  }

  /// First entry with key >= `key`.
  Iterator LowerBound(const Key& key) {
    Leaf* leaf = DescendToLeaf(key);
    size_t i = LowerBoundIndex(leaf->keys, key);
    if (i >= leaf->keys.size()) {
      leaf = leaf->next;
      i = 0;
      if (leaf == nullptr || leaf->keys.empty()) return Iterator();
    }
    return Iterator(leaf, i);
  }

  /// Depth of the tree (1 = just a leaf); exercised by structural tests.
  size_t Depth() const {
    size_t d = 1;
    const Node* n = root_;
    while (!n->leaf) {
      n = static_cast<const Internal*>(n)->children.front();
      ++d;
    }
    return d;
  }

  /// Validates occupancy/order invariants; returns false on corruption.
  /// Test-only helper (O(n)).
  bool CheckInvariants() const {
    size_t counted = 0;
    bool ok = CheckNode(root_, /*is_root=*/true, nullptr, nullptr, &counted);
    return ok && counted == size_;
  }

 private:
  struct Node {
    explicit Node(bool is_leaf) : leaf(is_leaf) {}
    virtual ~Node() = default;
    const bool leaf;
    std::vector<Key> keys;
  };
  struct Internal final : Node {
    Internal() : Node(false) {}
    // children.size() == keys.size() + 1; subtree i holds keys < keys[i],
    // subtree i+1 holds keys >= keys[i].
    std::vector<Node*> children;
    ~Internal() override = default;
  };
  struct Leaf final : Node {
    Leaf() : Node(true) {}
    std::vector<V> values;
    Leaf* prev = nullptr;
    Leaf* next = nullptr;
    ~Leaf() override = default;
  };

  struct SplitResult {
    Key separator;
    Node* new_node = nullptr;
  };

  static Leaf* NewLeaf() { return new Leaf(); }
  static Internal* NewInternal() { return new Internal(); }

  static void FreeNode(Node* n) {
    if (!n->leaf) {
      for (Node* c : static_cast<Internal*>(n)->children) FreeNode(c);
    }
    delete n;
  }

  static size_t LowerBoundIndex(const std::vector<Key>& keys, const Key& key) {
    size_t lo = 0, hi = keys.size();
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (CompareKeys(keys[mid], key) < 0) lo = mid + 1;
      else hi = mid;
    }
    return lo;
  }

  /// Child index to descend into for `key`: first separator > key ... we use
  /// convention: go right on equality (subtree i+1 holds keys >= keys[i]).
  static size_t ChildIndex(const Internal* n, const Key& key) {
    size_t lo = 0, hi = n->keys.size();
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (CompareKeys(n->keys[mid], key) <= 0) lo = mid + 1;
      else hi = mid;
    }
    return lo;
  }

  Leaf* DescendToLeaf(const Key& key) const {
    Node* n = root_;
    while (!n->leaf) {
      Internal* in = static_cast<Internal*>(n);
      n = in->children[ChildIndex(in, key)];
    }
    return static_cast<Leaf*>(n);
  }

  // Returns false on duplicate key. On success, *split describes a new right
  // sibling if this node overflowed.
  bool InsertRec(Node* node, const Key& key, V value, SplitResult* split) {
    split->new_node = nullptr;
    if (node->leaf) {
      Leaf* leaf = static_cast<Leaf*>(node);
      const size_t i = LowerBoundIndex(leaf->keys, key);
      if (i < leaf->keys.size() && CompareKeys(leaf->keys[i], key) == 0) {
        return false;
      }
      leaf->keys.insert(leaf->keys.begin() + i, key);
      leaf->values.insert(leaf->values.begin() + i, std::move(value));
      if (leaf->keys.size() > kMaxKeys) SplitLeaf(leaf, split);
      return true;
    }
    Internal* in = static_cast<Internal*>(node);
    const size_t ci = ChildIndex(in, key);
    SplitResult child_split;
    if (!InsertRec(in->children[ci], key, std::move(value), &child_split)) {
      return false;
    }
    if (child_split.new_node != nullptr) {
      in->keys.insert(in->keys.begin() + ci, std::move(child_split.separator));
      in->children.insert(in->children.begin() + ci + 1, child_split.new_node);
      if (in->keys.size() > kMaxKeys) SplitInternal(in, split);
    }
    return true;
  }

  void SplitLeaf(Leaf* leaf, SplitResult* split) {
    Leaf* right = NewLeaf();
    const size_t mid = leaf->keys.size() / 2;
    right->keys.assign(std::make_move_iterator(leaf->keys.begin() + mid),
                       std::make_move_iterator(leaf->keys.end()));
    right->values.assign(std::make_move_iterator(leaf->values.begin() + mid),
                         std::make_move_iterator(leaf->values.end()));
    leaf->keys.resize(mid);
    leaf->values.resize(mid);
    // Key-ordered loads and rowid appends never refill the left half, so
    // the capacity it grew to before the split (about 2 * kMaxKeys slots
    // for kMaxKeys / 2 entries) would stay idle for good.
    leaf->keys.shrink_to_fit();
    leaf->values.shrink_to_fit();
    right->next = leaf->next;
    right->prev = leaf;
    if (leaf->next != nullptr) leaf->next->prev = right;
    leaf->next = right;
    split->separator = right->keys.front();
    split->new_node = right;
  }

  void SplitInternal(Internal* node, SplitResult* split) {
    Internal* right = NewInternal();
    const size_t mid = node->keys.size() / 2;
    // keys[mid] moves up as the separator; [mid+1, end) go right.
    split->separator = std::move(node->keys[mid]);
    right->keys.assign(std::make_move_iterator(node->keys.begin() + mid + 1),
                       std::make_move_iterator(node->keys.end()));
    right->children.assign(node->children.begin() + mid + 1,
                           node->children.end());
    node->keys.resize(mid);
    node->children.resize(mid + 1);
    split->new_node = right;
  }

  // Returns true if the key was found and erased. Rebalances children that
  // underflow.
  bool EraseRec(Node* node, const Key& key) {
    if (node->leaf) {
      Leaf* leaf = static_cast<Leaf*>(node);
      const size_t i = LowerBoundIndex(leaf->keys, key);
      if (i >= leaf->keys.size() || CompareKeys(leaf->keys[i], key) != 0) {
        return false;
      }
      leaf->keys.erase(leaf->keys.begin() + i);
      leaf->values.erase(leaf->values.begin() + i);
      return true;
    }
    Internal* in = static_cast<Internal*>(node);
    const size_t ci = ChildIndex(in, key);
    if (!EraseRec(in->children[ci], key)) return false;
    if (NodeKeyCount(in->children[ci]) < kMinKeys) Rebalance(in, ci);
    return true;
  }

  static size_t NodeKeyCount(const Node* n) { return n->keys.size(); }

  /// Fixes up child `ci` of `parent` after underflow: borrow from a sibling
  /// if it has spare keys, otherwise merge with a sibling.
  void Rebalance(Internal* parent, size_t ci) {
    Node* child = parent->children[ci];
    Node* left = ci > 0 ? parent->children[ci - 1] : nullptr;
    Node* right =
        ci + 1 < parent->children.size() ? parent->children[ci + 1] : nullptr;

    if (left != nullptr && left->keys.size() > kMinKeys) {
      BorrowFromLeft(parent, ci, left, child);
      return;
    }
    if (right != nullptr && right->keys.size() > kMinKeys) {
      BorrowFromRight(parent, ci, child, right);
      return;
    }
    if (left != nullptr) {
      MergeChildren(parent, ci - 1);
    } else if (right != nullptr) {
      MergeChildren(parent, ci);
    }
    // else: child is the only child (root case handled by caller).
  }

  void BorrowFromLeft(Internal* parent, size_t ci, Node* left, Node* child) {
    if (child->leaf) {
      Leaf* l = static_cast<Leaf*>(left);
      Leaf* c = static_cast<Leaf*>(child);
      c->keys.insert(c->keys.begin(), std::move(l->keys.back()));
      c->values.insert(c->values.begin(), std::move(l->values.back()));
      l->keys.pop_back();
      l->values.pop_back();
      parent->keys[ci - 1] = c->keys.front();
    } else {
      Internal* l = static_cast<Internal*>(left);
      Internal* c = static_cast<Internal*>(child);
      // Rotate through the parent separator.
      c->keys.insert(c->keys.begin(), std::move(parent->keys[ci - 1]));
      parent->keys[ci - 1] = std::move(l->keys.back());
      l->keys.pop_back();
      c->children.insert(c->children.begin(), l->children.back());
      l->children.pop_back();
    }
  }

  void BorrowFromRight(Internal* parent, size_t ci, Node* child, Node* right) {
    if (child->leaf) {
      Leaf* c = static_cast<Leaf*>(child);
      Leaf* r = static_cast<Leaf*>(right);
      c->keys.push_back(std::move(r->keys.front()));
      c->values.push_back(std::move(r->values.front()));
      r->keys.erase(r->keys.begin());
      r->values.erase(r->values.begin());
      parent->keys[ci] = r->keys.front();
    } else {
      Internal* c = static_cast<Internal*>(child);
      Internal* r = static_cast<Internal*>(right);
      c->keys.push_back(std::move(parent->keys[ci]));
      parent->keys[ci] = std::move(r->keys.front());
      r->keys.erase(r->keys.begin());
      c->children.push_back(r->children.front());
      r->children.erase(r->children.begin());
    }
  }

  /// Merges children `i` and `i+1` of `parent` into child `i`.
  void MergeChildren(Internal* parent, size_t i) {
    Node* left = parent->children[i];
    Node* right = parent->children[i + 1];
    if (left->leaf) {
      Leaf* l = static_cast<Leaf*>(left);
      Leaf* r = static_cast<Leaf*>(right);
      for (size_t k = 0; k < r->keys.size(); ++k) {
        l->keys.push_back(std::move(r->keys[k]));
        l->values.push_back(std::move(r->values[k]));
      }
      l->next = r->next;
      if (r->next != nullptr) r->next->prev = l;
      delete r;
    } else {
      Internal* l = static_cast<Internal*>(left);
      Internal* r = static_cast<Internal*>(right);
      l->keys.push_back(std::move(parent->keys[i]));
      for (auto& k : r->keys) l->keys.push_back(std::move(k));
      for (Node* c : r->children) l->children.push_back(c);
      r->children.clear();
      delete r;
    }
    parent->keys.erase(parent->keys.begin() + i);
    parent->children.erase(parent->children.begin() + i + 1);
  }

  bool CheckNode(const Node* n, bool is_root, const Key* lo, const Key* hi,
                 size_t* counted) const {
    if (!is_root && n->keys.size() < kMinKeys) return false;
    // Keys sorted and within (lo, hi].
    for (size_t i = 0; i + 1 < n->keys.size(); ++i) {
      if (CompareKeys(n->keys[i], n->keys[i + 1]) >= 0) return false;
    }
    if (!n->keys.empty()) {
      if (lo != nullptr && CompareKeys(n->keys.front(), *lo) < 0) return false;
      if (hi != nullptr && CompareKeys(n->keys.back(), *hi) >= 0) return false;
    }
    if (n->leaf) {
      *counted += n->keys.size();
      return static_cast<const Leaf*>(n)->keys.size() ==
             static_cast<const Leaf*>(n)->values.size();
    }
    const Internal* in = static_cast<const Internal*>(n);
    if (in->children.size() != in->keys.size() + 1) return false;
    for (size_t i = 0; i < in->children.size(); ++i) {
      const Key* child_lo = i == 0 ? lo : &in->keys[i - 1];
      const Key* child_hi = i == in->keys.size() ? hi : &in->keys[i];
      if (!CheckNode(in->children[i], false, child_lo, child_hi, counted)) {
        return false;
      }
    }
    return true;
  }

  Node* root_;
  size_t size_ = 0;
};

}  // namespace sqlcm::storage

#endif  // SQLCM_STORAGE_BPLUS_TREE_H_
