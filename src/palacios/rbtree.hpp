// Red-black tree with operation instrumentation.
//
// Palacios maintains each guest's GPA->HPA memory map as a red-black tree
// whose entries map physically contiguous guest regions to physically
// contiguous host regions (paper section 4.4). XEMEM attachments of
// scattered host frames force one entry per page, and the paper measures
// (section 5.4) that the resulting inserts and re-balancing dominate guest
// attachment cost — removing them raises throughput from 3.99 GB/s to
// 8.79 GB/s on a 1 GB region.
//
// To reproduce that effect honestly, this is a from-scratch CLRS-style
// red-black tree that counts the structural work (nodes visited, rotations,
// recolorings) of every operation; the VMM charges simulated time
// proportional to those counts. A validate() routine checks the red-black
// invariants for the property tests.
//
// Nodes come from a pool of fixed-size blocks and return to a free list on
// erase, so a guest attach does not pay one heap allocation per page. Which
// node memory is used never changes the algorithm, so the counts are those
// of plain new/delete.
//
// A guest attach inserts an ascending run of page entries. seek() + link()
// let such a run skip the descents whose outcome is already known: one
// descent serves the overlap check and the insert, and a Finger on the last
// inserted node serves the next page (a finger search, after Guibas,
// McCreight, Plass and Roberts, STOC 1977). locate() + erase_at() share one
// descent the same way. They make the same changes to the tree as
// floor() + insert() and find() + erase(), and report the same counts.
#pragma once

#include <functional>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>  // no-op macros outside ASan builds
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

#include "common/assert.hpp"
#include "common/types.hpp"

namespace xemem::palacios {

/// Structural work performed by one tree operation; the basis of the VMM's
/// simulated-time charge for memory-map updates.
struct RbOpStats {
  u64 nodes_visited{0};
  u64 rotations{0};
  u64 recolorings{0};

  RbOpStats& operator+=(const RbOpStats& o) {
    nodes_visited += o.nodes_visited;
    rotations += o.rotations;
    recolorings += o.recolorings;
    return *this;
  }
};

template <typename K, typename V, typename Cmp = std::less<K>>
class RbTree {
  struct Node;

 public:
  /// What seek() found: the floor of the probe, as floor() returns it, the
  /// nodes floor() visits to find it, and the nil slot the probe descends to.
  class Seek {
   public:
    const K* key() const { return floor_ ? &floor_->key : nullptr; }
    V* value() const { return floor_ ? &floor_->value : nullptr; }
    u64 steps() const { return steps_; }

   private:
    friend class RbTree;
    Node* floor_{nullptr};   // greatest key <= probe
    Node* hi_{nullptr};      // least key > probe
    Node* parent_{nullptr};  // owner of the nil slot (the tree's nil if empty)
    u64 steps_{0};           // nodes on the path: depth(parent_), root = 1
    u64 epoch_{0};
  };

  /// What locate() found: the node holding the key, if any, and the nodes
  /// the descent visited.
  class Hit {
   public:
    V* value() const { return node_ ? &node_->value : nullptr; }
    u64 steps() const { return steps_; }

   private:
    friend class RbTree;
    Node* node_{nullptr};
    u64 steps_{0};
    u64 epoch_{0};
  };

  /// Where an ascending run of link() calls stands, kept by the caller from
  /// one call to the next: the node linked last, its depth, and the least
  /// key above the run's first probe. No key lies strictly between the two,
  /// so a later probe between them has the last node as its floor, and
  /// seek() need not descend from the root. Default-constructed, or after
  /// any other update of the tree, it holds nothing and seek() descends.
  class Finger {
    friend class RbTree;
    Node* last_{nullptr};
    Node* hi_{nullptr};
    u64 depth_{0};  // of last_, root = 1
    u64 epoch_{0};
  };

  RbTree() {
    nil_.color = Color::black;
    nil_.left = nil_.right = nil_.parent = &nil_;
    root_ = &nil_;
  }

  ~RbTree() { clear(); }

  RbTree(const RbTree&) = delete;
  RbTree& operator=(const RbTree&) = delete;

  u64 size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Insert key -> value. Returns (value slot, true) on success or
  /// (existing slot, false) if the key is already present.
  std::pair<V*, bool> insert(const K& key, V value, RbOpStats* stats = nullptr) {
    RbOpStats local;
    Node* parent = &nil_;
    Node* cur = root_;
    while (cur != &nil_) {
      ++local.nodes_visited;
      parent = cur;
      if (cmp_(key, cur->key)) {
        cur = cur->left;
      } else if (cmp_(cur->key, key)) {
        cur = cur->right;
      } else {
        if (stats) *stats += local;
        return {&cur->value, false};
      }
    }
    Node* n = attach(parent, key, std::move(value));
    insert_fixup(n, local, nullptr);
    if (stats) *stats += local;
    return {&n->value, true};
  }

  /// Find exact key.
  V* find(const K& key, RbOpStats* stats = nullptr) {
    const Hit h = locate(key);
    if (stats) stats->nodes_visited += h.steps_;
    return h.value();
  }
  const V* find(const K& key, RbOpStats* stats = nullptr) const {
    return const_cast<RbTree*>(this)->find(key, stats);
  }

  /// Greatest key <= @p key (interval lookup for region maps); nullptr pair
  /// members if no such key exists.
  std::pair<const K*, V*> floor(const K& key, RbOpStats* stats = nullptr) {
    const Seek s = descend(key);
    if (stats) stats->nodes_visited += s.steps_;
    return {s.key(), s.value()};
  }

  /// Remove @p key. Returns false if absent.
  bool erase(const K& key, RbOpStats* stats = nullptr) {
    const Hit h = locate(key);
    if (h.node_ == nullptr) {
      if (stats) stats->nodes_visited += h.steps_;
      return false;
    }
    erase_at(h, stats);
    return true;
  }

  /// floor(@p probe), plus where link() can insert a key next to that
  /// floor; steps() is what floor(probe) counts. If the finger's bracket
  /// [last, hi) holds the probe, the floor is the finger's last node, and
  /// the probe's nil slot is that node's right child or, when that is
  /// taken, the right child's left child: no descent. Otherwise one
  /// descent from the root.
  Seek seek(const K& probe, const Finger& f) {
    if (f.epoch_ != epoch_ || cmp_(probe, f.last_->key) ||
        (f.hi_ != nullptr && !cmp_(probe, f.hi_->key))) {
      return descend(probe);
    }
    Seek s;
    s.floor_ = f.last_;
    s.hi_ = f.hi_;
    s.parent_ = f.last_;
    s.steps_ = f.depth_;
    s.epoch_ = epoch_;
    if (s.parent_->right != &nil_) {
      // The right child is the leftmost node of last's right subtree: a
      // fix-up rotation that gives the new node a right child gives it its
      // old parent or grandparent, and leaves that node's left link nil.
      s.parent_ = s.parent_->right;
      ++s.steps_;
      XEMEM_ASSERT(s.parent_->left == &nil_);
    }
    return s;
  }

  /// Insert @p key at the nil slot @p s found, with no update in between.
  /// The key must lie strictly between the floor and the least key above
  /// the probe: insert(key) then descends to that same slot, and @p stats
  /// gets what insert(key) counts. Leaves @p finger on the new node, with
  /// its depth kept through the fix-up's rotations.
  V* link(const Seek& s, const K& key, V value, Finger& finger,
          RbOpStats* stats = nullptr) {
    XEMEM_ASSERT(s.epoch_ == epoch_);
    XEMEM_ASSERT(s.floor_ == nullptr || cmp_(s.floor_->key, key));
    XEMEM_ASSERT(s.hi_ == nullptr || cmp_(key, s.hi_->key));
    RbOpStats local;
    local.nodes_visited = s.steps_;
    Node* n = attach(s.parent_, key, std::move(value));
    Tracked t{n, s.steps_ + 1};
    insert_fixup(n, local, &t);
    finger.last_ = n;
    finger.hi_ = s.hi_;
    finger.depth_ = t.depth;
    finger.epoch_ = epoch_;
    if (stats) *stats += local;
    return &n->value;
  }

  /// Exact lookup whose result erase_at() can remove without descending
  /// again.
  Hit locate(const K& key) {
    Hit h;
    h.epoch_ = epoch_;
    for (Node* cur = root_; cur != &nil_;) {
      ++h.steps_;
      if (cmp_(key, cur->key)) {
        cur = cur->left;
      } else if (cmp_(cur->key, key)) {
        cur = cur->right;
      } else {
        h.node_ = cur;
        break;
      }
    }
    return h;
  }

  /// Erase the node @p h found, with no update in between. @p stats gets
  /// what erase(key) counts: the descent's steps plus the erase itself.
  void erase_at(const Hit& h, RbOpStats* stats = nullptr) {
    XEMEM_ASSERT(h.node_ != nullptr && h.epoch_ == epoch_);
    RbOpStats local;
    local.nodes_visited = h.steps_;
    erase_node(h.node_, local);
    if (stats) *stats += local;
  }

  /// In-order traversal.
  void for_each(const std::function<void(const K&, const V&)>& fn) const {
    walk(root_, fn);
  }

  void clear() {
    free_subtree(root_);
    root_ = &nil_;
    size_ = 0;
    ++epoch_;
    for (auto& b : blocks_) {
      ASAN_UNPOISON_MEMORY_REGION(b.get(), sizeof(Slot) * kBlockNodes);
    }
    blocks_.clear();
    free_ = nullptr;
    carved_ = kBlockNodes;
  }

  /// Node-pool blocks currently held (memory diagnostics and tests).
  u64 pool_blocks() const { return blocks_.size(); }

  /// Check every red-black invariant; used by the property tests.
  ///  1. the root is black;
  ///  2. no red node has a red child;
  ///  3. every root-to-leaf path has the same black height;
  ///  4. in-order keys are strictly increasing;
  ///  5. parent pointers are consistent.
  bool validate() const {
    if (root_ == &nil_) return true;
    if (root_->color != Color::black) return false;
    if (root_->parent != &nil_) return false;
    int black_height = -1;
    const K* prev = nullptr;
    return validate_rec(root_, 0, black_height, prev);
  }

 private:
  enum class Color : u8 { red, black };

  struct Node {
    K key;
    V value;
    Color color;
    Node* left;
    Node* right;
    Node* parent;
  };

  // One node's storage; while free it holds the free-list link instead,
  // and ASan builds poison it so a stale node pointer faults.
  union Slot {
    Slot* next;
    alignas(Node) unsigned char bytes[sizeof(Node)];
  };
  static constexpr u64 kBlockNodes = 256;

  void* take_slot() {
    Slot* s = free_;
    if (s != nullptr) {
      ASAN_UNPOISON_MEMORY_REGION(s, sizeof(Slot));
      free_ = s->next;
    } else {
      if (carved_ == kBlockNodes) {
        blocks_.push_back(std::make_unique_for_overwrite<Slot[]>(kBlockNodes));
        ASAN_POISON_MEMORY_REGION(blocks_.back().get(), sizeof(Slot) * kBlockNodes);
        carved_ = 0;
      }
      s = &blocks_.back()[carved_++];
      ASAN_UNPOISON_MEMORY_REGION(s, sizeof(Slot));
    }
    return s->bytes;
  }

  void release_node(Node* n) {
    n->~Node();
    Slot* s = reinterpret_cast<Slot*>(n);
    s->next = free_;
    free_ = s;
    ASAN_POISON_MEMORY_REGION(s, sizeof(Slot));
  }

  // A new red node under @p parent (the nil sentinel: as the root).
  Node* attach(Node* parent, const K& key, V value) {
    Node* n = new (take_slot())
        Node{key, std::move(value), Color::red, &nil_, &nil_, parent};
    if (parent == &nil_) {
      root_ = n;
    } else if (cmp_(key, parent->key)) {
      parent->left = n;
    } else {
      parent->right = n;
    }
    ++size_;
    ++epoch_;
    return n;
  }

  // One descent toward @p probe, as floor() walks it.
  Seek descend(const K& probe) {
    Seek s;
    s.parent_ = &nil_;
    s.epoch_ = epoch_;
    for (Node* cur = root_; cur != &nil_;) {
      ++s.steps_;
      s.parent_ = cur;
      if (cmp_(probe, cur->key)) {
        s.hi_ = cur;
        cur = cur->left;
      } else {
        s.floor_ = cur;  // cur->key <= probe
        cur = cur->right;
      }
    }
    return s;
  }

  // The node whose depth (root = 1) an insert fix-up keeps current. Every
  // rotation of the fix-up is at one of its ancestors, so the rotation
  // moves it by +1, 0 or -1 according to which subtree it lies in.
  struct Tracked {
    const Node* node;
    u64 depth;
  };

  void rotate_left(Node* x, RbOpStats& st, Tracked* t = nullptr) {
    ++st.rotations;
    Node* y = x->right;
    if (t != nullptr) {
      if (!cmp_(x->key, t->node->key)) {
        ++t->depth;  // x or its left subtree: one level down, below y
      } else if (!cmp_(t->node->key, y->key)) {
        --t->depth;  // y or its right subtree: one level up
      }
    }
    x->right = y->left;
    if (y->left != &nil_) y->left->parent = x;
    y->parent = x->parent;
    if (x->parent == &nil_) {
      root_ = y;
    } else if (x == x->parent->left) {
      x->parent->left = y;
    } else {
      x->parent->right = y;
    }
    y->left = x;
    x->parent = y;
  }

  void rotate_right(Node* x, RbOpStats& st, Tracked* t = nullptr) {
    ++st.rotations;
    Node* y = x->left;
    if (t != nullptr) {
      if (!cmp_(t->node->key, x->key)) {
        ++t->depth;  // x or its right subtree: one level down, below y
      } else if (!cmp_(y->key, t->node->key)) {
        --t->depth;  // y or its left subtree: one level up
      }
    }
    x->left = y->right;
    if (y->right != &nil_) y->right->parent = x;
    y->parent = x->parent;
    if (x->parent == &nil_) {
      root_ = y;
    } else if (x == x->parent->right) {
      x->parent->right = y;
    } else {
      x->parent->left = y;
    }
    y->right = x;
    x->parent = y;
  }

  void insert_fixup(Node* z, RbOpStats& st, Tracked* t) {
    while (z->parent->color == Color::red) {
      Node* gp = z->parent->parent;
      if (z->parent == gp->left) {
        Node* uncle = gp->right;
        if (uncle->color == Color::red) {
          z->parent->color = Color::black;
          uncle->color = Color::black;
          gp->color = Color::red;
          st.recolorings += 3;
          z = gp;
        } else {
          if (z == z->parent->right) {
            z = z->parent;
            rotate_left(z, st, t);
          }
          z->parent->color = Color::black;
          gp->color = Color::red;
          st.recolorings += 2;
          rotate_right(gp, st, t);
        }
      } else {
        Node* uncle = gp->left;
        if (uncle->color == Color::red) {
          z->parent->color = Color::black;
          uncle->color = Color::black;
          gp->color = Color::red;
          st.recolorings += 3;
          z = gp;
        } else {
          if (z == z->parent->left) {
            z = z->parent;
            rotate_right(z, st, t);
          }
          z->parent->color = Color::black;
          gp->color = Color::red;
          st.recolorings += 2;
          rotate_left(gp, st, t);
        }
      }
    }
    if (root_->color != Color::black) {
      root_->color = Color::black;
      ++st.recolorings;
    }
  }

  void transplant(Node* u, Node* v) {
    if (u->parent == &nil_) {
      root_ = v;
    } else if (u == u->parent->left) {
      u->parent->left = v;
    } else {
      u->parent->right = v;
    }
    v->parent = u->parent;
  }

  Node* minimum(Node* n, RbOpStats& st) {
    while (n->left != &nil_) {
      ++st.nodes_visited;
      n = n->left;
    }
    return n;
  }

  void erase_node(Node* z, RbOpStats& st) {
    Node* y = z;
    Color y_original = y->color;
    Node* x;
    if (z->left == &nil_) {
      x = z->right;
      transplant(z, z->right);
    } else if (z->right == &nil_) {
      x = z->left;
      transplant(z, z->left);
    } else {
      y = minimum(z->right, st);
      y_original = y->color;
      x = y->right;
      if (y->parent == z) {
        x->parent = y;  // x may be nil; CLRS relies on this
      } else {
        transplant(y, y->right);
        y->right = z->right;
        y->right->parent = y;
      }
      transplant(z, y);
      y->left = z->left;
      y->left->parent = y;
      y->color = z->color;
    }
    release_node(z);
    --size_;
    ++epoch_;
    if (y_original == Color::black) erase_fixup(x, st);
    // Restore the sentinel (transplant may have set its parent).
    nil_.parent = &nil_;
    nil_.left = nil_.right = &nil_;
  }

  void erase_fixup(Node* x, RbOpStats& st) {
    while (x != root_ && x->color == Color::black) {
      ++st.nodes_visited;
      if (x == x->parent->left) {
        Node* w = x->parent->right;
        if (w->color == Color::red) {
          w->color = Color::black;
          x->parent->color = Color::red;
          st.recolorings += 2;
          rotate_left(x->parent, st);
          w = x->parent->right;
        }
        if (w->left->color == Color::black && w->right->color == Color::black) {
          w->color = Color::red;
          ++st.recolorings;
          x = x->parent;
        } else {
          if (w->right->color == Color::black) {
            w->left->color = Color::black;
            w->color = Color::red;
            st.recolorings += 2;
            rotate_right(w, st);
            w = x->parent->right;
          }
          w->color = x->parent->color;
          x->parent->color = Color::black;
          w->right->color = Color::black;
          st.recolorings += 3;
          rotate_left(x->parent, st);
          x = root_;
        }
      } else {
        Node* w = x->parent->left;
        if (w->color == Color::red) {
          w->color = Color::black;
          x->parent->color = Color::red;
          st.recolorings += 2;
          rotate_right(x->parent, st);
          w = x->parent->left;
        }
        if (w->right->color == Color::black && w->left->color == Color::black) {
          w->color = Color::red;
          ++st.recolorings;
          x = x->parent;
        } else {
          if (w->left->color == Color::black) {
            w->right->color = Color::black;
            w->color = Color::red;
            st.recolorings += 2;
            rotate_left(w, st);
            w = x->parent->left;
          }
          w->color = x->parent->color;
          x->parent->color = Color::black;
          w->left->color = Color::black;
          st.recolorings += 3;
          rotate_right(x->parent, st);
          x = root_;
        }
      }
    }
    if (x->color != Color::black) {
      x->color = Color::black;
      ++st.recolorings;
    }
  }

  void walk(Node* n, const std::function<void(const K&, const V&)>& fn) const {
    if (n == &nil_) return;
    walk(n->left, fn);
    fn(n->key, n->value);
    walk(n->right, fn);
  }

  // Destroys the nodes only; clear() drops their blocks wholesale.
  void free_subtree(Node* n) {
    if (n == &nil_ || n == nullptr) return;
    free_subtree(n->left);
    free_subtree(n->right);
    n->~Node();
  }

  bool validate_rec(const Node* n, int blacks, int& expected, const K*& prev) const {
    if (n == &nil_) {
      if (expected < 0) expected = blacks;
      return blacks == expected;
    }
    if (n->color == Color::red &&
        (n->left->color == Color::red || n->right->color == Color::red)) {
      return false;
    }
    if (n->left != &nil_ && n->left->parent != n) return false;
    if (n->right != &nil_ && n->right->parent != n) return false;
    const int b = blacks + (n->color == Color::black ? 1 : 0);
    if (!validate_rec(n->left, b, expected, prev)) return false;
    if (prev != nullptr && !cmp_(*prev, n->key)) return false;
    prev = &n->key;
    return validate_rec(n->right, b, expected, prev);
  }

  // Sentinel nil node (CLRS-style); nil_.value is default-constructed and
  // never read.
  Node nil_{K{}, V{}, Color::black, nullptr, nullptr, nullptr};
  Node* root_;
  u64 size_{0};
  Cmp cmp_{};
  std::vector<std::unique_ptr<Slot[]>> blocks_;
  Slot* free_{nullptr};
  u64 carved_{kBlockNodes};  ///< slots handed out from blocks_.back()
  // Bumped by every update. A Seek, Hit or Finger records it and is stale
  // once it moves; default-constructed ones hold 0 and never match.
  u64 epoch_{1};
};

}  // namespace xemem::palacios
