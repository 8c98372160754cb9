// Foster B-tree node layout (paper section 4.2, Figures 2 and 3).
//
// Every node carries TWO fence keys — copies of the separator keys posted
// to the parent when the node was split — so that every pointer traversal
// can verify the child against the parent (invariant B2), and a branch node
// with N child pointers carries N+1 key values (invariant B4). Nodes may
// temporarily have a FOSTER child: after a split, the old node acts as the
// temporary parent of the new node until the permanent parent adopts it.
// A foster parent additionally carries the high fence of the entire foster
// chain (invariant B3).
//
// Physical layout within a page:
//
//   [PageHeader 40B][BTreeNodeHeader][fence area: low|high|foster]
//   [record heap, grows up] ... free ... [slot array, grows down from end]
//
// Slot keys are stored with the node's key prefix stripped (prefix
// truncation, Bayer & Unterauer); the prefix is the longest common prefix
// of the two fence keys. Records carry a ghost bit (logical deletion,
// section 5.1.5). Deviation from the paper (docs/ARCHITECTURE.md, "Node
// layout: fences, compaction and ghosts"): fences live in a dedicated
// area rather than as ghost-record slots; this is a record-format detail
// with no behavioral consequence.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "common/statusor.h"
#include "storage/page.h"

namespace spf {

/// A key bound that may be -infinity (low end) or +infinity (high end).
struct KeyBound {
  std::string key;
  bool infinite = false;

  static KeyBound NegInf() { return {"", true}; }
  static KeyBound PosInf() { return {"", true}; }
  static KeyBound Finite(std::string_view k) {
    return {std::string(k), false};
  }

  bool operator==(const KeyBound& o) const {
    return infinite == o.infinite && (infinite || key == o.key);
  }
  std::string ToString() const { return infinite ? "<inf>" : key; }
};

/// Node subheader following the generic PageHeader.
struct BTreeNodeHeader {
  uint16_t level;            ///< 0 = leaf
  uint16_t slot_count;
  uint16_t heap_end;         ///< offset one past the last heap byte
  uint16_t ghost_count;
  PageId foster_child;       ///< kInvalidPageId if none
  uint16_t low_fence_len;
  uint16_t high_fence_len;
  uint16_t foster_fence_len; ///< chain-high key (valid iff foster child)
  uint16_t prefix_len;       ///< stripped from every slot key
  uint16_t flags;            ///< kNodeFlag* bits
  uint16_t pad;
};
static_assert(sizeof(BTreeNodeHeader) == 32);

constexpr uint16_t kNodeFlagLowInf = 0x1;     ///< low fence is -infinity
constexpr uint16_t kNodeFlagHighInf = 0x2;    ///< high fence is +infinity
constexpr uint16_t kNodeFlagFosterInf = 0x4;  ///< chain high is +infinity

constexpr uint32_t kNodeHeaderOffset = kPageHeaderSize;
constexpr uint32_t kFenceAreaOffset = kNodeHeaderOffset + sizeof(BTreeNodeHeader);

/// Per-record slot, stored in the slot array at the end of the page.
/// The ghost bit is the top bit of `length`.
struct Slot {
  uint16_t offset;
  uint16_t length;  // bit 15 = ghost
};
constexpr uint16_t kGhostBit = 0x8000;
constexpr uint32_t kSlotSize = sizeof(Slot);

/// Hard caps that guarantee split progress on the default page size.
constexpr size_t kMaxKeyLen = 512;
constexpr size_t kMaxValueLen = 1024;

/// Typed accessor over one B-tree node page. Non-owning; the caller holds
/// the page fixed in the buffer pool. All mutators are in-page only —
/// logging is the responsibility of the B-tree layer.
class BTreeNode {
 public:
  explicit BTreeNode(PageView page) : page_(page) {}

  // --- formatting ----------------------------------------------------------

  /// Formats `page` as a node. The page must already carry a valid
  /// PageHeader (PageView::Format). Fences fix the node's key range;
  /// `foster_child`/`foster_fence` set up a foster edge (or
  /// kInvalidPageId / don't-care).
  void Init(uint16_t level, const KeyBound& low, const KeyBound& high,
            PageId foster_child, const KeyBound& foster_fence);

  // --- header accessors ----------------------------------------------------

  uint16_t level() const { return header()->level; }
  bool is_leaf() const { return header()->level == 0; }
  uint16_t slot_count() const { return header()->slot_count; }
  uint16_t ghost_count() const { return header()->ghost_count; }
  uint16_t prefix_len() const { return header()->prefix_len; }
  PageId page_id() const { return page_.page_id(); }

  PageId foster_child() const { return header()->foster_child; }
  bool has_foster_child() const {
    return header()->foster_child != kInvalidPageId;
  }

  KeyBound low_fence() const;
  KeyBound high_fence() const;
  KeyBound foster_fence() const;

  /// Upper bound of the entire foster chain rooted at this node: the
  /// foster fence if a foster child exists, else the high fence (B3).
  KeyBound chain_high() const {
    return has_foster_child() ? foster_fence() : high_fence();
  }

  /// True iff `key` lies in [low_fence, high_fence) — invariant B1.
  bool CoversKey(std::string_view key) const;
  /// True iff `key` lies in [low_fence, chain_high) — the chain's range.
  bool ChainCoversKey(std::string_view key) const;

  // --- record access -------------------------------------------------------

  struct FindResult {
    uint16_t slot;  ///< position of the key, or insertion position
    bool found;
  };

  /// Binary search for `key` (full key, prefix included).
  FindResult Find(std::string_view key) const;

  /// Full key of slot `s` (prefix re-attached).
  std::string FullKeyAt(uint16_t s) const;
  /// Stored (prefix-stripped) key bytes of slot `s`.
  std::string_view KeySuffixAt(uint16_t s) const;

  /// Value bytes of a leaf record.
  std::string_view ValueAt(uint16_t s) const;
  /// Child pointer of a branch record.
  PageId ChildAt(uint16_t s) const;

  bool IsGhost(uint16_t s) const;
  void SetGhost(uint16_t s, bool ghost);

  /// Inserts a (key, value) leaf record or (key, child) branch record at
  /// the sorted position. Fails with IOError("node full") if space is
  /// insufficient even after compaction. `key` must fall inside the fence
  /// interval; inserting an existing key is a CHECK failure (callers
  /// resolve duplicates first).
  Status InsertLeafRecord(std::string_view key, std::string_view value,
                          bool ghost = false);
  Status InsertBranchRecord(std::string_view key, PageId child);

  /// Replaces the value of leaf slot `s`; handles growth via heap
  /// reallocation. Fails with IOError if the node is full.
  Status ReplaceValue(uint16_t s, std::string_view value);

  /// Replaces the child pointer of branch slot `s`.
  void ReplaceChild(uint16_t s, PageId child);

  /// Physically removes slot `s`.
  void RemoveSlot(uint16_t s);

  /// Physically removes all ghost records whose full key is in `keys`
  /// (ghost reclamation). Returns the number removed.
  size_t ReclaimGhosts(const std::vector<std::string>& keys);

  /// Removes every slot with full key >= `sep` (split truncation).
  void TruncateFrom(std::string_view sep);

  /// Split bookkeeping on the foster parent: high fence becomes `sep`, the
  /// foster edge points at `new_child`, and the chain high is preserved.
  void ApplySplit(std::string_view sep, PageId new_child);

  /// Clears the foster edge after the permanent parent adopted the foster
  /// child; the high fence is unchanged (it already equals the separator).
  void ClearFoster();

  /// Redirects the foster pointer to a relocated foster child (page
  /// migration; the fences are unchanged because the content moved
  /// verbatim).
  void ReplaceFosterChild(PageId new_child);

  // --- branch navigation ---------------------------------------------------

  /// Branch only: the slot whose child covers `key` (largest i with
  /// slot-key_i <= key). Branch slot 0 always carries the low fence key.
  uint16_t FindChildSlot(std::string_view key) const;

  // --- space management ----------------------------------------------------

  size_t FreeSpace() const;
  bool HasSpaceFor(size_t key_len, size_t payload_len) const;
  /// Rewrites the heap to squeeze out holes. Unlogged (redo is by key, so
  /// physical layout is free to differ; see docs/ARCHITECTURE.md, "Node
  /// layout: fences, compaction and ghosts").
  void Compact();

  // --- split support -------------------------------------------------------

  /// Chooses the separator for splitting this node roughly in half, with
  /// suffix truncation for leaves (shortest key that separates the halves,
  /// Bayer & Unterauer). Requires slot_count >= 2.
  std::string ChooseSeparator() const;

  // --- serialization (format records & backups) -----------------------------

  /// Serializes the full logical content (header fields, fences, records)
  /// for a PageFormat log record body.
  std::string SerializeContent() const;

  /// Rebuilds a node from SerializeContent() output. The PageHeader of
  /// `page` must already be formatted; PageLSN is not touched.
  static Status InitFromContent(PageView page, std::string_view content);

  // --- verification (section 4.2) -------------------------------------------

  /// In-node structural invariants: header sanity, sorted slots, every key
  /// inside the fences, prefix consistency, space accounting (B1, B4).
  Status VerifyInvariants() const;

  /// B2: this node's fences must match the separator keys adjacent to the
  /// pointer in the parent: low == parent's slot key, chain_high ==
  /// parent's next slot key (or the parent's high fence for the last slot).
  Status VerifyAsChildOf(const BTreeNode& parent, uint16_t parent_slot) const;

  /// B3: this node is `foster_parent`'s foster child: low fence equals the
  /// foster parent's high fence and the chain high keys agree.
  Status VerifyAsFosterChildOf(const BTreeNode& foster_parent) const;

  PageView page() { return page_; }

 private:
  BTreeNodeHeader* header() {
    return reinterpret_cast<BTreeNodeHeader*>(page_.data() + kNodeHeaderOffset);
  }
  const BTreeNodeHeader* header() const {
    return reinterpret_cast<const BTreeNodeHeader*>(page_.data() +
                                                    kNodeHeaderOffset);
  }

  /// Logical slot `s` lives at a count-independent address: the slot array
  /// grows downward from the page end, with slot 0 at the very end.
  Slot* SlotPtr(uint16_t s) {
    return reinterpret_cast<Slot*>(page_.data() + page_.size()) - (s + 1);
  }
  const Slot* SlotPtr(uint16_t s) const {
    return reinterpret_cast<const Slot*>(page_.data() + page_.size()) - (s + 1);
  }

  std::string_view fence_bytes(uint32_t offset, uint16_t len) const;
  uint32_t heap_start() const;
  uint32_t slot_array_start() const;

  /// Raw record bytes of slot s: [u16 key_suffix_len][suffix][payload].
  std::string_view RecordAt(uint16_t s) const;
  std::string_view PayloadAt(uint16_t s) const;

  /// Compares `key` (full) against slot `s`'s key. <0, 0, >0.
  int CompareKeyAt(uint16_t s, std::string_view key) const;

  /// Allocates `n` heap bytes, compacting if needed. Returns offset or 0
  /// if the node is full.
  uint32_t AllocHeap(size_t n);

  Status InsertRecordInternal(std::string_view key, std::string_view payload,
                              bool ghost);

  PageView page_;
};

}  // namespace spf
