// Free-space management for data devices.
//
// The allocator tracks which page ids are in use. Durability model: page
// allocations and frees happen inside system transactions whose log records
// (PageFormat / PageFree) update the allocator during restart redo, and each
// checkpoint embeds a serialized snapshot of the allocator so analysis can
// start from a consistent image (docs/ARCHITECTURE.md, "Page allocation
// durability").

#pragma once

#include <cstdint>
#include "common/sync.h"
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "common/statusor.h"
#include "storage/page.h"

namespace spf {

/// Bitmap-based page allocator. Thread-safe.
class PageAllocator {
 public:
  /// `num_pages` is the data-device capacity; ids [0, reserved) are
  /// pre-allocated for metadata (meta page, PRI partitions, ...).
  PageAllocator(uint64_t num_pages, uint64_t reserved);

  /// Allocates the lowest free page id. Fails with IOError when full.
  StatusOr<PageId> Allocate();

  /// Returns `id` to the free pool. Freeing a free page is a bug.
  void Free(PageId id);

  /// Marks `id` allocated (used by restart redo of PageFormat records and
  /// by checkpoint restore). Idempotent.
  void MarkAllocated(PageId id);

  /// Marks `id` free (restart redo of PageFree records). Idempotent.
  void MarkFree(PageId id);

  bool IsAllocated(PageId id) const;
  uint64_t allocated_count() const;
  uint64_t capacity() const { return num_pages_; }

  /// Serializes the full bitmap (checkpoint payload).
  std::string Serialize() const;

  /// Restores state from a Serialize() image.
  Status Deserialize(std::string_view data);

 private:
  const uint64_t num_pages_;
  mutable OrderedMutex mu_{LockRank::kStats};
  std::vector<bool> used_ SPF_GUARDED_BY(mu_);
  uint64_t allocated_ SPF_GUARDED_BY(mu_) = 0;
  uint64_t next_hint_ SPF_GUARDED_BY(mu_) = 0;
};

/// Registry of storage locations that have failed and must not be reused
/// (paper section 5.2.3: "the old, failed location can be ... registered in
/// an appropriate data structure to prevent future use (bad block list)").
class BadBlockList {
 public:
  void Add(PageId id);
  bool Contains(PageId id) const;
  uint64_t size() const;
  std::vector<PageId> All() const;

  std::string Serialize() const;
  Status Deserialize(std::string_view data);

 private:
  mutable OrderedMutex mu_{LockRank::kStats};
  std::vector<PageId> blocks_ SPF_GUARDED_BY(mu_);
};

}  // namespace spf
