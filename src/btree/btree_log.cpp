#include "btree/btree_log.h"

#include "btree/node_layout.h"
#include "common/coding.h"
#include "common/macros.h"
#include "storage/db_meta.h"

namespace spf {
namespace btree_log {

// --- encoders ----------------------------------------------------------------

std::string Encode(const InsertBody& b) {
  std::string out;
  PutLengthPrefixed(&out, b.key);
  PutLengthPrefixed(&out, b.value);
  out.push_back(b.had_ghost ? 1 : 0);
  PutLengthPrefixed(&out, b.old_value);
  return out;
}

std::string Encode(const MarkGhostBody& b) {
  std::string out;
  PutLengthPrefixed(&out, b.key);
  return out;
}

std::string Encode(const UpdateBody& b) {
  std::string out;
  PutLengthPrefixed(&out, b.key);
  PutLengthPrefixed(&out, b.old_value);
  PutLengthPrefixed(&out, b.new_value);
  return out;
}

std::string Encode(const ReclaimBody& b) {
  std::string out;
  PutFixed32(&out, static_cast<uint32_t>(b.keys.size()));
  for (const auto& k : b.keys) PutLengthPrefixed(&out, k);
  return out;
}

std::string Encode(const SplitBody& b) {
  std::string out;
  PutLengthPrefixed(&out, b.separator);
  PutFixed64(&out, b.new_child);
  return out;
}

std::string Encode(const AdoptParentBody& b) {
  std::string out;
  out.push_back(kAdoptTagParent);
  PutLengthPrefixed(&out, b.separator);
  PutFixed64(&out, b.child);
  return out;
}

std::string Encode(const AdoptChildBody& b) {
  std::string out;
  out.push_back(kAdoptTagChild);
  PutFixed64(&out, b.adopted_child);
  return out;
}

std::string Encode(const MigrateBody& b) {
  std::string out;
  PutFixed64(&out, b.old_child);
  PutFixed64(&out, b.new_child);
  return out;
}

std::string Encode(const GrowRootBody& b) {
  std::string out;
  PutFixed64(&out, b.old_root);
  PutFixed64(&out, b.new_root);
  return out;
}

std::string Encode(const FormatBody& b) {
  std::string out;
  PutFixed16(&out, b.page_type);
  PutLengthPrefixed(&out, b.node_content);
  return out;
}

std::string Encode(const ClrBody& b) {
  std::string out;
  out.push_back(static_cast<char>(b.action));
  PutLengthPrefixed(&out, b.key);
  PutLengthPrefixed(&out, b.value);
  return out;
}

// --- decoders ----------------------------------------------------------------

namespace {
Status Truncated() { return Status::Corruption("truncated log record body"); }
}  // namespace

StatusOr<InsertBody> DecodeInsert(std::string_view body) {
  InsertBody b;
  size_t off = 0;
  std::string_view key, value, old_value;
  if (!GetLengthPrefixed(body, &off, &key) ||
      !GetLengthPrefixed(body, &off, &value) || off >= body.size()) {
    return Truncated();
  }
  b.had_ghost = body[off] != 0;
  off++;
  if (!GetLengthPrefixed(body, &off, &old_value)) return Truncated();
  b.key = std::string(key);
  b.value = std::string(value);
  b.old_value = std::string(old_value);
  return b;
}

StatusOr<MarkGhostBody> DecodeMarkGhost(std::string_view body) {
  MarkGhostBody b;
  size_t off = 0;
  std::string_view key;
  if (!GetLengthPrefixed(body, &off, &key)) return Truncated();
  b.key = std::string(key);
  return b;
}

StatusOr<UpdateBody> DecodeUpdate(std::string_view body) {
  UpdateBody b;
  size_t off = 0;
  std::string_view key, ov, nv;
  if (!GetLengthPrefixed(body, &off, &key) ||
      !GetLengthPrefixed(body, &off, &ov) ||
      !GetLengthPrefixed(body, &off, &nv)) {
    return Truncated();
  }
  b.key = std::string(key);
  b.old_value = std::string(ov);
  b.new_value = std::string(nv);
  return b;
}

StatusOr<ReclaimBody> DecodeReclaim(std::string_view body) {
  ReclaimBody b;
  size_t off = 0;
  uint32_t n;
  if (!GetFixed32(body, &off, &n)) return Truncated();
  for (uint32_t i = 0; i < n; ++i) {
    std::string_view k;
    if (!GetLengthPrefixed(body, &off, &k)) return Truncated();
    b.keys.emplace_back(k);
  }
  return b;
}

StatusOr<SplitBody> DecodeSplit(std::string_view body) {
  SplitBody b;
  size_t off = 0;
  std::string_view sep;
  if (!GetLengthPrefixed(body, &off, &sep) ||
      !GetFixed64(body, &off, &b.new_child)) {
    return Truncated();
  }
  b.separator = std::string(sep);
  return b;
}

bool IsAdoptParent(std::string_view body) {
  return !body.empty() && body[0] == kAdoptTagParent;
}

StatusOr<AdoptParentBody> DecodeAdoptParent(std::string_view body) {
  if (body.empty() || body[0] != kAdoptTagParent) {
    return Status::Corruption("not an adopt-parent body");
  }
  AdoptParentBody b;
  size_t off = 1;
  std::string_view sep;
  if (!GetLengthPrefixed(body, &off, &sep) ||
      !GetFixed64(body, &off, &b.child)) {
    return Truncated();
  }
  b.separator = std::string(sep);
  return b;
}

StatusOr<AdoptChildBody> DecodeAdoptChild(std::string_view body) {
  if (body.empty() || body[0] != kAdoptTagChild) {
    return Status::Corruption("not an adopt-child body");
  }
  AdoptChildBody b;
  size_t off = 1;
  if (!GetFixed64(body, &off, &b.adopted_child)) return Truncated();
  return b;
}

StatusOr<MigrateBody> DecodeMigrate(std::string_view body) {
  MigrateBody b;
  size_t off = 0;
  if (!GetFixed64(body, &off, &b.old_child) ||
      !GetFixed64(body, &off, &b.new_child)) {
    return Truncated();
  }
  return b;
}

StatusOr<GrowRootBody> DecodeGrowRoot(std::string_view body) {
  GrowRootBody b;
  size_t off = 0;
  if (!GetFixed64(body, &off, &b.old_root) ||
      !GetFixed64(body, &off, &b.new_root)) {
    return Truncated();
  }
  return b;
}

StatusOr<FormatBody> DecodeFormat(std::string_view body) {
  FormatBody b;
  size_t off = 0;
  std::string_view content;
  if (!GetFixed16(body, &off, &b.page_type) ||
      !GetLengthPrefixed(body, &off, &content)) {
    return Truncated();
  }
  b.node_content = std::string(content);
  return b;
}

StatusOr<ClrBody> DecodeClr(std::string_view body) {
  if (body.empty()) return Truncated();
  ClrBody b;
  b.action = static_cast<ClrAction>(body[0]);
  size_t off = 1;
  std::string_view key, value;
  if (!GetLengthPrefixed(body, &off, &key) ||
      !GetLengthPrefixed(body, &off, &value)) {
    return Truncated();
  }
  b.key = std::string(key);
  b.value = std::string(value);
  return b;
}

// --- physical redo -----------------------------------------------------------

namespace {

/// Inserts (or revives) `key`->`value` in `node` during redo. Mirrors the
/// forward insert path's in-page effect.
Status RedoInsert(BTreeNode* node, std::string_view key, std::string_view value,
                  bool make_ghost = false) {
  auto fr = node->Find(key);
  if (fr.found) {
    // Revive path (or redo over a pre-existing ghost).
    SPF_RETURN_IF_ERROR(node->ReplaceValue(fr.slot, value));
    node->SetGhost(fr.slot, make_ghost);
    return Status::OK();
  }
  Status s = node->InsertLeafRecord(key, value, make_ghost);
  if (s.IsIOError()) {
    // Redo replays may carry ghosts that history reclaimed; reclaim and
    // retry (safe during redo — see docs/ARCHITECTURE.md, "Node layout:
    // fences, compaction and ghosts").
    std::vector<std::string> ghosts;
    for (uint16_t i = 0; i < node->slot_count(); ++i) {
      if (node->IsGhost(i)) ghosts.push_back(node->FullKeyAt(i));
    }
    node->ReclaimGhosts(ghosts);
    s = node->InsertLeafRecord(key, value, make_ghost);
  }
  return s;
}

}  // namespace

Status RedoBTreeRecord(const LogRecord& rec, PageView page) {
  switch (rec.type) {
    case LogRecordType::kPageFormat: {
      SPF_ASSIGN_OR_RETURN(FormatBody b, DecodeFormat(rec.body));
      // Formatting resets the page entirely (same effect as a successful
      // write of the initial image, section 5.1.2). The id comes from the
      // record: the frame may be freshly zeroed (redo into a new frame).
      page.Format(rec.page_id, static_cast<PageType>(b.page_type));
      if (!b.node_content.empty()) {
        SPF_RETURN_IF_ERROR(BTreeNode::InitFromContent(page, b.node_content));
      }
      return Status::OK();
    }
    case LogRecordType::kBTreeInsert: {
      SPF_ASSIGN_OR_RETURN(InsertBody b, DecodeInsert(rec.body));
      BTreeNode node(page);
      return RedoInsert(&node, b.key, b.value);
    }
    case LogRecordType::kBTreeMarkGhost: {
      SPF_ASSIGN_OR_RETURN(MarkGhostBody b, DecodeMarkGhost(rec.body));
      BTreeNode node(page);
      auto fr = node.Find(b.key);
      if (!fr.found) {
        return Status::Corruption("redo mark-ghost: key missing");
      }
      node.SetGhost(fr.slot, true);
      return Status::OK();
    }
    case LogRecordType::kBTreeUpdate: {
      SPF_ASSIGN_OR_RETURN(UpdateBody b, DecodeUpdate(rec.body));
      BTreeNode node(page);
      auto fr = node.Find(b.key);
      if (!fr.found) {
        return Status::Corruption("redo update: key missing");
      }
      return node.ReplaceValue(fr.slot, b.new_value);
    }
    case LogRecordType::kBTreeReclaimGhost: {
      SPF_ASSIGN_OR_RETURN(ReclaimBody b, DecodeReclaim(rec.body));
      BTreeNode node(page);
      node.ReclaimGhosts(b.keys);
      return Status::OK();
    }
    case LogRecordType::kBTreeSplit: {
      SPF_ASSIGN_OR_RETURN(SplitBody b, DecodeSplit(rec.body));
      BTreeNode node(page);
      node.ApplySplit(b.separator, b.new_child);
      return Status::OK();
    }
    case LogRecordType::kBTreeAdopt: {
      BTreeNode node(page);
      if (IsAdoptParent(rec.body)) {
        SPF_ASSIGN_OR_RETURN(AdoptParentBody b, DecodeAdoptParent(rec.body));
        return node.InsertBranchRecord(b.separator, b.child);
      }
      SPF_ASSIGN_OR_RETURN(AdoptChildBody b, DecodeAdoptChild(rec.body));
      (void)b;
      if (node.has_foster_child()) node.ClearFoster();
      return Status::OK();
    }
    case LogRecordType::kPageMigrate: {
      SPF_ASSIGN_OR_RETURN(MigrateBody b, DecodeMigrate(rec.body));
      BTreeNode node(page);
      if (node.has_foster_child() && node.foster_child() == b.old_child) {
        node.ReplaceFosterChild(b.new_child);
        return Status::OK();
      }
      if (!node.is_leaf()) {
        for (uint16_t s = 0; s < node.slot_count(); ++s) {
          if (node.ChildAt(s) == b.old_child) {
            node.ReplaceChild(s, b.new_child);
            return Status::OK();
          }
        }
      }
      // Idempotent redo: the pointer may already be swapped.
      return Status::OK();
    }
    case LogRecordType::kBTreeGrowRoot: {
      SPF_ASSIGN_OR_RETURN(GrowRootBody b, DecodeGrowRoot(rec.body));
      MetaView meta(page);
      if (!meta.valid()) {
        return Status::Corruption("grow-root redo on non-meta page");
      }
      meta.mutable_meta()->root_pid = b.new_root;
      return Status::OK();
    }
    case LogRecordType::kCompensation: {
      SPF_ASSIGN_OR_RETURN(ClrBody b, DecodeClr(rec.body));
      BTreeNode node(page);
      auto fr = node.Find(b.key);
      switch (b.action) {
        case ClrAction::kMarkGhost:
          if (fr.found) node.SetGhost(fr.slot, true);
          return Status::OK();
        case ClrAction::kRevive:
          if (!fr.found) {
            return Status::Corruption("redo CLR revive: key missing");
          }
          node.SetGhost(fr.slot, false);
          return Status::OK();
        case ClrAction::kRestoreValue:
          if (!fr.found) {
            return Status::Corruption("redo CLR restore: key missing");
          }
          return node.ReplaceValue(fr.slot, b.value);
        case ClrAction::kGhostWithValue: {
          if (!fr.found) {
            return Status::Corruption("redo CLR ghost+value: key missing");
          }
          SPF_RETURN_IF_ERROR(node.ReplaceValue(fr.slot, b.value));
          node.SetGhost(fr.slot, true);
          return Status::OK();
        }
      }
      return Status::Corruption("unknown CLR action");
    }
    default:
      SPF_CHECK(false) << "RedoBTreeRecord on non-btree record type "
                       << static_cast<int>(rec.type);
      return Status::Internal("unreachable");
  }
}

}  // namespace btree_log
}  // namespace spf
