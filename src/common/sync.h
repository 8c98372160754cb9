// Sync discipline layer: the ONE place the engine declares mutexes.
//
// Three mechanisms turn the concurrency contract from prose into checked
// invariants:
//
//  1. Capability annotations (SPF_CAPABILITY / SPF_GUARDED_BY /
//     SPF_REQUIRES / ...) map onto clang's -Wthread-safety attributes, so
//     "this member is guarded by that mutex" is a compile-time claim: a
//     guarded access without the lock is a warning, and an error under
//     SPF_WERROR. GCC compiles the macros away (it has no analysis).
//
//  2. OrderedMutex / OrderedSharedMutex carry a static LockRank from the
//     engine-wide lattice below. With SPF_RANK_CHECK defined (the default
//     build; see CMakeLists), every blocking acquisition is checked
//     against a per-thread stack of held ranks and the process aborts on
//     an out-of-order acquisition — the dynamic complement to the static
//     analysis, and the proof obligation behind running TSan with
//     detect_deadlocks=1.
//
//  3. TSan's deadlock detector (detect_deadlocks=1) runs clean over the
//     frame latches through two measures. ResetIdentityForRecycle()
//     destroys and re-initializes a recycled frame latch so each
//     (frame, page) incarnation is a fresh sync object with a clean
//     vector clock. And because libtsan never purges lock-order edges —
//     measured: even destroy+reinit keeps them, so coupling edges would
//     accrete into spurious static cycles — TSan builds acquire
//     coupling-rank latches by spinning on try_lock, which records no
//     edge INTO the latch; every other rank stays fully deadlock-checked.
//
// Raw std::mutex / std::shared_mutex / std::condition_variable and naked
// .lock() spellings are forbidden outside this header; the
// tools/check_sync.py CI lint enforces it. Engine code uses the
// capitalized Lock()/Unlock() verbs and the guard types below.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <new>
#include <shared_mutex>
#include <thread>

/// 1 when compiling under ThreadSanitizer (GCC or clang spelling).
#if defined(__SANITIZE_THREAD__)
#define SPF_TSAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SPF_TSAN_ACTIVE 1
#endif
#endif
#ifndef SPF_TSAN_ACTIVE
#define SPF_TSAN_ACTIVE 0
#endif

// --- clang -Wthread-safety attribute macros ---------------------------------

#if defined(__clang__) && defined(__has_attribute)
#define SPF_TSA(x) __attribute__((x))
#else
#define SPF_TSA(x)  // no-op: GCC has no thread-safety analysis
#endif

/// Marks a type as a lockable capability ("mutex" names the kind in
/// diagnostics).
#define SPF_CAPABILITY(x) SPF_TSA(capability(x))
/// Marks an RAII type whose constructor acquires and destructor releases.
#define SPF_SCOPED_CAPABILITY SPF_TSA(scoped_lockable)
/// Member may only be read/written while holding `x`.
#define SPF_GUARDED_BY(x) SPF_TSA(guarded_by(x))
/// Pointee may only be dereferenced while holding `x`.
#define SPF_PT_GUARDED_BY(x) SPF_TSA(pt_guarded_by(x))
/// Function requires `...` held (exclusive) on entry; does not release.
#define SPF_REQUIRES(...) SPF_TSA(requires_capability(__VA_ARGS__))
/// Function requires `...` held (at least shared) on entry.
#define SPF_REQUIRES_SHARED(...) SPF_TSA(requires_shared_capability(__VA_ARGS__))
/// Function acquires `...` (exclusive) and holds it on return.
#define SPF_ACQUIRE(...) SPF_TSA(acquire_capability(__VA_ARGS__))
/// Function acquires `...` (shared) and holds it on return.
#define SPF_ACQUIRE_SHARED(...) SPF_TSA(acquire_shared_capability(__VA_ARGS__))
/// Function releases `...` (held exclusive on entry).
#define SPF_RELEASE(...) SPF_TSA(release_capability(__VA_ARGS__))
/// Function releases `...` (held shared on entry).
#define SPF_RELEASE_SHARED(...) SPF_TSA(release_shared_capability(__VA_ARGS__))
/// Function releases `...` held in either mode.
#define SPF_RELEASE_GENERIC(...) SPF_TSA(release_generic_capability(__VA_ARGS__))
/// Function tries to acquire; holds it iff the return value equals arg 1.
#define SPF_TRY_ACQUIRE(...) SPF_TSA(try_acquire_capability(__VA_ARGS__))
#define SPF_TRY_ACQUIRE_SHARED(...) \
  SPF_TSA(try_acquire_shared_capability(__VA_ARGS__))
/// Function must NOT be called with `...` held (anti-deadlock contract).
#define SPF_EXCLUDES(...) SPF_TSA(locks_excluded(__VA_ARGS__))
/// Runtime assertion that `x` is held (teaches the analysis, aborts never).
#define SPF_ASSERT_CAPABILITY(x) SPF_TSA(assert_capability(x))
#define SPF_ASSERT_SHARED_CAPABILITY(x) SPF_TSA(assert_shared_capability(x))
/// Function returns a reference to the capability `x`.
#define SPF_RETURN_CAPABILITY(x) SPF_TSA(lock_returned(x))
/// Escape hatch: function body is not analyzed. Use with a comment.
#define SPF_NO_THREAD_SAFETY_ANALYSIS SPF_TSA(no_thread_safety_analysis)

/// 1 when the runtime rank checker is compiled in (SPF_RANK_CHECK cmake
/// option), 0 otherwise — for tests that assert on held-stack depths.
#ifdef SPF_RANK_CHECK
#define SPF_RANK_CHECK_ENABLED 1
#else
#define SPF_RANK_CHECK_ENABLED 0
#endif

namespace spf {

// --- the rank lattice -------------------------------------------------------

/// Engine-wide lock ordering. A thread may BLOCKING-acquire a mutex only
/// if its rank is strictly greater than every rank it already holds —
/// ranks grow from the outermost orchestration locks down to leaf
/// counters, so deadlock cycles are impossible by construction. Two
/// sanctioned exceptions:
///
///  * equal-rank acquisition is allowed for kFrameLatch only: the Foster
///    B-tree's top-down latch coupling (parent held while the child is
///    latched) is deadlock-free by descent order, not by rank;
///  * TryLock* never blocks and therefore skips the order check entirely
///    (the buffer pool's victim-reservation try_lock and the scrubber's
///    never-block frame peeks rely on this).
///
/// The full table with the code paths that pin each edge lives in
/// docs/ARCHITECTURE.md ("Lock order").
enum class LockRank : uint16_t {
  kHarness = 10,        ///< chaos-driver schedule/violation state
  kLifecycle = 15,      ///< Start/Stop thread spawn-join serialization
  kLadder = 20,         ///< one recovery-ladder climb at a time
  kRecoverMedia = 25,   ///< rung-5 climbs (Database::recover_media_mu_)
  kDaemonCadence = 30,  ///< scrubber sweep_mu_, archiver tick_mu_
  kFrameLatch = 40,     ///< buffer-pool frame latches (coupling allowed)
  kCommitGate = 45,     ///< TxnManager::commit_gate_
  kTxnTable = 50,       ///< TxnManager::mu_ (active-txn table)
  kLockShard = 55,      ///< LockManager shard mutexes
  kRepairBatch = 60,    ///< RecoveryScheduler::batch_mu_
  kRepairWorkers = 65,  ///< batched-repair WorkerPool queue
  kBufferVictim = 70,   ///< BufferPool::victim_mu_ (clock hand / sweeps)
  kBufferShard = 75,    ///< BufferPool id->frame shard mutexes
  kPri = 80,            ///< PriManager chain state (log appends nest under)
  kPriIndex = 82,       ///< PageRecoveryIndex map (pure data, calls nothing)
  kRedoPlan = 83,       ///< restart RedoPlan entries (pure data, calls nothing)
  kFunnel = 85,         ///< RecoveryCoordinator entry/queue state
  kArchiveIo = 90,      ///< LogArchiver::io_mu_ (run extents)
  kArchiveDir = 95,     ///< LogArchiver::mu_ (directory + stats)
  kLogFlush = 100,      ///< LogManager::flush_mu_ (publisher order)
  kLogState = 105,      ///< LogManager::mu_ (reservation + staging)
  kRestoreGate = 110,   ///< RestoreGate::mu_ (admission / segments)
  kBackup = 115,        ///< BackupManager::mu_ (slots + catalog)
  kMirror = 118,        ///< MirrorBaseline state (held across mirror I/O)
  kServerQueue = 120,   ///< NetworkServer connection registry
  kDevice = 125,        ///< SimDevice / SimLogDevice state
  kStats = 130,         ///< leaf counters; terminal — hold nothing beyond
};

/// Diagnostic name for a rank (abort messages, tests).
inline const char* LockRankName(LockRank r) {
  switch (r) {
    case LockRank::kHarness: return "harness";
    case LockRank::kLifecycle: return "lifecycle";
    case LockRank::kLadder: return "ladder";
    case LockRank::kRecoverMedia: return "recover-media";
    case LockRank::kDaemonCadence: return "daemon-cadence";
    case LockRank::kFrameLatch: return "frame-latch";
    case LockRank::kCommitGate: return "commit-gate";
    case LockRank::kTxnTable: return "txn-table";
    case LockRank::kLockShard: return "lock-shard";
    case LockRank::kRepairBatch: return "repair-batch";
    case LockRank::kRepairWorkers: return "repair-workers";
    case LockRank::kBufferVictim: return "buffer-victim";
    case LockRank::kBufferShard: return "buffer-shard";
    case LockRank::kPri: return "pri";
    case LockRank::kPriIndex: return "pri-index";
    case LockRank::kRedoPlan: return "redo-plan";
    case LockRank::kFunnel: return "funnel";
    case LockRank::kArchiveIo: return "archive-io";
    case LockRank::kArchiveDir: return "archive-dir";
    case LockRank::kLogFlush: return "log-flush";
    case LockRank::kLogState: return "log-state";
    case LockRank::kRestoreGate: return "restore-gate";
    case LockRank::kBackup: return "backup";
    case LockRank::kMirror: return "mirror";
    case LockRank::kServerQueue: return "server-queue";
    case LockRank::kDevice: return "device";
    case LockRank::kStats: return "stats";
  }
  return "?";
}

/// True when nested same-rank blocking acquisition is sanctioned: only the
/// frame latches, whose top-down coupling order (root toward leaf, foster
/// parent before foster child) is the B-tree's own deadlock-freedom proof.
inline constexpr bool RankAllowsCoupling(LockRank r) {
  return r == LockRank::kFrameLatch;
}

// --- per-thread held-rank stack (SPF_RANK_CHECK builds) ---------------------

namespace sync_internal {

#ifdef SPF_RANK_CHECK

inline constexpr int kMaxHeld = 64;

struct HeldStack {
  const void* mu[kMaxHeld];
  uint16_t rank[kMaxHeld];
  bool shared[kMaxHeld];
  int n = 0;
};

inline HeldStack& Held() {
  thread_local HeldStack stack;
  return stack;
}

[[noreturn]] inline void RankAbort(const char* what, LockRank rank) {
  HeldStack& h = Held();
  std::fprintf(stderr,
               "LOCK RANK VIOLATION: %s of rank %u (%s) while holding:\n",
               what, static_cast<unsigned>(rank),
               LockRankName(rank));
  for (int i = 0; i < h.n; ++i) {
    std::fprintf(stderr, "  held[%d]: rank %u (%s)\n", i, h.rank[i],
                 LockRankName(static_cast<LockRank>(h.rank[i])));
  }
  std::fprintf(stderr,
               "see docs/ARCHITECTURE.md \"Lock order\" for the lattice\n");
  std::abort();
}

/// Order check + push for a BLOCKING acquisition. Re-acquiring a lock the
/// thread already holds is a self-deadlock — except SHARED-on-SHARED at a
/// coupling rank: the buffer pool supports fixing the same page twice in
/// one thread with shared latches (recursive read locks are safe on the
/// reader-preferring rwlock this engine pins; a shared->exclusive upgrade
/// is never safe and always aborts).
inline void CheckedPush(const void* mu, LockRank rank, bool is_shared) {
  HeldStack& h = Held();
  uint16_t max_rank = 0;
  for (int i = 0; i < h.n; ++i) {
    if (h.mu[i] == mu &&
        !(is_shared && h.shared[i] && RankAllowsCoupling(rank))) {
      RankAbort("recursive acquisition", rank);
    }
    if (h.rank[i] > max_rank) max_rank = h.rank[i];
  }
  const uint16_t r = static_cast<uint16_t>(rank);
  if (r < max_rank ||
      (r == max_rank && !RankAllowsCoupling(rank))) {
    RankAbort("out-of-order blocking acquisition", rank);
  }
  if (h.n >= kMaxHeld) RankAbort("held-lock stack overflow", rank);
  h.mu[h.n] = mu;
  h.rank[h.n] = r;
  h.shared[h.n] = is_shared;
  h.n++;
}

/// Push without an order check (successful TryLock: it never blocked, so
/// it cannot close a wait cycle; it still counts as held for later checks).
inline void UncheckedPush(const void* mu, LockRank rank, bool is_shared) {
  HeldStack& h = Held();
  if (h.n >= kMaxHeld) RankAbort("held-lock stack overflow", rank);
  h.mu[h.n] = mu;
  h.rank[h.n] = static_cast<uint16_t>(rank);
  h.shared[h.n] = is_shared;
  h.n++;
}

/// Removes the most recent entry for `mu` (releases need not be LIFO).
inline void Pop(const void* mu) {
  HeldStack& h = Held();
  for (int i = h.n - 1; i >= 0; --i) {
    if (h.mu[i] != mu) continue;
    for (int j = i; j + 1 < h.n; ++j) {
      h.mu[j] = h.mu[j + 1];
      h.rank[j] = h.rank[j + 1];
      h.shared[j] = h.shared[j + 1];
    }
    h.n--;
    return;
  }
  std::fprintf(stderr, "LOCK RANK VIOLATION: release of a lock not held\n");
  std::abort();
}

/// Number of locks the calling thread holds (tests).
inline int HeldCount() { return Held().n; }

#else  // !SPF_RANK_CHECK

inline void CheckedPush(const void*, LockRank, bool) {}
inline void UncheckedPush(const void*, LockRank, bool) {}
inline void Pop(const void*) {}
inline int HeldCount() { return 0; }

#endif  // SPF_RANK_CHECK

}  // namespace sync_internal

// --- ranked mutexes ---------------------------------------------------------

/// std::mutex with a LockRank. Blocking Lock() enforces the lattice in
/// SPF_RANK_CHECK builds; TryLock() is the sanctioned escape hatch (never
/// blocks, never checked, still recorded as held).
class SPF_CAPABILITY("mutex") OrderedMutex {
 public:
  explicit OrderedMutex(LockRank rank) : rank_(rank) {}
  OrderedMutex(const OrderedMutex&) = delete;
  OrderedMutex& operator=(const OrderedMutex&) = delete;

  void Lock() SPF_ACQUIRE() {
    sync_internal::CheckedPush(this, rank_, /*is_shared=*/false);
    mu_.lock();
  }
  void Unlock() SPF_RELEASE() {
    mu_.unlock();
    sync_internal::Pop(this);
  }
  bool TryLock() SPF_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    sync_internal::UncheckedPush(this, rank_, /*is_shared=*/false);
    return true;
  }

  LockRank rank() const { return rank_; }

 private:
  std::mutex mu_;
  const LockRank rank_;
};

/// std::shared_mutex with a LockRank. Shared and exclusive acquisitions
/// obey the same lattice; ResetIdentityForRecycle() gives a recycled frame
/// latch a fresh TSan sync-object identity (see the file comment).
class SPF_CAPABILITY("shared_mutex") OrderedSharedMutex {
 public:
  explicit OrderedSharedMutex(LockRank rank) : rank_(rank) {}
  OrderedSharedMutex(const OrderedSharedMutex&) = delete;
  OrderedSharedMutex& operator=(const OrderedSharedMutex&) = delete;

  void Lock() SPF_ACQUIRE() {
    sync_internal::CheckedPush(this, rank_, /*is_shared=*/false);
#if SPF_TSAN_ACTIVE
    if (RankAllowsCoupling(rank_)) {
      while (!mu_.try_lock()) std::this_thread::yield();
      return;
    }
#endif
    mu_.lock();
  }
  void Unlock() SPF_RELEASE() {
    mu_.unlock();
    sync_internal::Pop(this);
  }
  bool TryLock() SPF_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    sync_internal::UncheckedPush(this, rank_, /*is_shared=*/false);
    return true;
  }
  void LockShared() SPF_ACQUIRE_SHARED() {
    sync_internal::CheckedPush(this, rank_, /*is_shared=*/true);
#if SPF_TSAN_ACTIVE
    // TSan's deadlock detector records a lock-order edge for every
    // BLOCKING acquisition and none for a successful try_lock (a try can
    // never close a wait cycle). Coupling-rank latches are ordered by
    // tree topology, not rank — over time frames are acquired in both
    // relative orders, and since libtsan keeps edges forever, blocking
    // acquisitions would accrete spurious deadlock cycles. Spinning on
    // try_lock keeps edges INTO these latches out of the graph; their
    // actual deadlock freedom is the B-tree's top-down descent protocol.
    if (RankAllowsCoupling(rank_)) {
      while (!mu_.try_lock_shared()) std::this_thread::yield();
      return;
    }
#endif
    mu_.lock_shared();
  }
  void UnlockShared() SPF_RELEASE_SHARED() {
    mu_.unlock_shared();
    sync_internal::Pop(this);
  }
  bool TryLockShared() SPF_TRY_ACQUIRE_SHARED(true) {
    if (!mu_.try_lock_shared()) return false;
    sync_internal::UncheckedPush(this, rank_, /*is_shared=*/true);
    return true;
  }

  LockRank rank() const { return rank_; }

  /// Destroys and re-initializes the underlying lock. The caller must
  /// guarantee the latch is free AND unreachable (the buffer pool calls
  /// this from the victim chooser after the frame is unmapped with
  /// pin_count 0, where both hold by the pin/latch invariant). Under
  /// TSan this retires the old sync object's vector clock, so the next
  /// page's accesses through this frame don't inherit happens-before
  /// state from the previous page's incarnation. (It does NOT purge
  /// deadlock-detector lock-order edges — libtsan keeps those past
  /// destruction; the coupling-rank try_lock spin above handles that.)
  void ResetIdentityForRecycle() {
    mu_.~shared_mutex();
    new (&mu_) std::shared_mutex();
  }

 private:
  std::shared_mutex mu_;
  const LockRank rank_;
};

// --- guards -----------------------------------------------------------------

/// Scope-exclusive lock on an OrderedMutex (lock_guard equivalent).
class SPF_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(OrderedMutex& mu) SPF_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~MutexLock() SPF_RELEASE() { mu_.Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  OrderedMutex& mu_;
};

/// Re-lockable exclusive lock on an OrderedMutex (unique_lock equivalent):
/// supports CondVar waits and manual Unlock()/Lock() windows. The
/// lowercase lock()/unlock() spellings exist ONLY to satisfy the standard
/// Lockable requirements of std::condition_variable_any; engine code
/// spells the capitalized verbs (tools/check_sync.py enforces it).
class SPF_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(OrderedMutex& mu) SPF_ACQUIRE(mu)
      : mu_(&mu), owned_(true) {
    mu_->Lock();
  }
  ~UniqueLock() SPF_RELEASE() {
    if (owned_) mu_->Unlock();
  }
  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void Lock() SPF_ACQUIRE() { lock(); }
  void Unlock() SPF_RELEASE() { unlock(); }
  bool owns_lock() const { return owned_; }

  // Standard Lockable surface for std::condition_variable_any.
  void lock() SPF_ACQUIRE() {
    mu_->Lock();
    owned_ = true;
  }
  void unlock() SPF_RELEASE() {
    owned_ = false;
    mu_->Unlock();
  }

 private:
  OrderedMutex* mu_;
  bool owned_;
};

/// Scope-shared lock on an OrderedSharedMutex.
class SPF_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(OrderedSharedMutex& mu) SPF_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderLock() SPF_RELEASE() { mu_.UnlockShared(); }
  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  OrderedSharedMutex& mu_;
};

/// Scope-exclusive lock on an OrderedSharedMutex. Movable so a factory
/// (TxnManager::LockCommitsForCheckpoint) can hand the held section to its
/// caller.
class SPF_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(OrderedSharedMutex& mu) SPF_ACQUIRE(mu) : mu_(&mu) {
    mu_->Lock();
  }
  WriterLock(WriterLock&& other) noexcept
      SPF_NO_THREAD_SAFETY_ANALYSIS : mu_(other.mu_) {
    other.mu_ = nullptr;
  }
  ~WriterLock() SPF_RELEASE() {
    if (mu_ != nullptr) mu_->Unlock();
  }
  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;
  WriterLock& operator=(WriterLock&&) = delete;

 private:
  OrderedSharedMutex* mu_;
};

/// The engine's condition variable: works with UniqueLock (and any
/// Lockable), so waits keep the rank bookkeeping exact — the wait's
/// internal unlock/relock goes through OrderedMutex and pops/pushes the
/// held stack like any other release/acquire.
using CondVar = std::condition_variable_any;

}  // namespace spf
