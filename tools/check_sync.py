#!/usr/bin/env python3
"""Sync-discipline firewall: keep raw mutexes out of the engine.

src/common/sync.h is the ONE place the engine declares lock primitives:
OrderedMutex / OrderedSharedMutex carry a LockRank from the engine-wide
lattice (checked at runtime under SPF_RANK_CHECK), the guard types carry
clang -Wthread-safety annotations, and CondVar waits keep the per-thread
held-rank stack exact. A raw std::mutex has none of that — it would be a
hole in the lock-order proof the TSan detect_deadlocks=1 CI jobs rely on.

This check greps src/ (everything except src/common/sync.h itself) for:

  * declarations of the raw standard primitives (std::mutex,
    std::shared_mutex, std::recursive_mutex, std::timed_mutex,
    std::condition_variable[_any], std::lock_guard, std::unique_lock,
    std::shared_lock, std::scoped_lock) and includes of their headers;
  * naked lowercase lock verbs (.lock(), ->try_lock_shared(), ...): the
    ranked wrappers spell them capitalized (Lock/TryLockShared), so a
    lowercase verb means someone is driving a primitive underneath the
    discipline layer.

Tests, benches, and examples may use std::mutex for their OWN harness
bookkeeping (merge maps, ack logs) — they are clients, not the engine —
so only src/ is scanned.

It also keeps the deleted v1 client facade deleted: in src/db, a public
raw-pointer entry point on the Database facade (a `Transaction* Begin`
declaration, or a facade verb taking `Transaction*` first) fails the
check. The private *Op internals the Txn handle drives (CommitTxn,
InsertOp, ...) do not match.

Exits non-zero listing every violation. Run from the repo root:

    python3 tools/check_sync.py
"""
import re
import sys
from pathlib import Path

# Raw standard primitives: forbidden anywhere in src/ outside sync.h.
RAW_PRIMITIVES = re.compile(
    r'std\s*::\s*('
    r'mutex|shared_mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|'
    r'shared_timed_mutex|condition_variable(?:_any)?|'
    r'lock_guard|unique_lock|shared_lock|scoped_lock'
    r')\b')

# Their headers: an include is the same hole one step earlier.
RAW_INCLUDES = re.compile(r'#\s*include\s*<(mutex|shared_mutex|'
                          r'condition_variable)>')

# Naked lowercase lock verbs on some object. The ranked wrappers expose
# ONLY capitalized verbs to engine code; the lowercase spellings exist
# solely inside sync.h (UniqueLock's Lockable surface for CondVar).
NAKED_VERBS = re.compile(
    r'(?:\.|->)\s*(?:try_)?(?:lock|unlock)(?:_shared)?\s*\(')

SYNC_RULES = [
    (RAW_PRIMITIVES, 'raw synchronization primitive'),
    (RAW_INCLUDES, 'raw synchronization header'),
    (NAKED_VERBS, 'naked lowercase lock verb'),
]

# src/db only: declarations that would resurrect the v1 facade surface.
FACADE_RULES = [
    # Transaction* Begin(  — the raw-handle factory.
    (re.compile(r'\bTransaction\s*\*\s*(?:Database\s*::\s*)?Begin\s*\('),
     'v1 facade entry point'),
    # Status Commit(Transaction* ...), Get(Transaction* ...), etc.
    (re.compile(r'\b(?:Commit|Abort|Insert|Update|Put|Delete|Get)\s*'
                r'\(\s*Transaction\s*\*'),
     'v1 facade entry point'),
]


def scan(path: Path, root: Path, rules: list) -> list:
    violations = []
    in_block_comment = False
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        code = line
        if in_block_comment:
            end = code.find('*/')
            if end < 0:
                continue
            code = code[end + 2:]
            in_block_comment = False
        # Strip line comments and (single-line) block comments.
        code = re.sub(r'/\*.*?\*/', '', code)
        start = code.find('/*')
        if start >= 0:
            code = code[:start]
            in_block_comment = True
        code = code.split('//')[0]
        for pattern, what in rules:
            if pattern.search(code):
                violations.append(
                    (path.relative_to(root), lineno, what, line.strip()))
                break
    return violations


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    src = root / 'src'
    exempt = src / 'common' / 'sync.h'
    violations = []
    count = 0
    for path in sorted(src.rglob('*.h')) + sorted(src.rglob('*.cpp')):
        if path == exempt:
            continue
        count += 1
        rules = SYNC_RULES
        if path.is_relative_to(src / 'db'):
            rules = SYNC_RULES + FACADE_RULES
        violations.extend(scan(path, root, rules))
    if violations:
        print('src/ firewall violations (locks: use OrderedMutex/'
              'OrderedSharedMutex, the guard types, and the capitalized lock '
              'verbs outside src/common/sync.h; the client API is Txn/'
              'WriteBatch, see db/session.h):')
        for rel, lineno, what, line in violations:
            print(f'  {rel}:{lineno}: {what}: {line}')
        return 1
    print(f'sync-discipline firewall: clean ({count} files)')
    return 0


if __name__ == '__main__':
    sys.exit(main())
