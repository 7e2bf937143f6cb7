// sp::lint per-file rule catalog — the project invariants enforced as
// token patterns over one lint::SourceFile stream at a time (see
// DESIGN.md §3.5). The cross-file analyses live in semantic.h; the
// driver (lint.h) runs both over the same index and owns suppression
// application.
//
// Shipped per-file rules, each grounded in a subsystem contract:
//
//   determinism     No wall-clock or nondeterministic randomness in any
//                   detect/serve/pipeline path: `rand`/`srand`,
//                   `std::random_device`, `system_clock`, and argless
//                   `time(nullptr/NULL/0)` are banned outside src/synth/
//                   (whose hash-based seeding is the one sanctioned
//                   entropy source). Protects the serial/parallel
//                   byte-identity (PR 1) and crash-resume byte-identity
//                   (PR 3) guarantees.
//   atomics         `memory_order_relaxed` is allowed only inside
//                   src/obs/ (the sharded metric cells it was designed
//                   for); every other site must carry a suppression
//                   naming why relaxed is sound there. `volatile` is
//                   never a synchronization primitive and is flagged
//                   everywhere.
//   mmap-safety     In serve/: no non-const pointer may be minted from
//                   the sibdb mapping (`reinterpret_cast<T*>` with a
//                   non-const T, or any `const_cast`), and a
//                   `reinterpret_cast` whose operand derives from the
//                   mapped base (`data_`/`mapping`) must be preceded by
//                   a bounds check in the same function body.
//   header-hygiene  Library headers must not include <iostream> (static
//                   initialization + code bloat in every consumer) and
//                   must not contain `using namespace` at any scope.
//   lock-order      Every std::mutex-family member declaration carries a
//                   `// lock-order: <rank> <name>` annotation naming its
//                   place in the project lock hierarchy. The ranks
//                   themselves are verified by the cross-file
//                   `lock-rank` pass (semantic.h); at run time,
//                   ThreadSanitizer reports inversions on the threaded
//                   suites.
//
// Suppressions: `// sp-lint: <rule>-ok(<reason>)` on the finding's line
// or the line above suppresses one rule there; a file-scoped
// `// sp-lint-file: <rule>-ok(<reason>)` anywhere in the file suppresses
// the rule for the whole file (used where a file-level design comment
// already argues the invariant, e.g. the relaxed counters of
// serve/service.cpp). A suppression with an empty reason is itself a
// finding (rule `suppression`), and one that silences nothing is a
// `stale-suppression` finding: every escape hatch must say why, and
// must still be earning its keep (suppress.h).
#pragma once

#include <string_view>
#include <vector>

#include "lint/finding.h"
#include "lint/suppress.h"
#include "lint/token.h"

namespace sp::lint {

/// Runs the per-file rule catalog over one lexed file, appending raw
/// (unsuppressed, unsorted) findings. `path` is the path as walked
/// (rule applicability is path-based: src/obs/, serve/, src/synth/,
/// header extensions) and is copied into each finding; `blocks` are the
/// file's merged comment blocks (comment_blocks()). The driver applies
/// suppressions afterwards, so their use-tracking also spans the
/// semantic passes.
void run_file_rules(std::string_view path, const SourceFile& source,
                    const std::vector<CommentBlock>& blocks, std::vector<Finding>& findings);

}  // namespace sp::lint
