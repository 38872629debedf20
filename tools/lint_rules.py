#!/usr/bin/env python3
"""Repo-specific lint rules (DESIGN.md §13).

Ten structural conventions that clang-tidy cannot express, enforced as
baselines so existing, reviewed occurrences stay legal while new ones fail
the lint CI job:

1. transport-choke-point — every envelope leaves through
   DsmSystem::send_envelope and every staged segment through Channel;
   calling send_envelope from anywhere else bypasses the FIFO fingerprint,
   traffic accounting, and tracing hooks that live there.  Calls are only
   allowed in the whitelisted transport files.

2. interned-stats-handles — hot-path files must intern StatsRegistry
   handles once (ctr_* pointers) instead of doing a by-name map lookup per
   event.  The per-file count of string-literal lookups may not grow.

3. no-compute-in-span — obs::ScopedSpan attributes virtual time to a
   bucket; calling compute()/flush_cpu() inside a span risks
   double-attribution, so the per-file count of such calls may not grow
   (the reviewed baseline cases charge fixed service costs deliberately).

4. declared-writes-only — both backends detect a write by its
   write_range declaration.  Release builds give every process one plain
   read-write heap; only checked builds (-DANOW_PROTOCOL_CHECKS) protect a
   real-backend process's app view, read-write on every valid page and
   PROT_NONE on every invalid one, so a fault there is an application bug,
   not an event to handle (DESIGN.md §14).  No sigaction call, and no
   signal() for SIGSEGV or SIGBUS, may appear under src/, so a write-trap
   path cannot come back beside the declared one.

5. one-collective-path — the master's collectives (fork, barrier release,
   GC prepare, terminate) leave through
   DsmSystem::fan_out_instructions, which picks the vehicle per
   destination: the star is the degenerate tree, not a second code path
   (DESIGN.md §12).  The per-file count of direct master-channel sends in
   system.cpp may not grow, and the global routing-mode predicates the
   star used to branch on may not reappear anywhere under src/.

6. lock-free-wait — the real backend's wait path is an eventcount on a
   futex word (DESIGN.md §14): a producer fences after its push and wakes
   only a parked process, and a park ends only on a wake, or on the
   ceiling that reports a lost wakeup.  src/exec/real_runtime.{hpp,cpp}
   may not include <mutex> or <condition_variable>, name std::mutex or
   std::condition_variable, or call wait_for or wait_until, so a lock on
   the post path or a timed backstop that hides a lost wakeup cannot come
   back.

7. sim-single-threaded — the simulator runs every fiber on the thread
   that calls Simulator::run, switching stacks in user space
   (src/sim/fiber.hpp).  Nothing under src/sim/ may include <thread>,
   <semaphore>, <mutex> or <condition_variable>, or call pthread_create:
   a second thread there would put a kernel handoff on every switch and
   make the event order depend on the OS scheduler.

8. commit-on-write — process memory is committed by its first write
   (DESIGN.md §10): a heap view reserves address space and each page is
   backed when it is first stored to, and storage overwritten at once
   (twins, diff-arena chunks) is allocated for overwrite.  No
   make_unique<std::uint8_t[]> or make_unique<uint8_t[]>, which zero-fills
   its buffer, may appear under src/, and no memset in src/exec/heap.cpp,
   so a whole-heap zero-fill cannot come back.

9. notices-in-one-type — a page's pending write notices keep one record
   per writer where one fetched full copy resolves the page, and the
   node's notice count is what the GC model charges (DESIGN.md §5).  Only
   src/dsm/protocol/pending_notices.{hpp,cpp} may call push_back,
   emplace_back, insert, erase or clear on a `pending` list or write
   pending_count_, so an engine cannot grow a list or move the count
   beside the type that keeps both exact.

10. one-fault-path — every fault, of one page or a range, in GC
   validation, the home engine's pre-delta validation or the checkpoint
   sweep, goes through DsmProcess::fault_in_pages, which batches full-page
   fetches per source (DESIGN.md §7).  Under src/ a PageRequest is built
   only inside that function (handle_page_request's forward copies the
   request it was sent, which does not count), and no blocking rpc( call
   may appear, so a per-page fetch cannot come back beside the batched
   one.

Exit code 0 = clean, 1 = violation (message names the rule and the line).
Run from anywhere: paths resolve relative to the repo root.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# --- rule 1: send_envelope call sites ------------------------------------

SEND_ENVELOPE_WHITELIST = {
    "src/dsm/system.hpp",
    "src/dsm/system.cpp",
    "src/dsm/process.cpp",
    "src/dsm/channel.hpp",
}

# --- rule 2: by-name stats lookups in hot-path files ---------------------
# Baseline = reviewed occurrences (handle interning at attach/ctor time plus
# the rare-event placement counters).  Lower is fine; higher fails.

STATS_LOOKUP_BASELINE = {
    "src/dsm/process.cpp": 2,
    "src/dsm/system.cpp": 7,
    "src/dsm/channel.hpp": 0,
    "src/dsm/protocol/lrc_engine.cpp": 3,
    "src/dsm/protocol/home_lrc_engine.cpp": 5,
}

# --- rule 3: compute()/flush_cpu() inside ScopedSpan scopes --------------
# Baseline = reviewed cases that charge a fixed fault/diff service cost
# inside the span on purpose (the span is the attribution target).

COMPUTE_IN_SPAN_BASELINE = {
    "src/dsm/process.cpp": 8,
}

# --- rule 4: writes are detected by declaration only ---------------------

FAULT_HANDLER_INSTALL = re.compile(
    r"\bsigaction\b|\bsignal\s*\(\s*SIG(?:SEGV|BUS)\b")

# --- rule 5: collective fan-outs go through fan_out_instructions ---------
# Baseline = the reviewed direct sends: point-to-point messages (lock
# grants, the expel-time terminate, the joiner's page map), the master's
# self-sends, and fan_out_instructions' own send.

MASTER_SEND_BASELINE = {
    "src/dsm/system.cpp": 7,
}

MODE_PREDICATES = ["topology_.active", "topology().active",
                   "tree_routes_collectives"]

# --- rule 6: the real backend's wait path takes no lock and no timer ----

WAIT_PATH_FILES = ["src/exec/real_runtime.hpp", "src/exec/real_runtime.cpp"]
WAIT_PATH_BANNED = re.compile(
    r"#\s*include\s*<(?:mutex|condition_variable)>"
    r"|\bstd::(?:mutex|condition_variable)\b|\bwait_(?:for|until)\b")

# --- rule 7: the simulator stays on one thread ---------------------------

SIM_DIR = "src/sim"
SIM_THREAD_HEADERS = ["thread", "semaphore", "mutex", "condition_variable"]

# --- rule 8: memory is committed by its first write ---------------------

ZERO_FILLED_BYTES = re.compile(
    r"\bmake_unique\s*<\s*(?:std::)?uint8_t\s*\[\]\s*>")
HEAP_FILE = "src/exec/heap.cpp"
HEAP_ZERO_FILL = re.compile(r"\bmemset\b")

# --- rule 9: pending write notices change only inside their type --------

NOTICE_FILES = {"src/dsm/protocol/pending_notices.hpp",
                "src/dsm/protocol/pending_notices.cpp"}
NOTICE_LIST_EDIT = re.compile(
    r"\bpending\s*(?:\.|->)\s*"
    r"(?:push_back|emplace_back|insert|erase|clear)\s*\(")
NOTICE_COUNT_WRITE = re.compile(
    r"\bpending_count_\s*(?:[-+*/%&|^]?=(?!=)|\+\+|--)"
    r"|(?:\+\+|--)\s*pending_count_\b")

# --- rule 10: one fault path ---------------------------------------------

RESOLVER_FILE = "src/dsm/process.cpp"
RESOLVER_DEF = re.compile(r"^\S.*\bDsmProcess::fault_in_pages\s*\(")
# A PageRequest made from fields: a braced or parenthesized temporary, or a
# named variable initialized that way or default-constructed.  A copy
# (`PageRequest f = req;`) and the type in a declaration do not match.
PAGE_REQUEST_BUILD = re.compile(
    r"(?<!struct )\bPageRequest\s*(?:[A-Za-z_]\w*\s*)?[{(;]")
BLOCKING_RPC = re.compile(r"\brpc\s*\(")

CODE_SUFFIXES = {".cpp", ".hpp"}
SCAN_DIRS = ["src", "bench", "tests", "examples"]


def strip_comments(line: str) -> str:
    """Drops //-comments; block comments are rare enough to handle crudely."""
    idx = line.find("//")
    return line[:idx] if idx >= 0 else line


def code_files():
    for d in SCAN_DIRS:
        root = REPO / d
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*")):
            if path.suffix in CODE_SUFFIXES:
                yield path


def rel(path: Path) -> str:
    return path.relative_to(REPO).as_posix()


def check_send_envelope(violations):
    call = re.compile(r"\bsend_envelope\s*\(")
    for path in code_files():
        name = rel(path)
        if name in SEND_ENVELOPE_WHITELIST:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if call.search(strip_comments(line)):
                violations.append(
                    f"{name}:{lineno}: [transport-choke-point] "
                    "send_envelope() called outside the whitelisted "
                    "transport files — stage through Channel instead"
                )


def check_stats_lookups(violations):
    # handle("...") is the approved interning idiom (one lookup at attach
    # time, pointer bumps afterwards); counter("...")/accum("...") are the
    # per-event lookups the rule limits.
    lookup = re.compile(r"\b(?:counter|accum)\s*\(\s*\"")
    for name, allowed in STATS_LOOKUP_BASELINE.items():
        path = REPO / name
        if not path.is_file():
            continue
        hits = []
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if lookup.search(strip_comments(line)):
                hits.append(lineno)
        if len(hits) > allowed:
            violations.append(
                f"{name}: [interned-stats-handles] {len(hits)} by-name "
                f"stats lookups (baseline {allowed}; lines {hits}) — intern "
                "a handle once instead of looking up per event"
            )


def count_compute_in_spans(path: Path):
    """Counts compute()/flush_cpu() calls lexically inside a scope that
    declared an obs::ScopedSpan (brace-depth heuristic)."""
    span_decl = re.compile(r"\bobs::ScopedSpan\b")
    compute_call = re.compile(r"\b(?:compute|flush_cpu)\s*\(")
    depth = 0
    span_depths = []  # brace depths holding a live span
    hits = []
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = strip_comments(raw)
        if span_decl.search(line):
            span_depths.append(depth)
        if span_depths and compute_call.search(line):
            hits.append(lineno)
        for ch in line:
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                while span_depths and depth <= span_depths[-1]:
                    span_depths.pop()
    return hits


def check_compute_in_span(violations):
    for name, allowed in COMPUTE_IN_SPAN_BASELINE.items():
        path = REPO / name
        if not path.is_file():
            continue
        hits = count_compute_in_spans(path)
        if len(hits) > allowed:
            violations.append(
                f"{name}: [no-compute-in-span] {len(hits)} compute()/"
                f"flush_cpu() calls inside ScopedSpan scopes (baseline "
                f"{allowed}; lines {hits}) — charge the cost outside the "
                "span or update the baseline with a review"
            )
    # Files not in the baseline get a zero allowance.
    for path in code_files():
        name = rel(path)
        if name in COMPUTE_IN_SPAN_BASELINE:
            continue
        hits = count_compute_in_spans(path)
        if hits:
            violations.append(
                f"{name}: [no-compute-in-span] compute()/flush_cpu() inside "
                f"a ScopedSpan scope at lines {hits}"
            )


def check_declared_writes_only(violations):
    for path in sorted((REPO / "src").rglob("*")):
        if path.suffix not in CODE_SUFFIXES:
            continue
        for lineno, raw in enumerate(path.read_text().splitlines(), 1):
            hit = FAULT_HANDLER_INSTALL.search(strip_comments(raw))
            if hit:
                violations.append(
                    f"{rel(path)}:{lineno}: [declared-writes-only] "
                    f"'{hit.group(0)}' — writes are detected by their "
                    "write_range declaration; do not install a fault "
                    "handler beside it"
                )


def check_one_collective_path(violations):
    send = re.compile(r"\bchannel\(kMasterUid\)\.send\(")
    for name, allowed in MASTER_SEND_BASELINE.items():
        path = REPO / name
        if not path.is_file():
            continue
        hits = [lineno for lineno, line in
                enumerate(path.read_text().splitlines(), 1)
                if send.search(strip_comments(line))]
        if len(hits) > allowed:
            violations.append(
                f"{name}: [one-collective-path] {len(hits)} direct "
                f"channel(kMasterUid).send( calls (baseline {allowed}; lines "
                f"{hits}) — send collectives through fan_out_instructions"
            )
    for path in sorted((REPO / "src").rglob("*")):
        if path.suffix not in CODE_SUFFIXES:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for token in MODE_PREDICATES:
                if token in line:
                    violations.append(
                        f"{rel(path)}:{lineno}: [one-collective-path] "
                        f"'{token}' — collectives have one path; decide by "
                        "the process's position in the tree instead"
                    )


def check_lock_free_wait(violations):
    for name in WAIT_PATH_FILES:
        path = REPO / name
        if not path.is_file():
            continue
        for lineno, raw in enumerate(path.read_text().splitlines(), 1):
            hit = WAIT_PATH_BANNED.search(strip_comments(raw))
            if hit:
                violations.append(
                    f"{name}:{lineno}: [lock-free-wait] '{hit.group(0)}' — "
                    "the wait path parks on a futex eventcount; post takes "
                    "no lock and a park ends only on a wake"
                )


def check_sim_single_threaded(violations):
    include = re.compile(r"#\s*include\s*<(%s)>" %
                         "|".join(SIM_THREAD_HEADERS))
    spawn = re.compile(r"\bpthread_create\b")
    for path in sorted((REPO / SIM_DIR).rglob("*")):
        if path.suffix not in CODE_SUFFIXES:
            continue
        for lineno, raw in enumerate(path.read_text().splitlines(), 1):
            line = strip_comments(raw)
            hit = include.search(line) or spawn.search(line)
            if hit:
                violations.append(
                    f"{rel(path)}:{lineno}: [sim-single-threaded] "
                    f"'{hit.group(0)}' — the simulator runs every fiber on "
                    "one thread; switch stacks, do not spawn threads"
                )


def check_commit_on_write(violations):
    for path in sorted((REPO / "src").rglob("*")):
        if path.suffix not in CODE_SUFFIXES:
            continue
        name = rel(path)
        for lineno, raw in enumerate(path.read_text().splitlines(), 1):
            line = strip_comments(raw)
            hit = ZERO_FILLED_BYTES.search(line)
            if not hit and name == HEAP_FILE:
                hit = HEAP_ZERO_FILL.search(line)
            if hit:
                violations.append(
                    f"{name}:{lineno}: [commit-on-write] '{hit.group(0)}' — "
                    "memory is committed by its first write; reserve it, "
                    "or allocate it for overwrite, instead of zero-filling"
                )


def check_notices_in_one_type(violations):
    for path in sorted((REPO / "src").rglob("*")):
        if path.suffix not in CODE_SUFFIXES:
            continue
        name = rel(path)
        if name in NOTICE_FILES:
            continue
        for lineno, raw in enumerate(path.read_text().splitlines(), 1):
            line = strip_comments(raw)
            hit = NOTICE_LIST_EDIT.search(line) or \
                NOTICE_COUNT_WRITE.search(line)
            if hit:
                violations.append(
                    f"{name}:{lineno}: [notices-in-one-type] "
                    f"'{hit.group(0)}' — change pending notices through "
                    "PendingNotices (src/dsm/protocol/pending_notices.hpp), "
                    "which keeps the records and the notice count exact"
                )


def resolver_lines(path: Path):
    """Line numbers of DsmProcess::fault_in_pages' definition, from its
    signature to the brace that closes its body."""
    lines = set()
    depth = 0
    inside = False
    opened = False
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = strip_comments(raw)
        if not inside and RESOLVER_DEF.search(line):
            inside = True
        if not inside:
            continue
        lines.add(lineno)
        for ch in line:
            if ch == "{":
                depth += 1
                opened = True
            elif ch == "}":
                depth -= 1
        if opened and depth == 0:
            break
    return lines


def check_one_fault_path(violations):
    resolver = resolver_lines(REPO / RESOLVER_FILE)
    for path in sorted((REPO / "src").rglob("*")):
        if path.suffix not in CODE_SUFFIXES:
            continue
        name = rel(path)
        for lineno, raw in enumerate(path.read_text().splitlines(), 1):
            line = strip_comments(raw)
            hit = BLOCKING_RPC.search(line)
            if not hit:
                hit = PAGE_REQUEST_BUILD.search(line)
                if hit and name == RESOLVER_FILE and lineno in resolver:
                    hit = None
            if hit:
                violations.append(
                    f"{name}:{lineno}: [one-fault-path] '{hit.group(0)}' — "
                    "fault pages in through DsmProcess::fault_in_pages, "
                    "which batches full-page fetches per source"
                )


def main() -> int:
    violations = []
    check_send_envelope(violations)
    check_stats_lookups(violations)
    check_compute_in_span(violations)
    check_declared_writes_only(violations)
    check_one_collective_path(violations)
    check_lock_free_wait(violations)
    check_sim_single_threaded(violations)
    check_commit_on_write(violations)
    check_notices_in_one_type(violations)
    check_one_fault_path(violations)
    if violations:
        for v in violations:
            print(v)
        print(f"lint_rules: {len(violations)} violation(s)")
        return 1
    print("lint_rules: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
