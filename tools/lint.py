#!/usr/bin/env python3
"""Custom repo lints for LevelHeaded (dependency-free; python3 stdlib only).

Run from the repository root (the `lint` CMake target does this):

    python3 tools/lint.py [--list-rules] [paths...]

Rules (all findings are errors; the target requires zero):

  naked-new        `new` expressions outside smart-pointer factories. The
                   engine allocates through containers and make_unique; a
                   naked new is either a leak or a double-delete waiting for
                   an error path.
  banned-rand      `rand()` / `srand()`. All randomness goes through
                   util/rng.h (deterministic, seedable per workload).
  span-taxonomy    TraceSpan / Trace::Open phase names in src/ and bench/
                   must come from the phase taxonomy below; EXPLAIN ANALYZE
                   renderers, validate_stats, and the docs glossary key on
                   these exact strings.
  include-cycle    Cycles in the project `#include "..."` graph.
  global-state     New process-global mutable state in src/: non-const
                   `static` data declarations (function-local or namespace
                   scope) and `g_`-prefixed globals. Concurrent queries
                   share one process; cross-query state belongs in Engine
                   (per instance) or thread_local + explicit propagation
                   (see DESIGN.md §11). Synchronization primitives
                   (mutex/atomic/once_flag/condition_variable) are exempt.
  raw-socket       Raw POSIX socket/fd calls (socket/accept/bind/listen/
                   connect/recv/send/setsockopt/close/...) outside the
                   src/util wrappers. Sockets are owned by util/socket.h's
                   RAII types; a bare fd is a leak (and a stray close() a
                   double-close) on the first early return.
  walker-confined  The tree-walking evaluator (EvalNumber / EvalBool /
                   EvalValue and the CellAccessor interface) is confined to
                   src/baseline/ (its home, baseline/expr_walker.{h,cc})
                   and tests/. The engine evaluates every expression —
                   rows, HAVING and output expressions — only through the
                   compiled ExprProgram VM; the walker serves the pairwise
                   baseline and is the tests' oracle (DESIGN.md §15).
  vm-op-coverage   Every enumerator of the expression VM's `Op` enum
                   (src/core/expr_vm.h) must have a `case Op::k...` in
                   src/core/expr_vm.cc's dispatch switches. The VM decodes
                   with a default-less switch per execution mode; an op
                   added to the ISA without a handler would silently
                   evaluate as garbage.
  metrics-glossary Every counter name in `StatsSnapshot::Items()`
                   (src/obs/stats.cc) must appear in DESIGN.md's counter
                   glossary. Items() is the single source of truth for
                   names — the stats wire response, the Prometheus
                   exposition, and bench profiles all emit them — so an
                   undocumented counter is an undocumented public surface.
  mutex-annotations Locking in src/ goes through the annotated, ranked
                   wrappers (util/mutex.h): raw std::mutex/std::shared_mutex/
                   std::condition_variable/std::lock_guard/... are banned
                   outside util/mutex.h (clang Thread Safety Analysis cannot
                   see them), and every Mutex/SharedMutex member must either
                   guard something — an `LH_GUARDED_BY(<name>)` in the same
                   file — or carry a `// lint: unguarded(reason)` waiver
                   explaining what the lock protects instead (DESIGN.md §14).
  relaxed-atomics  Every `memory_order_relaxed` in src/ needs a same-line
                   comment or an immediately-preceding comment line
                   justifying why relaxed suffices (what the atomic tallies,
                   why nothing is published through it). Files funnel
                   clusters through a documented `kRelaxed` alias.
  signal-safety    Signal handler bodies (functions installed via
                   `sa_handler =` or `std::signal`) may only touch lock-free
                   atomics / sig_atomic_t: stdio, allocation, locks,
                   logging, and exit() are banned inside them.

Suppress a finding on one line with a trailing `// lint: allow(<rule>)`.
(`mutex-annotations` guard findings use `// lint: unguarded(reason)` so the
waiver carries the explanation.) `python3 tools/lint.py --selftest` runs the
rule engine against embedded positive/negative samples; CI's lint leg runs
both modes.
"""

import os
import re
import sys

REPO_DIRS = ["src", "tests", "bench", "examples", "tools"]
CXX_EXTENSIONS = (".h", ".cc")

# The TraceSpan phase taxonomy. One name per engine phase; EXPLAIN ANALYZE,
# the JSON profile schema, and DESIGN.md's phase glossary all key on these.
# Additions here must be mirrored in DESIGN.md ("Correctness harness").
SPAN_TAXONOMY = {
    "query",
    "parse",
    "bind",
    "plan",
    "hypergraph",
    "ghd_enumeration",
    "attr_ordering",
    "execute",
    "trie_build",
    "scan",
    "semijoin",
    "wcoj",
    "materialize",
    "dense_blas",
    "scatter",
}

# Rules that apply only under these directories.
SPAN_RULE_DIRS = ("src", "bench")
GLOBAL_STATE_DIRS = ("src",)

# --- walker-confined ---------------------------------------------------
WALKER_RE = re.compile(r"\b(?:EvalNumber|EvalBool|EvalValue|CellAccessor)\b")
WALKER_HOME_DIRS = (os.path.join("src", "baseline") + os.sep,
                    "tests" + os.sep)

# The only files allowed to touch the POSIX socket API directly.
RAW_SOCKET_EXEMPT_PREFIX = os.path.join("src", "util") + os.sep

ALLOW_RE = re.compile(r"//\s*lint:\s*allow\((?P<rule>[a-z-]+)\)")

NAKED_NEW_RE = re.compile(r"(?<![\w.>])new\b(?!\s*\()")
PLACEMENT_NEW_RE = re.compile(r"(?<![\w.>])new\s*\(")
BANNED_RAND_RE = re.compile(r"\b(?:s?rand)\s*\(")
SPAN_RE = re.compile(
    r"\bTraceSpan\s+\w+\s*\([^,()]*(?:\([^()]*\))?[^,()]*,\s*\"(?P<name>[^\"]*)\""
)
OPEN_RE = re.compile(r"(?:->|\.)Open\s*\(\s*\"(?P<name>[^\"]*)\"")
INCLUDE_RE = re.compile(r'^\s*#include\s+"(?P<path>[^"]+)"')

# `static` data declarations. Lines with a '(' are functions or calls;
# const/constexpr data is immutable; thread_local is per-thread by design;
# synchronization primitives and atomics are the sanctioned way to guard
# whatever state does exist.
STATIC_DATA_RE = re.compile(r"^\s*static\s+(?!assert\b)")
GLOBAL_STATE_EXEMPT_RE = re.compile(
    r"\(|\bconst\b|\bconstexpr\b|\bthread_local\b|\batomic\b|\bmutex\b"
    r"|\bonce_flag\b|\bcondition_variable\b")
GLOBAL_NAME_RE = re.compile(r"\bg_\w+")

# --- mutex-annotations -------------------------------------------------
# The only file allowed to touch the raw std synchronization types: the
# annotated wrapper layer itself.
MUTEX_WRAPPER_FILE = os.path.join("src", "util", "mutex.h")
RAW_SYNC_RE = re.compile(
    r"\bstd::(?:mutex|shared_mutex|recursive_mutex|timed_mutex"
    r"|condition_variable(?:_any)?|lock_guard|unique_lock|shared_lock"
    r"|scoped_lock)\b")
# A Mutex/SharedMutex data declaration: `Mutex name_{...}` / `Mutex name(...)`
# members and statics (type references like `Mutex&`, `Mutex*`, or the class
# definitions in util/mutex.h do not match).
MUTEX_DECL_RE = re.compile(
    r"\b(?:mutable\s+)?(?:Mutex|SharedMutex)\s+(?P<name>\w+)\s*[{(]")
UNGUARDED_WAIVER_RE = re.compile(r"//\s*lint:.*\bunguarded\(")

# --- relaxed-atomics ---------------------------------------------------
RELAXED_RE = re.compile(r"\bmemory_order_relaxed\b")

# --- signal-safety -----------------------------------------------------
HANDLER_REGISTRATION_RES = (
    re.compile(r"\.sa_handler\s*=\s*(?P<name>\w+)"),
    re.compile(r"\bsignal\s*\(\s*\w+\s*,\s*(?P<name>\w+)\s*\)"),
)
# Not async-signal-safe (POSIX 2017 §2.4.3) or repo-unsafe inside handlers:
# stdio, allocation, C++ iostreams, exit/atexit (runs arbitrary hooks),
# longjmp, syslog, any locking (our wrappers included), and the logging
# macros (they allocate and take streams).
SIGNAL_UNSAFE_RE = re.compile(
    r"\b(?:printf|fprintf|sprintf|snprintf|vprintf|vfprintf|puts|fputs"
    r"|fwrite|fread|fflush|fopen|fclose|malloc|calloc|realloc|free|new"
    r"|delete|exit|atexit|longjmp|syslog|cout|cerr|clog"
    r"|LH_LOG|LH_CHECK|LH_DCHECK|lock|unlock|Lock|Unlock|MutexLock"
    r"|ReadLock|WriteLock|Wait|NotifyOne|NotifyAll)\s*\(")


def lint_mutex_annotations(path, raw_lines, findings):
    """Bans raw std sync types outside util/mutex.h and requires each
    Mutex/SharedMutex data member to guard something (an LH_GUARDED_BY
    naming it in the same file) or carry a `// lint: unguarded(reason)`."""
    if os.path.normpath(path) == MUTEX_WRAPPER_FILE:
        return
    full_text = "\n".join(raw_lines)
    for lineno, raw in enumerate(raw_lines, start=1):
        code = strip_comments_and_strings(raw)
        if RAW_SYNC_RE.search(code) and not allowed(raw, "mutex-annotations"):
            findings.append(
                (path, lineno, "mutex-annotations",
                 "raw std synchronization type; use the annotated wrappers "
                 "in util/mutex.h so clang thread-safety analysis and the "
                 "lock-rank checker see it (DESIGN.md §14)"))
        m = MUTEX_DECL_RE.search(code)
        if m and not allowed(raw, "mutex-annotations"):
            name = m.group("name")
            guard_re = re.compile(
                r"LH_(?:PT_)?GUARDED_BY\(\s*" + re.escape(name) + r"\s*\)")
            if (not guard_re.search(full_text)
                    and not UNGUARDED_WAIVER_RE.search(raw)):
                findings.append(
                    (path, lineno, "mutex-annotations",
                     f"mutex `{name}` guards no field: add "
                     f"LH_GUARDED_BY({name}) to what it protects, or "
                     f"annotate `// lint: unguarded(reason)` with what it "
                     f"serializes instead"))


def lint_relaxed_atomics(path, raw_lines, findings):
    """Requires a justifying comment on or immediately above every
    memory_order_relaxed use."""
    for lineno, raw in enumerate(raw_lines, start=1):
        code = strip_comments_and_strings(raw)
        if not RELAXED_RE.search(code) or allowed(raw, "relaxed-atomics"):
            continue
        has_inline_comment = "//" in raw
        prev = raw_lines[lineno - 2].lstrip() if lineno >= 2 else ""
        has_preceding_comment = prev.startswith("//")
        if not (has_inline_comment or has_preceding_comment):
            findings.append(
                (path, lineno, "relaxed-atomics",
                 "memory_order_relaxed without a justifying comment on this "
                 "or the preceding line (say what the atomic tallies and "
                 "why nothing is published through it)"))


def lint_signal_safety(path, raw_lines, findings):
    """Flags non-async-signal-safe calls inside signal handler bodies
    (functions installed via sa_handler/std::signal in the same file)."""
    stripped = [strip_comments_and_strings(raw) for raw in raw_lines]
    handlers = set()
    for code in stripped:
        for reg_re in HANDLER_REGISTRATION_RES:
            for m in reg_re.finditer(code):
                name = m.group("name")
                if name not in ("SIG_IGN", "SIG_DFL", "nullptr", "NULL"):
                    handlers.add(name)
    for name in sorted(handlers):
        def_re = re.compile(r"\bvoid\s+" + re.escape(name) + r"\s*\(")
        start = next((i for i, code in enumerate(stripped)
                      if def_re.search(code)), None)
        if start is None:
            continue  # registered here, defined elsewhere (or a std:: name)
        depth = 0
        entered = False
        for i in range(start, len(stripped)):
            code = stripped[i]
            if entered and SIGNAL_UNSAFE_RE.search(code) and not allowed(
                    raw_lines[i], "signal-safety"):
                findings.append(
                    (path, i + 1, "signal-safety",
                     f"non-async-signal-safe call in handler `{name}`; "
                     f"handlers may only store to lock-free atomics / "
                     f"sig_atomic_t (POSIX 2017 §2.4.3)"))
            depth += code.count("{") - code.count("}")
            if code.count("{") > 0:
                entered = True
            if entered and depth <= 0:
                break

# Bare POSIX socket-layer calls. The lookbehind rejects member calls
# (`.close(`), qualified calls (`::connect(` inside the wrappers), and
# longer identifiers (`fclose(`, `RequestShutdown(`), so only the naked
# C API fires.
RAW_SOCKET_RE = re.compile(
    r"(?<![\w.>:])(?:socket|accept4?|bind|listen|connect|recv|send"
    r"|sendto|recvfrom|setsockopt|getsockopt|getsockname|shutdown"
    r"|close)\s*\(")


def strip_comments_and_strings(line):
    """Removes // comments, and blanks out string/char literal contents, so
    the token rules do not fire inside text. Block comments are handled by
    the caller via state; this repo style only uses line comments."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in "\"'":
            quote = c
            out.append(quote)
            i += 1
            while i < n and line[i] != quote:
                if line[i] == "\\":
                    i += 1
                i += 1
            out.append(quote)
            i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def iter_files(paths):
    for root_dir in paths:
        if os.path.isfile(root_dir):
            yield root_dir
            continue
        for dirpath, dirnames, filenames in os.walk(root_dir):
            dirnames[:] = [d for d in dirnames if not d.startswith(".")]
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    yield os.path.join(dirpath, name)


def is_walker_confined(path):
    """True when `path` may not use the tree-walking evaluator."""
    return not os.path.normpath(path).startswith(WALKER_HOME_DIRS)


def lint_walker_confined_lines(path, lines, findings):
    """Line-level core of the walker-confined rule (selftest-able)."""
    if not is_walker_confined(path):
        return
    for lineno, raw in enumerate(lines, start=1):
        if (WALKER_RE.search(strip_comments_and_strings(raw))
                and not allowed(raw, "walker-confined")):
            findings.append(
                (path, lineno, "walker-confined",
                 "tree-walking evaluator outside its homes "
                 "(baseline/, tests/); compile the "
                 "expression to an ExprProgram instead"))


def allowed(line, rule):
    m = ALLOW_RE.search(line)
    return m is not None and m.group("rule") == rule


def lint_file(path, findings):
    with open(path, encoding="utf-8") as f:
        raw_lines = f.read().splitlines()

    in_span_dirs = path.split(os.sep, 1)[0] in SPAN_RULE_DIRS
    in_global_state_dirs = path.split(os.sep, 1)[0] in GLOBAL_STATE_DIRS
    raw_socket_exempt = os.path.normpath(path).startswith(
        RAW_SOCKET_EXEMPT_PREFIX)
    includes = []
    for lineno, raw in enumerate(raw_lines, start=1):
        code = strip_comments_and_strings(raw)

        m = INCLUDE_RE.match(raw)
        if m:
            includes.append(m.group("path"))

        if NAKED_NEW_RE.search(code) and not PLACEMENT_NEW_RE.search(code):
            if not allowed(raw, "naked-new"):
                findings.append(
                    (path, lineno, "naked-new",
                     "naked `new`; use make_unique/containers "
                     "(or annotate `// lint: allow(naked-new)`)"))

        if BANNED_RAND_RE.search(code) and not allowed(raw, "banned-rand"):
            findings.append(
                (path, lineno, "banned-rand",
                 "rand()/srand() is banned; use util/rng.h"))

        if in_global_state_dirs and not allowed(raw, "global-state"):
            if (STATIC_DATA_RE.search(code)
                    and not GLOBAL_STATE_EXEMPT_RE.search(code)):
                findings.append(
                    (path, lineno, "global-state",
                     "mutable `static` data; hang cross-query state off "
                     "Engine or use thread_local + explicit propagation "
                     "(or annotate `// lint: allow(global-state)`)"))
            elif GLOBAL_NAME_RE.search(code):
                findings.append(
                    (path, lineno, "global-state",
                     "`g_` global; concurrent queries share the process — "
                     "see DESIGN.md §11 "
                     "(or annotate `// lint: allow(global-state)`)"))

        if (not raw_socket_exempt and RAW_SOCKET_RE.search(code)
                and not allowed(raw, "raw-socket")):
            findings.append(
                (path, lineno, "raw-socket",
                 "raw POSIX socket call; use the util/socket.h RAII "
                 "wrappers (or annotate `// lint: allow(raw-socket)`)"))

        if in_span_dirs:
            for m in list(SPAN_RE.finditer(raw)) + list(OPEN_RE.finditer(raw)):
                name = m.group("name")
                if name not in SPAN_TAXONOMY and not allowed(
                        raw, "span-taxonomy"):
                    findings.append(
                        (path, lineno, "span-taxonomy",
                         f'span name "{name}" not in the phase taxonomy '
                         f"(tools/lint.py SPAN_TAXONOMY)"))

    lint_walker_confined_lines(path, raw_lines, findings)
    if in_global_state_dirs:  # the src/-scoped concurrency-discipline rules
        lint_mutex_annotations(path, raw_lines, findings)
        lint_relaxed_atomics(path, raw_lines, findings)
        lint_signal_safety(path, raw_lines, findings)
    return includes


def resolve_include(inc):
    """Maps an #include "..." path to a repo file, or None for externals."""
    for base in ("src", "", "tests", "bench"):
        candidate = os.path.join(base, inc) if base else inc
        if os.path.isfile(candidate):
            return os.path.normpath(candidate)
    return None


def find_include_cycles(graph, findings):
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in graph}
    stack = []

    def dfs(node):
        color[node] = GRAY
        stack.append(node)
        for dep in graph.get(node, ()):
            if dep not in color:
                continue
            if color[dep] == GRAY:
                cycle = stack[stack.index(dep):] + [dep]
                findings.append(
                    (dep, 1, "include-cycle", " -> ".join(cycle)))
            elif color[dep] == WHITE:
                dfs(dep)
        stack.pop()
        color[node] = BLACK

    for node in sorted(graph):
        if color[node] == WHITE:
            dfs(node)


# The file holding StatsSnapshot::Items() and the doc that must glossary
# every counter name it returns.
METRICS_SOURCE = os.path.join("src", "obs", "stats.cc")
METRICS_GLOSSARY_DOC = "DESIGN.md"
ITEMS_NAME_RE = re.compile(r'\{"(?P<name>[\w.]+)",')


def lint_metrics_glossary(findings):
    """Checks that each counter name returned by StatsSnapshot::Items() is
    mentioned in DESIGN.md (the counter glossary section)."""
    if not (os.path.isfile(METRICS_SOURCE)
            and os.path.isfile(METRICS_GLOSSARY_DOC)):
        return
    with open(METRICS_SOURCE, encoding="utf-8") as f:
        source_lines = f.read().splitlines()
    with open(METRICS_GLOSSARY_DOC, encoding="utf-8") as f:
        doc = f.read()
    lint_metrics_glossary_lines(METRICS_SOURCE, source_lines, doc, findings)


def lint_metrics_glossary_lines(source_path, source_lines, doc, findings):
    """Line-level core of the metrics-glossary rule (selftest-able)."""
    in_items = False
    for lineno, line in enumerate(source_lines, start=1):
        if "StatsSnapshot::Items()" in line:
            in_items = True
            continue
        if not in_items:
            continue
        if line.startswith("}"):
            break
        for m in ITEMS_NAME_RE.finditer(line):
            name = m.group("name")
            if name not in doc:
                findings.append(
                    (source_path, lineno, "metrics-glossary",
                     f'counter "{name}" missing from the {METRICS_GLOSSARY_DOC}'
                     f" counter glossary"))


# --- vm-op-coverage ----------------------------------------------------
# The expression VM's ISA (the `Op` enum) and the translation unit holding
# its dispatch switches.
VM_OP_HEADER = os.path.join("src", "core", "expr_vm.h")
VM_OP_SOURCE = os.path.join("src", "core", "expr_vm.cc")
VM_OP_ENUM_RE = re.compile(r"\benum\s+class\s+Op\b")
VM_OP_ENUMERATOR_RE = re.compile(r"^\s*(?P<name>k\w+)\s*(?:=[^,}]*)?[,}]?\s*$")
VM_OP_CASE_RE = re.compile(r"\bcase\s+Op::(?P<name>k\w+)\b")


def lint_vm_op_coverage_lines(header_path, header_lines, source_path,
                              source_lines, findings):
    """Flags `Op` enumerators in the VM header with no `case Op::k...` in
    the VM source's dispatch switches (see the rule doc above)."""
    in_enum = False
    ops = []
    for lineno, raw in enumerate(header_lines, start=1):
        code = strip_comments_and_strings(raw)
        if not in_enum:
            if VM_OP_ENUM_RE.search(code):
                in_enum = True
            continue
        if "}" in code:
            break
        m = VM_OP_ENUMERATOR_RE.match(code)
        if m and not allowed(raw, "vm-op-coverage"):
            ops.append((m.group("name"), lineno))
    handled = set()
    for raw in source_lines:
        for m in VM_OP_CASE_RE.finditer(strip_comments_and_strings(raw)):
            handled.add(m.group("name"))
    for name, lineno in ops:
        if name not in handled:
            findings.append(
                (header_path, lineno, "vm-op-coverage",
                 f"Op::{name} has no `case Op::{name}` in {source_path}; "
                 f"every ISA op needs a handler in the dispatch switch"))


def lint_vm_op_coverage(findings):
    if not (os.path.isfile(VM_OP_HEADER) and os.path.isfile(VM_OP_SOURCE)):
        return
    with open(VM_OP_HEADER, encoding="utf-8") as f:
        header_lines = f.read().splitlines()
    with open(VM_OP_SOURCE, encoding="utf-8") as f:
        source_lines = f.read().splitlines()
    lint_vm_op_coverage_lines(VM_OP_HEADER, header_lines, VM_OP_SOURCE,
                              source_lines, findings)


SELFTEST_CASES = [
    # (rule, expect_findings, source_lines)
    ("relaxed-atomics", True,
     ["x_.fetch_add(1, std::memory_order_relaxed);"]),
    ("relaxed-atomics", False,
     ["x_.fetch_add(1, std::memory_order_relaxed);  // monotone tally"]),
    ("relaxed-atomics", False,
     ["// Relaxed: independent counter, read after the join.",
      "x_.fetch_add(1, std::memory_order_relaxed);"]),
    ("relaxed-atomics", False,
     ["x_.fetch_add(1, std::memory_order_relaxed);"
      "  // lint: allow(relaxed-atomics)"]),
    ("relaxed-atomics", False,
     ["x_.fetch_add(1, std::memory_order_acquire);"]),
    ("mutex-annotations", True,
     ["std::mutex mu_;"]),
    ("mutex-annotations", True,
     ["std::lock_guard<std::mutex> lock(mu_);"]),
    ("mutex-annotations", True,  # guards nothing, no waiver
     ["Mutex mu_{LockRank::kPool};"]),
    ("mutex-annotations", False,  # guards a field
     ["Mutex mu_{LockRank::kPool};",
      "int count_ LH_GUARDED_BY(mu_) = 0;"]),
    ("mutex-annotations", False,  # explicit waiver with reason
     ["Mutex mu_{LockRank::kPool};  // lint: unguarded(phase lock)"]),
    ("mutex-annotations", False,  # guard name matching is exact
     ["SharedMutex mu{LockRank::kCacheShard};",
      "std::unordered_map<int, int> map LH_GUARDED_BY(mu);"]),
    ("mutex-annotations", False,  # references are not declarations
     ["Mutex& GlobalPoolMutex();", "MutexLock lock(&mu_);"]),
    ("signal-safety", True,
     ["extern \"C\" void OnSignal(int) {",
      "  fprintf(stderr, \"caught\\n\");",
      "}",
      "void Install() { struct sigaction sa; sa.sa_handler = OnSignal; }"]),
    ("signal-safety", False,
     ["extern \"C\" void OnSignal(int) {",
      "  flag.store(true, std::memory_order_relaxed);",
      "}",
      "void Install() { struct sigaction sa; sa.sa_handler = OnSignal; }"]),
    ("signal-safety", False,  # unsafe call outside any handler body
     ["void NotAHandler() { printf(\"hi\\n\"); }"]),
    # vm-op-coverage cases carry (header_lines, source_lines).
    ("vm-op-coverage", True,  # kBar declared but never dispatched
     (["enum class Op : uint8_t {",
       "  kFoo,  // push imm",
       "  kBar",
       "};"],
      ["switch (op) { case Op::kFoo: break; }"])),
    ("vm-op-coverage", False,  # every op handled (across two switches)
     (["enum class Op : uint8_t {",
       "  kFoo,",
       "  kBar,",
       "};"],
      ["switch (op) { case Op::kFoo: break; }",
       "switch (op) { case Op::kBar: break; }"])),
    ("vm-op-coverage", True,  # a `case` in a comment is not a handler
     (["enum class Op : uint8_t {",
       "  kFoo,",
       "};"],
      ["// case Op::kFoo: documented, not dispatched"])),
    ("vm-op-coverage", False,  # enumerators outside the Op enum are ignored
     (["enum class Color { kRed };"],
      ["int x;"])),
    # walker-confined cases carry (path, source_lines).
    ("walker-confined", True,  # the engine calling the walker
     (os.path.join("src", "core", "executor.cc"),
      ["out[r] = EvalNumber(arg, cells);"])),
    ("walker-confined", True,  # a new CellAccessor outside the homes
     (os.path.join("bench", "x.cc"),
      ["class RowCells : public CellAccessor {"])),
    ("walker-confined", True,  # post-aggregation evaluation in the engine
     (os.path.join("src", "core", "group_accum.cc"),
      ["return EvalNumber(*having, cells) != 0;"])),
    ("walker-confined", True,  # core/expr_eval is no home any more
     (os.path.join("src", "core", "expr_eval.cc"),
      ["return EvalBool(e, cells) ? 1.0 : 0.0;"])),
    ("walker-confined", False,  # the homes: the walker itself ...
     (os.path.join("src", "baseline", "expr_walker.cc"),
      ["return EvalBool(e, cells) ? 1.0 : 0.0;"])),
    ("walker-confined", False,  # ... the pairwise baseline ...
     (os.path.join("src", "baseline", "pairwise_engine.cc"),
      ["w->main[i] = EvalNumber(*agg.arg, cells);"])),
    ("walker-confined", False,  # ... and the tests' oracle
     (os.path.join("tests", "expr_vm_test.cc"),
      ["const double want = EvalNumber(e, cells);"])),
    ("walker-confined", False,  # a mention in a comment is not a call
     (os.path.join("src", "core", "expr_vm.h"),
      ["// bit-identical to EvalNumber/EvalBool (the test oracle)."])),
    # metrics-glossary cases carry (Items() source lines, glossary doc text).
    ("metrics-glossary", True,  # counter absent from the doc
     (["std::vector<StatsItem> StatsSnapshot::Items() const {",
       "  return {",
       "      {\"trie.lazy_levels\", lazy_levels},",
       "  };",
       "}"],
      "| `trie.built` | tries rebuilt |")),
    ("metrics-glossary", False,  # every emitted counter is documented
     (["std::vector<StatsItem> StatsSnapshot::Items() const {",
       "  return {",
       "      {\"trie.lazy_levels\", lazy_levels},",
       "      {\"trie.lazy_bytes\", lazy_bytes},",
       "  };",
       "}"],
      "| `trie.lazy_levels` | deferred levels |\n"
      "| `trie.lazy_bytes` | deferred payload bytes |")),
    ("metrics-glossary", False,  # names outside Items() are not counters
     (["void Elsewhere() {",
       "  map.emplace(\"trie.lazy_levels\", 1);",
       "}"],
      "")),
]


def run_selftest():
    """Runs each embedded sample through the rule engine and checks that
    exactly the expected rules fire. Returns a process exit code."""
    failures = 0
    for i, (rule, expect, lines) in enumerate(SELFTEST_CASES):
        findings = []
        fake_path = os.path.join("src", "selftest", f"case_{i}.cc")
        if rule == "vm-op-coverage":
            header_lines, source_lines = lines
            lint_vm_op_coverage_lines(fake_path, header_lines,
                                      fake_path.replace(".cc", ".h"),
                                      source_lines, findings)
        elif rule == "walker-confined":
            path, source_lines = lines
            lint_walker_confined_lines(path, source_lines, findings)
        elif rule == "metrics-glossary":
            source_lines, doc = lines
            lint_metrics_glossary_lines(fake_path, source_lines, doc,
                                        findings)
        else:
            lint_mutex_annotations(fake_path, lines, findings)
            lint_relaxed_atomics(fake_path, lines, findings)
            lint_signal_safety(fake_path, lines, findings)
        fired = {f[2] for f in findings}
        ok = (rule in fired) == expect
        if not ok:
            failures += 1
            print(f"selftest case {i}: expected {rule} "
                  f"{'to fire' if expect else 'not to fire'}, got {fired}",
                  file=sys.stderr)
    if failures:
        print(f"lint selftest: {failures} case(s) failed", file=sys.stderr)
        return 1
    print(f"lint selftest: OK ({len(SELFTEST_CASES)} cases)")
    return 0


def main(argv):
    if "--list-rules" in argv:
        print("naked-new banned-rand span-taxonomy include-cycle "
              "global-state raw-socket walker-confined vm-op-coverage "
              "metrics-glossary mutex-annotations relaxed-atomics "
              "signal-safety")
        return 0
    if "--selftest" in argv:
        return run_selftest()
    paths = [a for a in argv if not a.startswith("-")] or REPO_DIRS
    findings = []
    graph = {}
    for path in iter_files(paths):
        includes = lint_file(path, findings)
        deps = []
        for inc in includes:
            resolved = resolve_include(inc)
            if resolved is not None:
                deps.append(resolved)
        graph[os.path.normpath(path)] = deps

    find_include_cycles(graph, findings)
    lint_vm_op_coverage(findings)
    lint_metrics_glossary(findings)

    for path, lineno, rule, message in findings:
        print(f"{path}:{lineno}: [{rule}] {message}")
    if findings:
        print(f"lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"lint: OK ({len(graph)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
