#!/usr/bin/env python3
"""BlendHouse source linter.

Runs as a ctest (see tests/CMakeLists.txt) over everything under src/ and
enforces these concurrency/hygiene rules:

  raw-mutex    Raw standard-library locking primitives (std::mutex,
               std::condition_variable, std::lock_guard, ...) are banned
               outside src/common/mutex.h. All locking goes through the
               annotated common::Mutex / common::MutexLock / common::CondVar
               wrappers so Clang's thread-safety analysis can see it.
  naked-new    `new` / `delete` expressions are banned; use std::make_unique
               / std::make_shared / containers.
  include-cycle  The `#include "..."` graph under src/ must be acyclic.
  pragma-once  Every header under src/ must start with #pragma once.
  sleep-for    std::this_thread::sleep_for / sleep_until are banned outside
               src/baselines/ (the deliberately-blocking comparison systems)
               and src/common/task_scheduler.cc (the simulated-latency
               charge). Simulated latency must go through
               common::ChargeSimLatency so it never parks a pool thread.
  simd-intrinsics  Raw SIMD intrinsics (immintrin.h / arm_neon.h includes,
               _mm*/__m*/v*q_f32 tokens) are banned outside
               src/vecindex/kernels/. Everything else calls the dispatched
               kernel layer so per-TU -march flags stay contained and the
               scalar fallback stays honest.
  adhoc-timer  common::Timer (common/timer.h) is banned outside src/common/
               and src/baselines/. Ad-hoc timer-fed stat fields fragment
               telemetry: production timing flows through the metrics layer
               (common::metrics::ScopedTimer into a registry histogram) or
               trace spans, so every measurement is exported and
               reconcilable. Algorithms that consume elapsed time as an
               input (e.g. auto-index trials) annotate the use.
  metric-name  Metric names registered via MetricsRegistry::Get{Counter,
               Gauge,Histogram} with a string literal must match
               `bh_[a-z0-9_]+` (DESIGN.md §10 naming convention): one
               namespace, lowercase snake case, so the Prometheus export
               needs no sanitization and dashboards can glob bh_*.
  this-capture  Lambdas passed to TaskScheduler::Submit /
               TaskScheduler::Schedule(/After) inside src/cluster/ must not
               capture raw `this`: the continuation can outlive the object
               during a scale-down (the use-after-free shape PR5's
               generation-stamped leases exist to prevent). Capture a
               shared_ptr/weak_ptr or stamped handle instead; audited sites
               where lifetime is structurally guaranteed (e.g. a pool owned
               by *this and destroyed first) carry lint:allow(this-capture)
               with a justification.
  raw-view     `reinterpret_cast` to a pointer or reference of any type
               other than char, unsigned char, std::byte or void is banned
               outside src/common/io.h and src/vecindex/kernels/. Every typed
               view into saved bytes goes through BinaryReader::View, which
               checks bounds and alignment; a byte pointer (to copy, hash or
               append bytes) needs neither check.

Suppress a finding by putting  lint:allow(<rule>)  in a comment on the same
line. Usage: tools/lint.py [repo-root]
"""

import os
import re
import sys

RAW_MUTEX_TOKENS = (
    "std::mutex",
    "std::timed_mutex",
    "std::recursive_mutex",
    "std::recursive_timed_mutex",
    "std::shared_mutex",
    "std::shared_timed_mutex",
    "std::condition_variable",
    "std::condition_variable_any",
    "std::lock_guard",
    "std::unique_lock",
    "std::scoped_lock",
    "std::shared_lock",
)

# The annotated wrapper is the one place allowed to touch the raw primitives.
RAW_MUTEX_EXEMPT = {os.path.join("src", "common", "mutex.h")}

SLEEP_TOKENS = ("sleep_for", "sleep_until")

# Baseline comparison systems block on purpose (they model synchronous
# engines); ChargeSimLatency is the one sanctioned timed wait in BlendHouse.
SLEEP_EXEMPT_PREFIXES = (os.path.join("src", "baselines") + os.sep,)
SLEEP_EXEMPT_FILES = {os.path.join("src", "common", "task_scheduler.cc")}

# Intrinsics headers and vendor-prefixed intrinsic tokens; the kernel layer
# is the single translation-unit family allowed to touch them.
SIMD_INCLUDE_TOKENS = (
    "immintrin.h",
    "x86intrin.h",
    "emmintrin.h",
    "xmmintrin.h",
    "smmintrin.h",
    "avxintrin.h",
    "arm_neon.h",
)
SIMD_INTRINSIC_RE = re.compile(
    r"\b(_mm_|_mm256_|_mm512_|__m128|__m256|__m512|__mmask|vld1q_|vst1q_|"
    r"vfmaq_|vaddvq_|vdupq_)")
SIMD_EXEMPT_PREFIXES = (
    os.path.join("src", "vecindex", "kernels") + os.sep,)

# The metrics layer wraps Timer (ScopedTimer); baselines model synchronous
# engines whose internal timing is not part of BlendHouse's telemetry.
ADHOC_TIMER_TOKENS = ("common::Timer", "common/timer.h")
ADHOC_TIMER_EXEMPT_PREFIXES = (
    os.path.join("src", "common") + os.sep,
    os.path.join("src", "baselines") + os.sep,
)

ALLOW_RE = re.compile(r"lint:allow\(([a-z-]+)\)")

# A continuation-shaped call (Then/Submit/Schedule/ScheduleAfter) whose
# lambda capture list contains a bare `this`. The window between the call
# and `[` spans small leading args (scheduler pointer, delay).
THIS_CAPTURE_RE = re.compile(
    r"\b(?:Then|Submit|Schedule|ScheduleAfter)\s*\(([^\[\]();]{0,80})"
    r"\[([^\]]*)\]", re.S)
THIS_CAPTURE_PREFIXES = (os.path.join("src", "cluster") + os.sep,)


# The reader that checks bounds and alignment, and the SIMD kernels, which
# load lanes from float/code pointers, may cast to typed pointers.
RAW_VIEW_EXEMPT_FILES = {os.path.join("src", "common", "io.h")}
RAW_VIEW_EXEMPT_PREFIXES = (os.path.join("src", "vecindex", "kernels") + os.sep,)
RAW_VIEW_CAST_RE = re.compile(r"\breinterpret_cast\s*<")
# Target types a raw cast may name: byte pointers and void pointers.
RAW_VIEW_BYTE_TYPES = {"char", "unsignedchar", "std::byte", "void"}


def strip_comments_and_strings(text):
    """Replaces comment/string/char-literal contents with spaces, keeping
    line structure intact so reported line numbers stay correct."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                state = "string"
                out.append(" ")
                i += 1
            elif c == "'":
                state = "char"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        else:  # string or char
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


def collect_sources(root):
    files = []
    src = os.path.join(root, "src")
    for dirpath, _, names in os.walk(src):
        for name in sorted(names):
            if name.endswith((".h", ".cc")):
                files.append(os.path.relpath(os.path.join(dirpath, name), root))
    return sorted(files)


def allows_for(raw_lines):
    """Maps 1-based line number -> set of suppressed rule names."""
    allows = {}
    for lineno, line in enumerate(raw_lines, start=1):
        for m in ALLOW_RE.finditer(line):
            allows.setdefault(lineno, set()).add(m.group(1))
    return allows


DELETE_RE = re.compile(r"\bdelete\b")
NEW_RE = re.compile(r"\bnew\b")


def check_tokens(path, raw_lines, code_lines, findings):
    allows = allows_for(raw_lines)

    def allowed(lineno, rule):
        return rule in allows.get(lineno, set())

    exempt_mutex = path in RAW_MUTEX_EXEMPT
    exempt_sleep = (path in SLEEP_EXEMPT_FILES
                    or path.startswith(SLEEP_EXEMPT_PREFIXES))
    exempt_simd = path.startswith(SIMD_EXEMPT_PREFIXES)
    exempt_timer = path.startswith(ADHOC_TIMER_EXEMPT_PREFIXES)
    for lineno, line in enumerate(code_lines, start=1):
        if not exempt_mutex:
            for token in RAW_MUTEX_TOKENS:
                if token in line and not allowed(lineno, "raw-mutex"):
                    findings.append(
                        (path, lineno, "raw-mutex",
                         f"{token} outside src/common/mutex.h; use the "
                         "annotated common::Mutex wrapper"))
        if not exempt_sleep:
            for token in SLEEP_TOKENS:
                if token in line and not allowed(lineno, "sleep-for"):
                    findings.append(
                        (path, lineno, "sleep-for",
                         f"{token} outside src/baselines/; charge simulated "
                         "latency via common::ChargeSimLatency"))
        if not exempt_simd and not allowed(lineno, "simd-intrinsics"):
            raw = raw_lines[lineno - 1] if lineno <= len(raw_lines) else ""
            for token in SIMD_INCLUDE_TOKENS:
                if "include" in raw and token in raw:
                    findings.append(
                        (path, lineno, "simd-intrinsics",
                         f"#include <{token}> outside src/vecindex/kernels/; "
                         "call the dispatched kernel layer instead"))
            m = SIMD_INTRINSIC_RE.search(line)
            if m:
                findings.append(
                    (path, lineno, "simd-intrinsics",
                     f"raw intrinsic `{m.group(1)}...` outside "
                     "src/vecindex/kernels/; call the dispatched kernel "
                     "layer instead"))
        if not exempt_timer and not allowed(lineno, "adhoc-timer"):
            raw = raw_lines[lineno - 1] if lineno <= len(raw_lines) else ""
            for token in ADHOC_TIMER_TOKENS:
                # The include token lives inside a string literal, so match
                # against the raw line; the type token against code.
                hay = raw if token.endswith(".h") else line
                if token in hay:
                    findings.append(
                        (path, lineno, "adhoc-timer",
                         f"{token} outside src/common/; time through "
                         "common::metrics::ScopedTimer (registry histogram) "
                         "or a trace span instead"))
        for m in NEW_RE.finditer(line):
            if allowed(lineno, "naked-new"):
                continue
            findings.append(
                (path, lineno, "naked-new",
                 "naked `new`; use std::make_unique / std::make_shared"))
        for m in DELETE_RE.finditer(line):
            before = line[:m.start()].rstrip()
            if before.endswith("="):  # deleted special member, not a delete-expr
                continue
            if allowed(lineno, "naked-new"):
                continue
            findings.append(
                (path, lineno, "naked-new",
                 "naked `delete`; owning pointers must be smart pointers"))


# Bare `this` in a capture list; `*this` (capture by copy) is safe.
RAW_THIS_RE = re.compile(r"(?<![\w*])this\b")


def check_this_capture(path, raw_lines, code_text, findings):
    if not path.startswith(THIS_CAPTURE_PREFIXES):
        return
    allows = allows_for(raw_lines)
    for m in THIS_CAPTURE_RE.finditer(code_text):
        captures = m.group(2)
        if not RAW_THIS_RE.search(captures):
            continue
        # Line of the `[` that opens the capture list.
        lineno = code_text.count("\n", 0, m.start() + len(m.group(0)) -
                                 len(captures) - 2) + 1
        if "this-capture" in allows.get(lineno, set()):
            continue
        findings.append(
            (path, lineno, "this-capture",
             "continuation captures raw `this`; the task can outlive the "
             "object during scale-down — capture a shared_ptr/weak_ptr or "
             "generation-stamped handle, or lint:allow(this-capture) with "
             "a lifetime justification"))


def cast_target(code_text, start):
    """The template argument of the cast whose `<` ends at `start`, with
    nested <...> kept whole; None if it never closes."""
    depth = 1
    i = start
    while i < len(code_text):
        c = code_text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return code_text[start:i]
        i += 1
    return None


def is_raw_view(target):
    """Whether a reinterpret_cast target is a typed pointer or reference
    (anything but a byte or void pointer). Casts to integers are not
    views."""
    t = re.sub(r"\b(const|volatile)\b", "", target)
    t = re.sub(r"\s+", "", t)
    if not t.endswith(("*", "&")):
        return False
    return t[:-1] not in RAW_VIEW_BYTE_TYPES


def check_raw_view(path, raw_lines, code_text, findings):
    if path in RAW_VIEW_EXEMPT_FILES or path.startswith(RAW_VIEW_EXEMPT_PREFIXES):
        return
    allows = allows_for(raw_lines)
    for m in RAW_VIEW_CAST_RE.finditer(code_text):
        target = cast_target(code_text, m.end())
        if target is None or not is_raw_view(target):
            continue
        lineno = code_text.count("\n", 0, m.start()) + 1
        if "raw-view" in allows.get(lineno, set()):
            continue
        findings.append(
            (path, lineno, "raw-view",
             f"reinterpret_cast<{' '.join(target.split())}> outside "
             "src/common/io.h and src/vecindex/kernels/; view saved bytes "
             "through common::BinaryReader::View (bounds and alignment "
             "checked)"))


# A registry registration with a literal name; the window between the call
# and the string spans a line break plus indentation. Dynamic names are not
# checked (the exporter sanitizes as a backstop).
METRIC_NAME_RE = re.compile(
    r"\bGet(?:Counter|Gauge|Histogram)\s*\(\s*\"([^\"]*)\"", re.S)
METRIC_NAME_OK_RE = re.compile(r"bh_[a-z0-9_]+\Z")


def check_metric_names(path, raw_lines, raw_text, findings):
    allows = allows_for(raw_lines)
    for m in METRIC_NAME_RE.finditer(raw_text):
        name = m.group(1)
        if METRIC_NAME_OK_RE.fullmatch(name):
            continue
        lineno = raw_text.count("\n", 0, m.start()) + 1
        if "metric-name" in allows.get(lineno, set()):
            continue
        findings.append(
            (path, lineno, "metric-name",
             f'registry metric "{name}" must match bh_[a-z0-9_]+ '
             "(lowercase snake case in the bh_ namespace)"))


INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')


def check_pragma_once(path, raw_lines, findings):
    if not path.endswith(".h"):
        return
    if not any(line.strip() == "#pragma once" for line in raw_lines):
        findings.append((path, 1, "pragma-once", "header is missing #pragma once"))


def build_include_graph(root, files):
    known = set(files)
    graph = {}
    for path in files:
        edges = []
        with open(os.path.join(root, path), encoding="utf-8") as f:
            for line in f:
                m = INCLUDE_RE.match(line)
                if m:
                    target = os.path.join("src", m.group(1))
                    if target in known:
                        edges.append(target)
        graph[path] = edges
    return graph


def find_include_cycle(graph):
    WHITE, GREY, BLACK = 0, 1, 2
    color = {node: WHITE for node in graph}
    stack = []

    def dfs(node):
        color[node] = GREY
        stack.append(node)
        for dep in graph[node]:
            if color[dep] == GREY:
                return stack[stack.index(dep):] + [dep]
            if color[dep] == WHITE:
                cycle = dfs(dep)
                if cycle:
                    return cycle
        stack.pop()
        color[node] = BLACK
        return None

    for node in sorted(graph):
        if color[node] == WHITE:
            cycle = dfs(node)
            if cycle:
                return cycle
    return None


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    files = collect_sources(root)
    if not files:
        print(f"lint: no sources found under {os.path.join(root, 'src')}",
              file=sys.stderr)
        return 1

    findings = []
    for path in files:
        with open(os.path.join(root, path), encoding="utf-8") as f:
            text = f.read()
        raw_lines = text.splitlines()
        code_text = strip_comments_and_strings(text)
        code_lines = code_text.splitlines()
        check_tokens(path, raw_lines, code_lines, findings)
        check_this_capture(path, raw_lines, code_text, findings)
        check_raw_view(path, raw_lines, code_text, findings)
        check_metric_names(path, raw_lines, text, findings)
        check_pragma_once(path, raw_lines, findings)

    cycle = find_include_cycle(build_include_graph(root, files))
    if cycle:
        findings.append((cycle[0], 1, "include-cycle",
                         "include cycle: " + " -> ".join(cycle)))

    for path, lineno, rule, message in findings:
        print(f"{path}:{lineno}: [{rule}] {message}")
    if findings:
        print(f"lint: {len(findings)} finding(s) in {len(files)} files",
              file=sys.stderr)
        return 1
    print(f"lint: OK ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
