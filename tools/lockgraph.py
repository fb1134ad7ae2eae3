#!/usr/bin/env python3
"""BlendHouse whole-program lock-order analyzer.

Walks src/, parses the lock-rank table (src/common/lock_rank.h), the ranked
common::Mutex declarations, the CAPABILITY/REQUIRES/GUARDED_BY annotations,
and the call edges between functions, and builds the global lock-acquisition
graph: which mutexes (by rank label) can be held when each other mutex is
acquired, and which functions invoke externally supplied callbacks
(MoveOnlyFn, std::function) while holding a lock — the shape of the PR5
RemoveWorker deadlock.

Reported as errors (exit 1):

  unranked-mutex       a common::Mutex in src/ constructed without a
                       lockrank:: constant (unranked mutexes skip checking).
  unknown-rank         a rank label that is not in lock_rank.h.
  ambiguous-mutex      a lock site whose mutex expression resolves to more
                       than one rank label.
  order-violation      evidence that a mutex is acquired while one of equal
                       or lower rank is held (acquisition must be strictly
                       decreasing in rank).
  shard-nesting        a shard-family mutex (rank label ending in "Shard":
                       per-core run-queue / deadline-heap shards) acquired
                       while a sibling of the same family is held. Sibling
                       shards deliberately share one rank; the work-stealing
                       protocol requires holding at most one shard lock at a
                       time (release your own before locking a victim's).
  cycle                a cycle in the label-level acquisition graph.
  callback-under-lock  an externally supplied callable invoked — directly or
                       through a call chain (e.g. a method that runs a
                       stored MoveOnlyFn) — inside a held-lock region.

Suppress one finding with a  lockgraph:allow(<rule>)  comment on the line.
The analysis is deliberately conservative about resolution: an edge is only
recorded when the callee resolves unambiguously (typed receiver, same-class
method, unique global name, or all candidates agreeing), so every report is
actionable. The dynamic rank checker in common/lock_rank.h backstops what
static analysis cannot see (implicit member construction, virtual dispatch).

Usage: tools/lockgraph.py [repo-root] [--dot FILE] [--self-test] [-v]
"""

import argparse
import os
import re
import sys
import tempfile

# The wrapper/checker layer itself: the only files allowed to touch raw
# primitives and rank bookkeeping, excluded from unit analysis.
EXCLUDED_FILES = {
    os.path.join("src", "common", "mutex.h"),
    os.path.join("src", "common", "lock_rank.h"),
    os.path.join("src", "common", "lock_rank.cc"),
    os.path.join("src", "common", "thread_annotations.h"),
}

ALLOW_RE = re.compile(r"lockgraph:allow\(([a-z-]+)\)")
RANK_RE = re.compile(r"inline\s+constexpr\s+int\s+(k\w+)\s*=\s*(-?\d+)\s*;")

MUTEX_DECL_RE = re.compile(
    r"(?:\bmutable\s+)?(?:common::)?\bMutex\s+(\w+)\s*"
    r"(?:\{\s*(?:common::)?lockrank::(k\w+)\s*\})?\s*$")
MUTEXLOCK_RE = re.compile(r"\bMutexLock\s+\w+\s*\(\s*([\w>.\s-]*?)\s*\)")
REQUIRES_RE = re.compile(r"\bREQUIRES\(([^)]*)\)")
CALL_RE = re.compile(r"(?:(\w+)\s*(?:->|\.)\s*)?([\w~]+)\s*\(")
MAKE_RE = re.compile(r"\bstd::make_(?:shared|unique)<\s*([\w:]+)")
LOCAL_MAKE_RE = re.compile(
    r"\bauto\s+(\w+)\s*=\s*std::make_(?:shared|unique)<\s*([\w:]+)")
LOCAL_PTR_RE = re.compile(r"\b([A-Z][\w:]*)\s*[*&]\s*(\w+)\s*=")
CALLABLE_DECL_RE = re.compile(r"\b(?:MoveOnlyFn|std::function<[^;{}]*>)\s+(\w+)")
USING_FN_RE = re.compile(r"\busing\s+(\w+)\s*=\s*std::function\b")
MEMBER_RE = re.compile(
    r"^(?:mutable\s+|static\s+|const\s+|friend\s+)*"
    r"([\w:]+(?:<[\w:\s,<>*&()]+>)?)\s*(?:[*&]\s*)?(\w+)\s*"
    r"(?:GUARDED_BY\([^)]*\)\s*)?(?:=[^;]*|\{[^;]*\})?$")
LAMBDA_END_RE = re.compile(
    r"\[[^\[\]]*\]\s*(?:\([^()]*\))?\s*(?:mutable\s*)?"
    r"(?:->\s*[\w:<>,\s&*]+)?\s*$")
FUNC_END_RE = re.compile(
    r"\([^{;]*\)\s*"
    r"(?:const\s*|noexcept\s*|override\s*|final\s*|mutable\s*|"
    r"[A-Z_]+\([^()]*\)\s*|->\s*[\w:<>,\s&*]+\s*|:\s*[^{;]*)?$",
    re.S)
FUNC_NAME_RE = re.compile(r"([\w~][\w:~]*)\s*\(")
CLASS_RE = re.compile(
    r"\b(?:class|struct)\s+(?:alignas\s*\([^()]*\)\s*)?"
    r"(?:\w+\(\s*\)\s*)*([\w:]+)")

SMART_WRAP_RE = re.compile(
    r"^(?:std::)?(?:unique_ptr|shared_ptr|atomic|optional)<\s*(.*?)\s*>?$")


def strip_comments_and_strings(text):
    """Blanks comment/string/char contents, preserving line structure."""
    out = []
    i, n = 0, len(text)
    state = "code"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state, i = "line", i + 2
                out.append("  ")
            elif c == "/" and nxt == "*":
                state, i = "block", i + 2
                out.append("  ")
            elif c == '"':
                state, i = "str", i + 1
                out.append(" ")
            elif c == "'":
                state, i = "chr", i + 1
                out.append(" ")
            else:
                out.append(c)
                i += 1
        elif state == "line":
            out.append("\n" if c == "\n" else " ")
            if c == "\n":
                state = "code"
            i += 1
        elif state == "block":
            if c == "*" and nxt == "/":
                state, i = "code", i + 2
                out.append("  ")
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        else:
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                state, i = "code", i + 1
                out.append(" ")
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


def base_type(type_str):
    """'std::shared_ptr<storage::ObjectStore>' -> 'ObjectStore'."""
    t = type_str.strip()
    for _ in range(3):
        m = SMART_WRAP_RE.match(t)
        if not m:
            break
        t = m.group(1).strip()
    t = t.split("<")[0].strip()
    return t.split("::")[-1]


class ClassInfo:
    def __init__(self, name, path):
        self.name = name  # possibly qualified: 'VirtualWarehouse::QueryLease'
        self.path = path
        self.mutexes = {}        # member name -> rank label
        self.member_types = {}   # member name -> base class name
        self.callables = set()   # function-typed member names
        self.method_requires = {}  # method name -> [mutex exprs]


class Unit:
    """One analysis unit: a function body or a lambda body."""

    def __init__(self, kind, name, cls, path, line, header):
        self.kind = kind        # 'function' | 'lambda'
        self.name = name        # 'Worker::AcquireIndex' or '<lambda>'
        self.cls = cls          # enclosing class qualified name, or ''
        self.path = path
        self.line = line
        self.header = header
        self.parent = None      # enclosing Unit, for lambdas
        self.segments = []      # [(start_line, text)] excluding nested units
        self.requires = []      # mutex exprs from REQUIRES(...)
        # Filled by analysis:
        self.direct_acquires = set()   # labels acquired in this body
        self.direct_invokes = False    # invokes a callable directly
        self.calls = []                # [(receiver, name, line, held_labels)]
        self.locals_ranked = {}        # local mutex name -> label
        self.local_types = {}          # local/param name -> base class name
        self.local_callables = set()
        self.acquires = set()          # transitive summary
        self.invokes = False           # transitive summary


class Analyzer:
    def __init__(self, root, verbose=False):
        self.root = root
        self.verbose = verbose
        self.ranks = {}          # label -> int
        self.classes = {}        # qualified name -> ClassInfo
        self.short_classes = {}  # short name -> [ClassInfo]
        self.units = []
        self.func_index = {}     # method/function name -> [Unit]
        self.callables = set()   # all function-typed decl names
        self.fn_aliases = set()  # using X = std::function<...>
        self.member_labels = {}  # member name -> set of labels
        self.findings = []       # (path, line, rule, message)
        self.edges = {}          # (holder, acquired) -> (path, line, via)
        self.allows = {}         # path -> {line: set(rules)}

    # ---------------- reporting ----------------

    def report(self, path, line, rule, message):
        if rule in self.allows.get(path, {}).get(line, set()):
            return
        self.findings.append((path, line, rule, message))

    # ---------------- parsing ----------------

    def collect_sources(self):
        files = []
        src = os.path.join(self.root, "src")
        for dirpath, _, names in os.walk(src):
            for name in sorted(names):
                if name.endswith((".h", ".cc")):
                    rel = os.path.relpath(os.path.join(dirpath, name),
                                          self.root)
                    files.append(rel)
        return sorted(files)

    def parse_ranks(self):
        path = os.path.join(self.root, "src", "common", "lock_rank.h")
        if not os.path.exists(path):
            print(f"lockgraph: missing {path}", file=sys.stderr)
            return False
        with open(path, encoding="utf-8") as f:
            text = f.read()
        for m in RANK_RE.finditer(strip_comments_and_strings(text)):
            self.ranks[m.group(1)] = int(m.group(2))
        return bool(self.ranks)

    def scan_file(self, path):
        with open(os.path.join(self.root, path), encoding="utf-8") as f:
            raw = f.read()
        for lineno, line in enumerate(raw.splitlines(), start=1):
            for m in ALLOW_RE.finditer(line):
                self.allows.setdefault(path, {}).setdefault(
                    lineno, set()).add(m.group(1))
        if path in EXCLUDED_FILES:
            return
        text = strip_comments_and_strings(raw)
        for m in USING_FN_RE.finditer(text):
            self.fn_aliases.add(m.group(1))
        self._scan_blocks(path, text)

    def _scan_blocks(self, path, text):
        """Single pass over a file: tracks namespace/class/function/lambda
        nesting, routes statement text to class bodies and unit bodies."""
        # Stack entries: dicts with kind in
        # {'global','namespace','class','function','lambda','scope'}.
        stack = [{"kind": "global"}]
        cur_unit = None      # innermost Unit on the stack
        cur_class = None     # innermost ClassInfo on the stack
        class_stream = {}    # id(ClassInfo) -> [text]
        chunk = []
        line = 1
        i, n = 0, len(text)

        def flush_to_stream(s):
            if cur_unit is not None:
                if (not cur_unit.segments
                        or cur_unit.segments[-1][2] is not True):
                    cur_unit.segments.append(
                        (line - s.count("\n"), [s], True))
                else:
                    cur_unit.segments[-1][1].append(s)
            elif cur_class is not None:
                class_stream.setdefault(id(cur_class), []).append(s)

        def innermost(kind):
            for entry in reversed(stack):
                if entry["kind"] == kind:
                    return entry
            return None

        def class_chain():
            names = [e["info"].name for e in stack if e["kind"] == "class"]
            return "::".join(names)

        while i < n:
            c = text[i]
            if c == "\n":
                line += 1
            if c == "{":
                header = "".join(chunk)
                chunk = []
                ctx = stack[-1]["kind"]
                entry = None
                if ctx in ("global", "namespace", "class"):
                    stripped = header.strip()
                    mns = re.search(r"\bnamespace\s*([\w:]*)\s*$", stripped)
                    mcl = (None if re.search(r"\benum\b|\bunion\b", stripped)
                           else CLASS_RE.search(stripped))
                    if mns is not None:
                        entry = {"kind": "namespace"}
                    elif (mcl is not None
                          and not re.search(r"\)\s*$", stripped)):
                        qual = mcl.group(1)
                        name = (class_chain() + "::" + qual
                                if ctx == "class" else qual)
                        info = self.classes.get(name)
                        if info is None:
                            info = ClassInfo(name, path)
                            self.classes[name] = info
                            self.short_classes.setdefault(
                                name.split("::")[-1], []).append(info)
                        entry = {"kind": "class", "info": info}
                    elif ("(" in header
                          and FUNC_END_RE.search(header.strip())):
                        entry = self._push_function(path, line, header,
                                                    class_chain())
                    else:
                        flush_to_stream(header + "{")
                        entry = {"kind": "scope"}
                else:  # inside a function/lambda/scope
                    if LAMBDA_END_RE.search(header):
                        flush_to_stream(header)  # keep e.g. 'Submit([this]'
                        unit = Unit("lambda", "<lambda>", "",
                                    path, line, header)
                        unit.parent = cur_unit
                        self.units.append(unit)
                        entry = {"kind": "lambda", "unit": unit}
                    else:
                        flush_to_stream(header + "{")
                        entry = {"kind": "scope"}
                stack.append(entry)
                if entry["kind"] in ("function", "lambda"):
                    cur_unit = entry["unit"]
                if entry["kind"] == "class":
                    cur_class = entry["info"]
                i += 1
                continue
            if c == "}":
                leftover = "".join(chunk)
                chunk = []
                if leftover.strip():
                    flush_to_stream(leftover)
                if len(stack) > 1:
                    closed = stack.pop()
                    if closed["kind"] == "scope":
                        flush_to_stream("}")
                    elif closed["kind"] == "class":
                        self._finish_class(
                            closed["info"],
                            "".join(class_stream.pop(id(closed["info"]),
                                                     [])))
                    # Recompute innermost unit/class pointers.
                    cur_unit = None
                    cur_class = None
                    fentry = innermost("function") or innermost("lambda")
                    # innermost of either kind: walk stack once more
                    for e in reversed(stack):
                        if e["kind"] in ("function", "lambda"):
                            cur_unit = e["unit"]
                            break
                    for e in reversed(stack):
                        if e["kind"] == "class":
                            cur_class = e["info"]
                            break
                    del fentry
                i += 1
                continue
            if c == ";":
                chunk.append(c)
                flush_to_stream("".join(chunk))
                chunk = []
                i += 1
                continue
            chunk.append(c)
            i += 1

    def _push_function(self, path, line, header, cls_chain):
        stripped = header.strip()
        # Drop a trailing ctor-init list so FUNC_NAME_RE sees the signature.
        m = FUNC_NAME_RE.search(stripped)
        name = m.group(1) if m else "<anon>"
        if cls_chain and "::" not in name:
            qual_cls = cls_chain
        elif "::" in name:
            qual_cls = name.rsplit("::", 1)[0]
        else:
            qual_cls = ""
        short = name.rsplit("::", 1)[-1]
        unit = Unit("function", name, qual_cls, path, line, header)
        for rm in REQUIRES_RE.finditer(header):
            unit.requires.extend(
                e.strip() for e in rm.group(1).split(",") if e.strip())
        # Simple parameter types: '..., VirtualWarehouse* vw, ...'
        paren = stripped.find("(")
        close = stripped.rfind(")")
        if 0 <= paren < close:
            for part in stripped[paren + 1:close].split(","):
                pm = re.match(
                    r"\s*(?:const\s+)?([\w:]+(?:<[^<>]*>)?)\s*[*&]?\s*(\w+)"
                    r"\s*$", part)
                if pm:
                    unit.local_types[pm.group(2)] = base_type(pm.group(1))
            for cm in CALLABLE_DECL_RE.finditer(stripped[paren:close + 1]):
                unit.local_callables.add(cm.group(1))
            for alias in self.fn_aliases:
                for am in re.finditer(
                        r"\b" + alias + r"\s+(\w+)", stripped[paren:close + 1]):
                    unit.local_callables.add(am.group(1))
        self.units.append(unit)
        self.func_index.setdefault(short, []).append(unit)
        return {"kind": "function", "unit": unit}

    def _finish_class(self, info, stream):
        for stmt in stream.split(";"):
            stmt = re.sub(r"^(?:\s*(?:public|private|protected)\s*:)+", "",
                          stmt).strip()
            if not stmt:
                continue
            if "(" in stmt and "GUARDED_BY" not in stmt.split("(")[0]:
                # Method declaration: harvest REQUIRES for out-of-line defs.
                nm = FUNC_NAME_RE.search(stmt)
                if nm:
                    reqs = []
                    for rm in REQUIRES_RE.finditer(stmt):
                        reqs.extend(e.strip() for e in rm.group(1).split(",")
                                    if e.strip())
                    if reqs:
                        info.method_requires.setdefault(
                            nm.group(1).rsplit("::", 1)[-1], []).extend(reqs)
                # A std::function-typed member also contains parens.
                for cm in CALLABLE_DECL_RE.finditer(stmt):
                    if stmt.rstrip().endswith(cm.group(1)):
                        info.callables.add(cm.group(1))
                        self.callables.add(cm.group(1))
                continue
            dm = MUTEX_DECL_RE.search(stmt)
            if dm:
                name, label = dm.group(1), dm.group(2)
                if label is None:
                    self.report(info.path, 1, "unranked-mutex",
                                f"{info.name}::{name} has no lockrank:: "
                                "constant; every mutex in src/ must be "
                                "constructed with a rank (lock_rank.h)")
                    continue
                if label not in self.ranks:
                    self.report(info.path, 1, "unknown-rank",
                                f"{info.name}::{name} uses {label}, which is "
                                "not defined in src/common/lock_rank.h")
                    continue
                info.mutexes[name] = label
                self.member_labels.setdefault(name, set()).add(label)
                continue
            mm = MEMBER_RE.match(stmt)
            if mm:
                tname, mname = mm.group(1), mm.group(2)
                if tname in ("return", "using", "typedef", "public",
                             "private", "protected", "else"):
                    continue
                bt = base_type(tname)
                if (tname.startswith("std::function") or tname == "MoveOnlyFn"
                        or bt in self.fn_aliases):
                    info.callables.add(mname)
                    self.callables.add(mname)
                else:
                    info.member_types[mname] = bt

    # ---------------- resolution ----------------

    def _class_by_short(self, short):
        infos = self.short_classes.get(short, [])
        return infos[0] if len(infos) == 1 else None

    def _enclosing_chain(self, cls):
        """'A::B::C' -> [ClassInfo(A::B::C), ClassInfo(A::B), ClassInfo(A)]"""
        chain = []
        parts = cls.split("::") if cls else []
        while parts:
            info = self.classes.get("::".join(parts))
            if info is None:
                info = self._class_by_short(parts[-1])
            if info is not None:
                chain.append(info)
            parts.pop()
        return chain

    def resolve_mutex_expr(self, unit, expr):
        """Returns (label, error_message)."""
        expr = expr.strip()
        if not expr:
            return None, "empty mutex expression"
        parts = re.split(r"->|\.", expr)
        parts = [p.strip() for p in parts if p.strip()]
        if len(parts) == 1:
            name = parts[0]
            if name in unit.locals_ranked:
                return unit.locals_ranked[name], None
            for info in self._enclosing_chain(unit.cls):
                if name in info.mutexes:
                    return info.mutexes[name], None
            labels = self.member_labels.get(name, set())
            if len(labels) == 1:
                return next(iter(labels)), None
            if len(labels) > 1:
                return None, (f"`{expr}` matches members with different "
                              f"ranks {sorted(labels)}")
            return None, f"`{expr}` does not resolve to a ranked mutex"
        base, member = parts[0], parts[-1]
        bt = unit.local_types.get(base)
        if bt is None:
            for info in self._enclosing_chain(unit.cls):
                if base in info.member_types:
                    bt = info.member_types[base]
                    break
        if bt is not None:
            binfo = self._class_by_short(bt)
            if binfo is not None and member in binfo.mutexes:
                return binfo.mutexes[member], None
        labels = self.member_labels.get(member, set())
        if len(labels) == 1:
            return next(iter(labels)), None
        if len(labels) > 1:
            return None, (f"`{expr}` matches members with different ranks "
                          f"{sorted(labels)}")
        return None, f"`{expr}` does not resolve to a ranked mutex"

    def resolve_call(self, unit, receiver, name):
        """Returns list of candidate Units, or [] when unknown/ambiguous."""
        if name == receiver is None and False:
            return []
        candidates = self.func_index.get(name, [])
        if not candidates:
            return []
        if receiver:
            bt = unit.local_types.get(receiver)
            if bt is None:
                for info in self._enclosing_chain(unit.cls):
                    if receiver in info.member_types:
                        bt = info.member_types[receiver]
                        break
            if bt is not None:
                # The receiver's class is known: either the method resolves
                # inside it, or this call is not to a function we model
                # (e.g. CondVar::Wait in the excluded wrapper). Never fall
                # through to name-based resolution from a typed receiver.
                return [u for u in candidates
                        if u.cls.split("::")[-1] == bt]
        else:
            for info in self._enclosing_chain(unit.cls):
                own = [u for u in candidates if u.cls == info.name]
                if own:
                    return own
            free = [u for u in candidates if u.cls == ""]
            if free:
                return free
        if len(candidates) == 1:
            return candidates
        # Ambiguous: usable only if every candidate agrees (direct facts
        # included so the verdict is stable across fixpoint rounds).
        sigs = {(frozenset(u.acquires | u.direct_acquires),
                 u.invokes or u.direct_invokes) for u in candidates}
        return candidates if len(sigs) == 1 else []

    # ---------------- unit analysis ----------------

    def analyze_unit(self, unit):
        # Lambdas see the enclosing function's typed locals (captures keep
        # the same names); units are analyzed in creation order, so the
        # parent's locals are complete by the time the lambda runs.
        if unit.parent is not None:
            for lname, ltype in unit.parent.local_types.items():
                unit.local_types.setdefault(lname, ltype)
        chars = []
        lines = []
        for start_line, parts, _ in unit.segments:
            ln = start_line
            for part in parts:
                for ch in part:
                    chars.append(ch)
                    lines.append(ln)
                    if ch == "\n":
                        ln += 1
        body = "".join(chars)
        depth = []
        d = 0
        for ch in body:
            if ch == "{":
                d += 1
            depth.append(d)
            if ch == "}":
                d = max(0, d - 1)

        # Locals: ranked mutexes, typed vars, callables.
        for m in re.finditer(
                r"(?:common::)?\bMutex\s+(\w+)\s*\{\s*(?:common::)?"
                r"lockrank::(k\w+)", body):
            if m.group(2) in self.ranks:
                unit.locals_ranked[m.group(1)] = m.group(2)
            else:
                self.report(unit.path, lines[m.start()], "unknown-rank",
                            f"{m.group(2)} is not defined in lock_rank.h")
        for m in re.finditer(r"(?:common::)?\bMutex\s+(\w+)\s*;", body):
            self.report(unit.path, lines[m.start()], "unranked-mutex",
                        f"local mutex `{m.group(1)}` in {unit.name} has no "
                        "lockrank:: constant")
        for m in LOCAL_MAKE_RE.finditer(body):
            unit.local_types[m.group(1)] = base_type(m.group(2))
        for m in LOCAL_PTR_RE.finditer(body):
            unit.local_types.setdefault(m.group(2), base_type(m.group(1)))
        for m in CALLABLE_DECL_RE.finditer(body):
            unit.local_callables.add(m.group(1))

        # REQUIRES: from the definition header plus the class declaration.
        reqs = list(unit.requires)
        short = unit.name.rsplit("::", 1)[-1]
        for info in self._enclosing_chain(unit.cls):
            reqs.extend(info.method_requires.get(short, []))
        entry_held = []
        for expr in reqs:
            label, err = self.resolve_mutex_expr(unit, expr)
            if label is not None:
                entry_held.append((label, f"REQUIRES({expr})"))

        # Held regions: each MutexLock is active until depth drops below the
        # depth at its declaration.
        regions = []  # (start, end, label)
        for m in MUTEXLOCK_RE.finditer(body):
            pos = m.start()
            label, err = self.resolve_mutex_expr(unit, m.group(1))
            if label is None:
                self.report(unit.path, lines[pos], "ambiguous-mutex",
                            f"in {unit.name}: {err}")
                continue
            d0 = depth[pos]
            end = len(body)
            for j in range(m.end(), len(body)):
                if depth[j] < d0:
                    end = j
                    break
            regions.append((pos, end, label, lines[pos]))

        def held_at(pos):
            held = list(entry_held)
            held.extend((lab, f"MutexLock at line {ln}")
                        for (s, e, lab, ln) in regions if s < pos < e)
            return held

        # Direct nested acquisitions -> edges.
        for (s, e, label, ln) in regions:
            unit.direct_acquires.add(label)
            for (hl, why) in held_at(s):
                self.add_edge(hl, label, unit.path, ln,
                              f"{unit.name} ({why})")

        # Calls.
        for m in CALL_RE.finditer(body):
            receiver, name = m.group(1), m.group(2)
            if name in ("if", "for", "while", "switch", "return", "sizeof",
                        "MutexLock", "Mutex", "catch", "GUARDED_BY",
                        "REQUIRES", "EXCLUDES", "defined", "alignof",
                        "decltype", "noexcept"):
                continue
            pos = m.start()
            held = held_at(pos)
            is_callable = (name in self.callables
                           or name in unit.local_callables)
            if is_callable:
                unit.direct_invokes = True
                if held:
                    hl = held[-1][0]
                    self.report(
                        unit.path, lines[pos], "callback-under-lock",
                        f"{unit.name} invokes callable `{name}` while "
                        f"holding {hl}; release the lock before calling out")
                continue
            mk = MAKE_RE.match(body, pos) if name.startswith("make_") else None
            if mk is not None:
                cls_short = base_type(mk.group(1))
                name = cls_short
                receiver = None
                ctor = [u for u in self.func_index.get(cls_short, [])
                        if u.cls.split("::")[-1] == cls_short]
                if not ctor:
                    continue
            unit.calls.append((receiver, name, lines[pos],
                               tuple(h[0] for h in held)))

    def add_edge(self, holder, acquired, path, line, via):
        key = (holder, acquired)
        if key not in self.edges:
            self.edges[key] = (path, line, via)

    # ---------------- whole-program passes ----------------

    def compute_summaries(self):
        changed = True
        rounds = 0
        while changed and rounds < 50:
            changed = False
            rounds += 1
            for unit in self.units:
                if unit.kind != "function":
                    continue
                acquires = set(unit.direct_acquires)
                invokes = unit.direct_invokes
                for (receiver, name, _, _) in unit.calls:
                    for cand in self.resolve_call(unit, receiver, name):
                        acquires |= cand.acquires
                        invokes = invokes or cand.invokes
                if acquires != unit.acquires or invokes != unit.invokes:
                    unit.acquires = acquires
                    unit.invokes = invokes
                    changed = True

    def propagate_call_edges(self):
        for unit in self.units:
            for (receiver, name, line, held) in unit.calls:
                if not held:
                    continue
                cands = self.resolve_call(unit, receiver, name)
                if not cands:
                    continue
                acquired = set()
                invokes = False
                for cand in cands:
                    acquired |= cand.acquires
                    invokes = invokes or cand.invokes
                callee = cands[0].name
                if invokes:
                    self.report(
                        unit.path, line, "callback-under-lock",
                        f"{unit.name} calls {callee} — which can invoke a "
                        f"continuation/callback inline — while holding "
                        f"{held[-1]}; release the lock first (e.g. fire "
                        "SetValue after a scoped unlock)")
                for lab in acquired:
                    for hl in held:
                        self.add_edge(hl, lab, unit.path, line,
                                      f"{unit.name} -> {callee}")

    def check_graph(self):
        for (a, b), (path, line, via) in sorted(self.edges.items()):
            ra, rb = self.ranks.get(a), self.ranks.get(b)
            if ra is None or rb is None:
                continue
            if a == b and a.endswith("Shard"):
                # Per-core shard family: siblings share one rank on purpose;
                # the steal protocol forbids holding two shard locks at once.
                self.report(
                    path, line, "shard-nesting",
                    f"{b} acquired while a sibling {a} shard lock is held "
                    f"via {via}; shard-family locks must never nest — "
                    "release the local shard before locking a victim's "
                    "(work-stealing holds at most one shard lock)")
                continue
            if ra <= rb:
                self.report(
                    path, line, "order-violation",
                    f"{b} (rank {rb}) acquired while {a} (rank {ra}) is "
                    f"held via {via}; acquisition order must be strictly "
                    "decreasing in rank")
        # Cycle detection over the label graph. Shard-family self-edges were
        # already reported above (one rule per defect).
        graph = {}
        for (a, b) in self.edges:
            if a == b and a.endswith("Shard"):
                continue
            graph.setdefault(a, set()).add(b)
            graph.setdefault(b, set())
        WHITE, GREY, BLACK = 0, 1, 2
        color = {v: WHITE for v in graph}
        stack = []

        def dfs(v):
            color[v] = GREY
            stack.append(v)
            for w in sorted(graph[v]):
                if color[w] == GREY:
                    return stack[stack.index(w):] + [w]
                if color[w] == WHITE:
                    cyc = dfs(w)
                    if cyc:
                        return cyc
            stack.pop()
            color[v] = BLACK
            return None

        for v in sorted(graph):
            if color[v] == WHITE:
                cyc = dfs(v)
                if cyc:
                    path, line, via = self.edges[(cyc[0], cyc[1])]
                    self.report(path, line, "cycle",
                                "lock-acquisition cycle: "
                                + " -> ".join(cyc))
                    break

    # ---------------- output ----------------

    def dot(self):
        out = ["digraph lockgraph {"]
        out.append('  rankdir="TB";')
        out.append('  node [shape=box, fontname="monospace"];')
        labels = sorted(self.ranks, key=lambda k: -self.ranks[k])
        used = {v for e in self.edges for v in e}
        for lab in labels:
            if lab == "kUnranked":
                continue
            style = "" if lab in used else ', style="dashed"'
            out.append(f'  "{lab}" [label="{lab}\\n{self.ranks[lab]}"'
                       f'{style}];')
        for (a, b), (path, line, via) in sorted(self.edges.items()):
            out.append(f'  "{a}" -> "{b}" [tooltip="{path}:{line}"];')
        out.append("}")
        return "\n".join(out)

    # ---------------- driver ----------------

    def run(self):
        if not self.parse_ranks():
            print("lockgraph: no ranks parsed from src/common/lock_rank.h",
                  file=sys.stderr)
            return 1
        files = self.collect_sources()
        if not files:
            print(f"lockgraph: no sources under "
                  f"{os.path.join(self.root, 'src')}", file=sys.stderr)
            return 1
        for path in files:
            self.scan_file(path)
        for unit in self.units:
            self.analyze_unit(unit)
        self.compute_summaries()
        self.propagate_call_edges()
        self.check_graph()
        if self.verbose:
            print(f"lockgraph: {len(self.units)} units, "
                  f"{len(self.classes)} classes, {len(self.edges)} edges",
                  file=sys.stderr)
            for (a, b), (path, line, via) in sorted(self.edges.items()):
                print(f"  {a} -> {b}  ({path}:{line} {via})",
                      file=sys.stderr)
        for path, line, rule, message in sorted(set(self.findings)):
            print(f"{path}:{line}: [{rule}] {message}")
        if self.findings:
            print(f"lockgraph: {len(self.findings)} finding(s) in "
                  f"{len(files)} files", file=sys.stderr)
            return 1
        print(f"lockgraph: OK ({len(files)} files, {len(self.units)} units, "
              f"{len(self.edges)} acquisition edges)")
        return 0


# ---------------- self-test ----------------

SELFTEST_RANK_H = """
#pragma once
namespace blendhouse::common::lockrank {
inline constexpr int kUnranked = -1;
inline constexpr int kOuter = 200;
inline constexpr int kInner = 100;
inline constexpr int kTestShard = 50;
}
"""

SELFTEST_A_H = """
#pragma once
namespace blendhouse::foo {
class Widget {
 public:
  void Good();
  void Bad();
  void Fire();
 private:
  common::Mutex outer_{common::lockrank::kOuter};
  common::Mutex inner_{common::lockrank::kInner};
  common::Mutex stray_;
  MoveOnlyFn cb_;
};
}
"""

SELFTEST_A_CC = """
#include "foo/a.h"
namespace blendhouse::foo {
void Widget::Good() {
  common::MutexLock lock(outer_);
  common::MutexLock inner_lock(inner_);
}
void Widget::Bad() {
  common::MutexLock lock(inner_);
  common::MutexLock outer_lock(outer_);
}
void Widget::Fire() {
  common::MutexLock lock(inner_);
  cb_();
}
}
"""

SELFTEST_B_H = """
#pragma once
namespace blendhouse::foo {
class Pool {
 public:
  void BadSteal();
 private:
  struct alignas(64) PoolShard {
    common::Mutex mu{common::lockrank::kTestShard};
  };
  std::deque<PoolShard> shards_;
};
}
"""

SELFTEST_B_CC = """
#include "foo/b.h"
namespace blendhouse::foo {
void Pool::BadSteal() {
  PoolShard& own = shards_[0];
  common::MutexLock lock(own.mu);
  PoolShard& victim = shards_[1];
  common::MutexLock steal_lock(victim.mu);
}
}
"""


def self_test():
    with tempfile.TemporaryDirectory() as tmp:
        common = os.path.join(tmp, "src", "common")
        foo = os.path.join(tmp, "src", "foo")
        os.makedirs(common)
        os.makedirs(foo)
        with open(os.path.join(common, "lock_rank.h"), "w",
                  encoding="utf-8") as f:
            f.write(SELFTEST_RANK_H)
        with open(os.path.join(foo, "a.h"), "w", encoding="utf-8") as f:
            f.write(SELFTEST_A_H)
        with open(os.path.join(foo, "a.cc"), "w", encoding="utf-8") as f:
            f.write(SELFTEST_A_CC)
        with open(os.path.join(foo, "b.h"), "w", encoding="utf-8") as f:
            f.write(SELFTEST_B_H)
        with open(os.path.join(foo, "b.cc"), "w", encoding="utf-8") as f:
            f.write(SELFTEST_B_CC)
        analyzer = Analyzer(tmp)
        rc = analyzer.run()
        rules = {r for (_, _, r, _) in analyzer.findings}
        expected = {"order-violation", "cycle", "callback-under-lock",
                    "unranked-mutex", "shard-nesting"}
        missing = expected - rules
        if rc == 0 or missing:
            print(f"lockgraph self-test FAILED: rc={rc}, "
                  f"missing rules: {sorted(missing)}", file=sys.stderr)
            return 1
        # The monotone Good() edge must NOT be reported.
        for (_, _, rule, msg) in analyzer.findings:
            if rule == "order-violation" and "kInner (rank 100) acquired" \
                    in msg:
                print("lockgraph self-test FAILED: flagged the monotone "
                      "outer->inner edge", file=sys.stderr)
                return 1
        print("lockgraph self-test OK "
              f"(detected: {', '.join(sorted(expected))})")
        return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("root", nargs="?", default=".")
    parser.add_argument("--dot", metavar="FILE",
                        help="write the acquisition graph as DOT "
                             "('-' for stdout)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the seeded-violation self-test and exit")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    analyzer = Analyzer(args.root, verbose=args.verbose)
    rc = analyzer.run()
    if args.dot:
        text = analyzer.dot()
        if args.dot == "-":
            print(text)
        else:
            with open(args.dot, "w", encoding="utf-8") as f:
                f.write(text + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
