"""Back-end, native target: lower a count-mode plan's AST to C.

The paper's back-end emits C++; :mod:`repro.compiler.codegen` emits
Python.  This module lowers the *same* optimized AST — same passes,
restriction sets and orientation — to one C function, builds it with
the host compiler, and calls it through :mod:`ctypes`.  The engine's
``codegen`` executor runs a plan's C entry point in place of
``plan.function`` whenever :func:`resolve` finds one; everything else
(chunking, supervision, checkpoints, aux corrections) is unchanged.

Lowering
    A vertex set is a ``(pointer, length)`` view.  ``neighbors`` and
    ``oriented`` are slices of the CSR arrays (``oriented`` starts at
    the row's split index), ``universe`` is ``graph.vertices()``, and
    ``trim_*`` is a binary-search view.  ``intersect``, ``subtract``,
    ``exclude`` and the bounded forms write into per-call scratch
    through merge or gallop helpers.  Scalars are ``int64``;
    ``add``/``sub``/``mul`` and ``Accumulate`` are overflow-checked and
    ``floordiv`` keeps Python's floor semantics.  Names are renamed in
    order of first appearance, so the source depends only on the AST.

When to build
    Only plans whose predicted cost reaches :data:`NATIVE_MIN_COST`,
    scaled up for loop nests larger than :data:`NATIVE_BODY_BYTES`: a
    compiler run costs about what that much Python execution does.
    Hash-table nodes, ``IfPred``/``EmitPartial``, label set ops and
    emit mode stay on ``plan.function``, and so does every plan when no
    compiler is found; :func:`resolve` says why.

Safety
    The C loop reads the run's cancel-token byte on every outer
    iteration and returns to :func:`run` at least every
    :data:`SLICE_NS` with a resume index, so governor polls and signal
    handlers still run.  An ``int64`` overflow (or a division the C
    side cannot do exactly) reruns the chunk through ``plan.function``,
    which yields Python's exact big-integer count or its exception.

Build cache
    Entry points are kept per process, keyed by
    ``sha256(source, compiler version, flags)``; the dict holds loaded
    functions only, never plans or graphs.  Each build goes to a private
    temporary directory, removed once the library is loaded.  A plan's
    resolved :class:`Target` lives on the plan (``CompiledPlan.native``),
    so fork workers inherit it and never build.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.compiler.ast_nodes import (
    Accumulate,
    EmitPartial,
    HashAdd,
    HashClear,
    HashGet,
    IfPositive,
    IfPred,
    Loop,
    Node,
    Root,
    ScalarOp,
    SetOp,
    walk,
)
from repro.runtime.setops import GALLOP_RATIO, STATS

__all__ = [
    "NATIVE_BODY_BYTES",
    "NATIVE_MIN_COST",
    "SLICE_NS",
    "Target",
    "find_compiler",
    "resolve",
    "run",
    "target_for",
]

#: Smallest predicted plan cost worth a compiler run.  The estimate
#: tracks Python execution at roughly 1.2e5-7e5 cost units per second,
#: so 1e4 is about 30 ms of Python: a third of one ``gcc -O2`` build.
NATIVE_MIN_COST = 1e4

#: Loop-nest bytes one :data:`NATIVE_MIN_COST` pays to build.  Up to
#: this size a build takes about 0.1-0.3 s; beyond it, build time grows
#: about linearly with the C (13 KiB: 1.1 s, 750 KiB: 33 s), so a larger
#: body needs a proportionally larger predicted cost.
NATIVE_BODY_BYTES = 4096

#: Longest stretch the C loop runs before returning to :func:`run`.
SLICE_NS = 10_000_000

#: Compiler flags; part of the build key.
FLAGS = ("-O2", "-std=c99", "-fPIC", "-shared")

#: Set-op counters the C function keeps, in ``KernelStats`` field names.
_STAT_FIELDS = ("intersect_gallop", "intersect_merge", "subtract_gallop",
                "subtract_merge", "bounded")

# Entry-point status codes.
_DONE, _SLICE, _CANCELLED, _INEXACT = 0, 1, 2, 3

_I64_MIN, _I64_MAX = -(2 ** 63), 2 ** 63 - 1


@dataclass(frozen=True)
class Target:
    """Where a plan's ``codegen`` execution runs: ``"c"`` or ``"python"``.

    A ``"c"`` target carries the loaded entry point and what :func:`run`
    needs to call it; a ``"python"`` target carries the fallback reason.
    """

    target: str
    reason: str | None = None
    entry: object = None
    source: str = ""
    accumulators: tuple[str, ...] = ()
    #: Scratch buffers bounded by the max degree and by ``|V|``.
    degree_buffers: int = 0
    vertex_buffers: int = 0
    uses_split: bool = False


@lru_cache(maxsize=None)
def find_compiler() -> str | None:
    """Path of the host C compiler, or None when there is none."""
    return shutil.which("gcc") or shutil.which("cc")


def target_for(plan, executor: str) -> Target:
    """The target a plan runs on under ``executor``."""
    if executor != "codegen":
        return Target("python", f"executor {executor!r}")
    return resolve(plan)


def resolve(plan) -> Target:
    """The plan's target, building its C entry point on first use.

    The cost gate and the compiler lookup are checked on every call;
    the lowering, its size-scaled gate and the build are decided once
    and kept on ``plan.native``.
    """
    cost = plan.cost
    if not cost >= NATIVE_MIN_COST:  # NaN fails too
        return Target("python", f"predicted cost {cost:.3g} below "
                                f"NATIVE_MIN_COST {NATIVE_MIN_COST:g}")
    compiler = find_compiler()
    if compiler is None:
        return Target("python", "no C compiler found")
    native = plan.native
    if native is None:
        native = plan.native = _lower_and_load(plan, compiler)
    return native


def _lower_and_load(plan, compiler: str) -> Target:
    try:
        lowered = _Lowering(plan.root, plan.mode)
    except _Unsupported as exc:
        return Target("python", str(exc))
    gate = NATIVE_MIN_COST * max(1.0, lowered.body_bytes / NATIVE_BODY_BYTES)
    if not plan.cost >= gate:
        return Target("python", f"predicted cost {plan.cost:.3g} below "
                                f"{gate:.3g}, the gate scaled to a "
                                f"{lowered.body_bytes}-byte C loop nest")
    entry = _entry_point(lowered.source, compiler)
    if isinstance(entry, str):
        return Target("python", entry)
    return Target(
        "c", entry=entry, source=lowered.source,
        accumulators=plan.root.accumulators,
        degree_buffers=lowered.buffers.count("D"),
        vertex_buffers=lowered.buffers.count("V"),
        uses_split=lowered.uses_split,
    )


# ----------------------------------------------------------------------
# Running an entry point
# ----------------------------------------------------------------------

def _address(array) -> int:
    """Address of an array the C side reads as contiguous ``int64``."""
    if array.dtype != np.int64 or not array.flags.c_contiguous:
        raise ValueError(f"native plans need contiguous int64 arrays, got "
                         f"{array.dtype} (contiguous: "
                         f"{array.flags.c_contiguous})")
    return array.ctypes.data


def run(plan, native: Target, graph, ctx, start=None, stop=None
        ) -> dict[str, int]:
    """Run outer-loop positions ``[start, stop)`` of ``plan`` natively.

    Returns to Python every :data:`SLICE_NS` to poll ``ctx``; a set
    cancel byte raises the governor's ``ChunkCancelled``; an inexact
    result reruns the range through ``plan.function``.
    """
    lo = 0 if start is None else start
    hi = _I64_MAX if stop is None else stop
    num_vertices, max_degree = graph.num_vertices, graph.max_degree
    scratch = np.empty(
        1 + native.degree_buffers * max_degree
        + native.vertex_buffers * num_vertices, dtype=np.int64,
    )
    verts = graph.vertices()
    split = graph._split if native.uses_split else None
    acc = np.zeros(max(1, len(native.accumulators)), dtype=np.int64)
    stats = np.zeros(len(_STAT_FIELDS), dtype=np.int64)
    resume = np.zeros(1, dtype=np.int64)
    token = ctx.resources.token if ctx.resources is not None else None
    cancel = None
    try:
        if token is not None:
            cancel = token.flag()
        while True:
            status = native.entry(
                _address(graph.indptr), _address(graph.indices),
                None if split is None else _address(split),
                _address(verts), num_vertices, lo, hi, max_degree,
                _address(scratch),
                None if cancel is None else ctypes.addressof(cancel),
                SLICE_NS, _address(acc), _address(stats), _address(resume),
            )
            if status == _DONE:
                break
            if status == _INEXACT:
                _add_stats(stats)
                return plan.function(graph, ctx, start, stop)
            if status == _CANCELLED:
                ctx.resources.check_cancel()
            else:
                ctx.poll_cancel()
            lo = int(resume[0])
    finally:
        # Drop the buffer export before the token can be closed.
        del cancel
    _add_stats(stats)
    return dict(zip(native.accumulators, acc.tolist()))


def _add_stats(stats) -> None:
    for name, value in zip(_STAT_FIELDS, stats.tolist()):
        if value:
            setattr(STATS, name, getattr(STATS, name) + value)


# ----------------------------------------------------------------------
# Build cache
# ----------------------------------------------------------------------

#: Loaded entry points (or build-failure reasons) by build key.
_BUILDS: dict[str, object] = {}
_BUILD_LOCK = threading.Lock()


@lru_cache(maxsize=None)
def _compiler_version(compiler: str) -> str:
    try:
        out = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True, timeout=60)
    except (OSError, subprocess.SubprocessError):
        return compiler
    return out.stdout.splitlines()[0] if out.stdout else compiler


def _entry_point(source: str, compiler: str):
    """The loaded entry point for ``source``, or why there is none."""
    digest = hashlib.sha256()
    for part in (source, _compiler_version(compiler), " ".join(FLAGS)):
        digest.update(part.encode())
        digest.update(b"\x00")
    key = digest.hexdigest()
    with _BUILD_LOCK:
        entry = _BUILDS.get(key)
        if entry is None:
            entry = _BUILDS[key] = _build(source, compiler, key)
    return entry


def _build(source: str, compiler: str, key: str):
    """Compile and load ``source`` in a private temporary directory,
    removed once the library is loaded (the mapping outlives the file)."""
    from repro.observe import metrics as om
    from repro.observe.trace import span

    with span("native_build", key=key[:12], source_bytes=len(source)), \
            tempfile.TemporaryDirectory(prefix="repro-cgen-") as tmp:
        c_path, so_path = (os.path.join(tmp, f"plan{suffix}")
                           for suffix in (".c", ".so"))
        with open(c_path, "w") as handle:
            handle.write(source)
        try:
            done = subprocess.run([compiler, *FLAGS, "-o", so_path, c_path],
                                  capture_output=True, text=True, timeout=300)
        except (OSError, subprocess.SubprocessError) as exc:
            return f"C build failed: {exc}"
        om.counter("repro_native_builds_total",
                   "C entry points built by the native target").inc()
        if done.returncode != 0:
            first = (done.stderr.strip().splitlines() or ["?"])[0]
            return f"C build failed: {first}"
        try:
            library = ctypes.CDLL(so_path)
        except OSError as exc:
            return f"C build failed to load: {exc}"
    entry = library.decomine_plan
    entry.restype = ctypes.c_int
    pointer, i64 = ctypes.c_void_p, ctypes.c_int64
    entry.argtypes = (pointer, pointer, pointer, pointer, i64, i64, i64, i64,
                      pointer, pointer, i64, pointer, pointer, pointer)
    return entry


# ----------------------------------------------------------------------
# Lowering
# ----------------------------------------------------------------------

class _Unsupported(Exception):
    """The plan has no C lowering; the message is the fallback reason."""


_PRELUDE = r"""#define _POSIX_C_SOURCE 199309L
#include <stdint.h>
#include <time.h>

typedef int64_t i64;
typedef struct { const i64 *p; i64 n; } set_t;
enum { IG, IM, SG, SM, BD };
#define GALLOP %(gallop)d

static inline i64 now_ns(void) {
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (i64)t.tv_sec * 1000000000 + t.tv_nsec;
}

/* First index whose element is >= x. */
static inline i64 lower(const i64 *a, i64 n, i64 x) {
    i64 lo = 0;
    while (n > 0) {
        i64 half = n >> 1;
        if (a[lo + half] < x) { lo += half + 1; n -= half + 1; }
        else n = half;
    }
    return lo;
}

static inline set_t trim_below(set_t a, i64 x) {
    a.n = lower(a.p, a.n, x);
    return a;
}

static inline set_t trim_above(set_t a, i64 x) {
    i64 k = lower(a.p, a.n, x + 1);  /* vertex ids: x + 1 cannot overflow */
    a.p += k;
    a.n -= k;
    return a;
}

static inline set_t isect(set_t a, set_t b, i64 *out, i64 *st) {
    if (a.n > b.n) { set_t t = a; a = b; b = t; }
    set_t r = {out, 0};
    if (a.n == 0) return r;
    i64 k = 0;
    if (b.n >= a.n * GALLOP) {
        const i64 *bp = b.p;
        i64 bn = b.n;
        st[IG]++;
        for (i64 i = 0; i < a.n && bn > 0; i++) {
            i64 x = a.p[i], j = lower(bp, bn, x);
            bp += j;
            bn -= j;
            if (bn > 0 && *bp == x) { out[k++] = x; bp++; bn--; }
        }
    } else {
        i64 i = 0, j = 0;
        st[IM]++;
        while (i < a.n && j < b.n) {
            i64 x = a.p[i], y = b.p[j];
            out[k] = x;
            k += x == y;
            i += x <= y;
            j += y <= x;
        }
    }
    r.n = k;
    return r;
}

static inline set_t sub(set_t a, set_t b, i64 *out, i64 *st) {
    if (a.n == 0 || b.n == 0) return a;
    i64 k = 0;
    if (b.n >= a.n * GALLOP) {
        const i64 *bp = b.p;
        i64 bn = b.n;
        st[SG]++;
        for (i64 i = 0; i < a.n; i++) {
            i64 x = a.p[i], j = lower(bp, bn, x);
            bp += j;
            bn -= j;
            if (bn > 0 && *bp == x) { bp++; bn--; }
            else out[k++] = x;
        }
    } else {
        i64 j = 0;
        st[SM]++;
        for (i64 i = 0; i < a.n; i++) {
            i64 x = a.p[i];
            while (j < b.n && b.p[j] < x) j++;
            if (j < b.n && b.p[j] == x) j++;
            else out[k++] = x;
        }
    }
    set_t r = {out, k};
    return r;
}

static inline set_t excl(set_t a, const i64 *xs, int m, i64 *out) {
    int hit = 0;
    for (int t = 0; t < m && !hit; t++) {
        i64 j = lower(a.p, a.n, xs[t]);
        hit = j < a.n && a.p[j] == xs[t];
    }
    if (!hit) return a;
    i64 k = 0;
    for (i64 i = 0; i < a.n; i++) {
        i64 x = a.p[i];
        int keep = 1;
        for (int t = 0; t < m; t++) keep &= x != xs[t];
        out[k] = x;
        k += keep;
    }
    set_t r = {out, k};
    return r;
}

/* Python's floor division; nonzero when it has no int64 result. */
static inline int fdiv(i64 a, i64 b, i64 *r) {
    if (b == 0 || (a == INT64_MIN && b == -1)) return 1;
    i64 q = a / b;
    if (a %% b != 0 && ((a < 0) != (b < 0))) q--;
    *r = q;
    return 0;
}

"""

_SIGNATURE = """int decomine_plan(
    const i64 *restrict indptr, const i64 *restrict indices,
    const i64 *restrict split, const i64 *restrict verts, i64 nv,
    i64 lo, i64 hi, i64 maxdeg, i64 *restrict scratch,
    const volatile unsigned char *cancel, i64 slice_ns,
    i64 *restrict acc, i64 *restrict st, i64 *restrict resume)
{"""

_CHECKED = {"add": "__builtin_add_overflow", "sub": "__builtin_sub_overflow",
            "mul": "__builtin_mul_overflow"}

#: Set ops that write scratch: (merge/gallop helper, trim of the left
#: operand for the bounded forms).
_MERGES = {
    "intersect": ("isect", None),
    "subtract": ("sub", None),
    "intersect_upto": ("isect", "trim_below"),
    "intersect_from": ("isect", "trim_above"),
    "subtract_upto": ("sub", "trim_below"),
    "subtract_from": ("sub", "trim_above"),
}


class _Lowering:
    """One pass over the AST, producing ``source`` and its scratch needs.

    ``buffers`` lists each writing set op's scratch bound: ``"D"`` (max
    degree) or ``"V"`` (vertex count), in declaration order.
    """

    def __init__(self, root: Root, mode: str) -> None:
        if mode != "count":
            raise _Unsupported(f"{mode} mode")
        for node in walk(root):
            if isinstance(node, (HashClear, HashAdd, HashGet)):
                raise _Unsupported("hash-table nodes")
            if isinstance(node, (IfPred, EmitPartial)):
                raise _Unsupported(f"{type(node).__name__} nodes")
            if isinstance(node, SetOp) and node.op in (
                    "filter_label", "label_universe"):
                raise _Unsupported(f"label set op {node.op}")
        self.names: dict[str, str] = {}
        self.kinds: dict[str, int] = {"v": 0, "s": 0, "c": 0, "i": 0}
        self.bounds: dict[str, str] = {}
        self.buffers: list[str] = []
        self.uses_split = False
        self.acc = {name: f"acc[{k}]"
                    for k, name in enumerate(root.accumulators)}
        self.lines: list[str] = []
        self._lower_body(root.body)
        self.body_bytes = sum(len(line) + 1 for line in self.lines)
        decls = [
            f"    {ctype} {', '.join(f'{kind}{k}' for k in range(count))};"
            for kind, ctype in (("v", "i64"), ("i", "i64"), ("c", "i64"),
                                ("s", "set_t"))
            if (count := self.kinds[kind])
        ]
        buffers, degree, vertex = [], 0, 0
        for k, bound in enumerate(self.buffers):
            buffers.append(f"    i64 *b{k} = scratch + {vertex} * nv + "
                           f"{degree} * maxdeg;")
            degree += bound == "D"
            vertex += bound == "V"
        self.source = "\n".join([
            _PRELUDE % {"gallop": GALLOP_RATIO} + _SIGNATURE,
            *decls, *buffers,
            "    i64 started = now_ns();",
            *self.lines,
            "    return 0;",
            "inexact:",
            "    return 3;",
            "}",
            "",
        ])

    # -------------------------------------------------------------- names
    def _fresh(self, kind: str) -> str:
        cname = f"{kind}{self.kinds[kind]}"
        self.kinds[kind] += 1
        return cname

    def _define(self, name: str, kind: str) -> str:
        if name in self.names or name in self.acc:
            raise _Unsupported(f"{name} is assigned twice")
        cname = self.names[name] = self._fresh(kind)
        return cname

    def _ref(self, arg) -> str:
        if isinstance(arg, bool) or not isinstance(arg, (int, str)):
            raise _Unsupported(f"argument {arg!r}")
        if isinstance(arg, int):
            if not _I64_MIN < arg <= _I64_MAX:
                raise _Unsupported(f"constant {arg} outside int64")
            return f"((i64){arg}LL)"
        cname = self.names.get(arg)
        if cname is None:
            raise _Unsupported(f"{arg} used before it is defined")
        return cname

    def _set(self, arg) -> str:
        cname = self._ref(arg)
        if not cname.startswith("s"):
            raise _Unsupported(f"{arg} is not a vertex set")
        return cname

    # ------------------------------------------------------------ control
    def _lower_body(self, body: list[Node]) -> None:
        """The top level: pure set and scalar definitions, then the one
        outer loop the chunk range slices, then loop-free statements."""
        loops = [k for k, node in enumerate(body) if isinstance(node, Loop)]
        if len(loops) != 1:
            raise _Unsupported(f"{len(loops)} top-level loops")
        first = loops[0]
        for node in body[:first]:
            if not isinstance(node, (SetOp, ScalarOp)):
                raise _Unsupported(
                    f"{type(node).__name__} before the outer loop")
        # The definitions before the outer loop rerun on every resume,
        # which would reset a local accumulated across the loop.
        prefix = {node.target for node in body[:first]}
        if any(isinstance(node, Accumulate) and node.target in prefix
               for top in body for node in walk(top)):
            raise _Unsupported("a top-level local accumulator")
        for node in body[first + 1:]:
            if any(isinstance(inner, Loop) for inner in walk(node)):
                raise _Unsupported("a loop after the outer loop")
        for node in body[:first]:
            self._statement(node, 1)
        loop = body[first]
        source = self._set(loop.source)
        index = self._fresh("i")
        var = self._define(loop.var, "v")
        self.lines += [
            f"    if (hi > {source}.n) hi = {source}.n;",
            f"    for ({index} = lo; {index} < hi; {index}++) {{",
            f"        if (cancel && *cancel) {{ *resume = {index}; "
            f"return 2; }}",
            f"        {var} = {source}.p[{index}];",
        ]
        self._block(loop.body, 2)
        self.lines += [
            f"        if (now_ns() - started >= slice_ns && {index} + 1 < hi)"
            f" {{ *resume = {index} + 1; return 1; }}",
            "    }",
        ]
        for node in body[first + 1:]:
            self._statement(node, 1)

    def _block(self, nodes: list[Node], depth: int) -> None:
        for node in nodes:
            self._statement(node, depth)

    def _statement(self, node: Node, depth: int) -> None:
        pad = "    " * depth
        if isinstance(node, SetOp):
            self.lines.append(f"{pad}{self._set_op(node)}")
        elif isinstance(node, ScalarOp):
            self.lines.append(f"{pad}{self._scalar_op(node)}")
        elif isinstance(node, Loop):
            source = self._set(node.source)
            index = self._fresh("i")
            var = self._define(node.var, "v")
            self.lines += [
                f"{pad}for ({index} = 0; {index} < {source}.n; {index}++) {{",
                f"{pad}    {var} = {source}.p[{index}];",
            ]
            self._block(node.body, depth + 1)
            self.lines.append(f"{pad}}}")
        elif isinstance(node, Accumulate):
            target = self.acc.get(node.target) or self._ref(node.target)
            if not (target.startswith("acc") or target.startswith("c")):
                raise _Unsupported(f"accumulating into {node.target}")
            value = self._ref(node.value)
            self.lines.append(
                f"{pad}if (__builtin_add_overflow({target}, {value}, "
                f"&{target})) goto inexact;"
            )
        elif isinstance(node, IfPositive):
            self.lines.append(f"{pad}if ({self._ref(node.scalar)} > 0) {{")
            self._block(node.body, depth + 1)
            self.lines.append(f"{pad}}}")
        else:
            raise _Unsupported(f"{type(node).__name__} nodes")

    # -------------------------------------------------------------- ops
    def _buffer(self, bound: str) -> str:
        self.buffers.append(bound)
        return f"b{len(self.buffers) - 1}"

    def _set_op(self, node: SetOp) -> str:
        op, args = node.op, node.args
        if op == "universe":
            expr, bound = "(set_t){verts, nv}", "V"
        elif op == "neighbors":
            v = self._ref(args[0])
            expr = f"(set_t){{indices + indptr[{v}], indptr[{v} + 1] - indptr[{v}]}}"
            bound = "D"
        elif op == "oriented":
            v = self._ref(args[0])
            self.uses_split = True
            expr = f"(set_t){{indices + split[{v}], indptr[{v} + 1] - split[{v}]}}"
            bound = "D"
        elif op == "copy":
            a = self._set(args[0])
            expr, bound = a, self.bounds[a]
        elif op in ("trim_below", "trim_above"):
            a = self._set(args[0])
            expr, bound = f"{op}({a}, {self._ref(args[1])})", self.bounds[a]
        elif op in _MERGES:
            helper, trim = _MERGES[op]
            a, b = self._set(args[0]), self._set(args[1])
            # An intersect is bounded by its smaller operand, a subtract
            # by its left one.
            bound = self.bounds[a]
            if helper == "isect" and self.bounds[b] == "D":
                bound = "D"
            left = f"{trim}({a}, {self._ref(args[2])})" if trim else a
            expr = f"{helper}({left}, {b}, {self._buffer(bound)}, st)"
            if trim:
                expr = f"(st[BD]++, {expr})"
        elif op == "exclude":
            a = self._set(args[0])
            if len(args) == 1:
                expr, bound = a, self.bounds[a]
            else:
                bound = self.bounds[a]
                xs = ", ".join(self._ref(x) for x in args[1:])
                expr = (f"excl({a}, (const i64[]){{{xs}}}, {len(args) - 1}, "
                        f"{self._buffer(bound)})")
        else:
            raise _Unsupported(f"set op {op}")
        target = self._define(node.target, "s")
        self.bounds[target] = bound
        return f"{target} = {expr};"

    def _scalar_op(self, node: ScalarOp) -> str:
        op, args = node.op, node.args
        if op in ("const", "size"):
            expr = (self._ref(args[0]) if op == "const"
                    else f"{self._set(args[0])}.n")
            return f"{self._define(node.target, 'c')} = {expr};"
        x, y = self._ref(args[0]), self._ref(args[1])
        target = self._define(node.target, "c")
        if op in _CHECKED:
            return (f"if ({_CHECKED[op]}({x}, {y}, &{target})) "
                    f"goto inexact;")
        if op == "floordiv":
            return f"if (fdiv({x}, {y}, &{target})) goto inexact;"
        raise _Unsupported(f"scalar op {op}")
