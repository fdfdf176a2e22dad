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
    through merge or gallop helpers.  A set defined inside a loop that
    a deeper loop intersects with (or subtracts) gets a bitmap over
    ``|V|``: its bits are set once after it is assigned and cleared at
    the end of its block, and each deeper op filters its other operand
    through the bitmap (an intersect whose other operand is
    ``GALLOP_RATIO`` times larger gallops instead).  An ``exclude`` only
    ever sized is counted, not copied.  Scalars are ``int64``;
    ``add``/``sub``/``mul`` and ``Accumulate`` are overflow-checked and
    ``floordiv`` keeps Python's floor semantics.  Names are renamed in
    order of first appearance, so the source depends only on the AST,
    and a helper is emitted only when the plan calls it.

When to build
    Only plans whose predicted cost reaches :data:`NATIVE_MIN_COST`,
    scaled up for loop nests larger than :data:`NATIVE_BODY_BYTES`: a
    compiler run costs about what that much Python execution does.
    Hash-table nodes, ``IfPred``/``EmitPartial``, label set ops and
    emit mode stay on ``plan.function``, and so does every plan when no
    compiler is found; :func:`resolve` says why.  A build starts when
    the session hands out the plan (:func:`prefetch`, on builder
    threads), so it overlaps whatever runs next; a run whose build is
    still in flight waits for it.

Safety
    The C loop reads the run's cancel-token byte on every outer
    iteration and returns to :func:`run` at least every
    :data:`SLICE_NS` with a resume index, so governor polls and signal
    handlers still run.  An ``int64`` overflow (or a division the C
    side cannot do exactly) reruns the chunk through ``plan.function``,
    which yields Python's exact big-integer count or its exception.

Build cache
    Builds are kept per process, keyed by ``sha256(source, compiler
    version, flags)``; each key's entry is settled once with the loaded
    function or the failure reason, and holds no plans or graphs.  The
    first caller of a key builds it without holding the cache lock;
    later callers wait for that build.  At most one builder thread per
    usable CPU runs queued builds, and each exits once the queue is
    empty; :func:`wait` joins them (the supervisor calls it, within the
    run's deadline, before it forks its pool).  Each build goes to a
    private temporary directory, removed once the library is loaded; at
    exit, running compilers are killed with their process group and
    their directories removed.  A plan's resolved :class:`Target` lives
    on the plan (``CompiledPlan.native``), so fork workers inherit it
    and never build.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import shutil
import signal
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass, replace
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
    child_blocks,
    node_uses,
    walk,
)
from repro.runtime.setops import GALLOP_RATIO, STATS

__all__ = [
    "NATIVE_BODY_BYTES",
    "NATIVE_MIN_COST",
    "SLICE_NS",
    "Target",
    "find_compiler",
    "prefetch",
    "resolve",
    "run",
    "target_for",
    "wait",
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

#: Set-op counters the C function keeps: ``KernelStats`` field name ->
#: the prelude's index into ``st``.
_STAT_FIELDS = {
    "intersect_gallop": "IG", "intersect_merge": "IM",
    "subtract_gallop": "SG", "subtract_merge": "SM", "bounded": "BD",
    "size_only": "SO", "intersect_bitmap": "IB", "subtract_bitmap": "SB",
    "exclude": "EX",
}

# Entry-point status codes.
_DONE, _SLICE, _CANCELLED, _INEXACT = 0, 1, 2, 3

_I64_MIN, _I64_MAX = -(2 ** 63), 2 ** 63 - 1


@dataclass(frozen=True)
class Target:
    """Where a plan's ``codegen`` execution runs: ``"c"`` or ``"python"``.

    A ``"c"`` target carries the loaded entry point and what :func:`run`
    needs to call it; a ``"python"`` target carries the fallback reason.
    On ``plan.native`` (never from :func:`resolve`), a ``"c"`` target
    without an entry point is a lowering whose build has been started.
    """

    target: str
    reason: str | None = None
    entry: object = None
    source: str = ""
    accumulators: tuple[str, ...] = ()
    #: Scratch buffers bounded by the max degree and by ``|V|``.
    degree_buffers: int = 0
    vertex_buffers: int = 0
    #: Bitmaps over ``|V|`` of loop-invariant sets.
    bitmaps: int = 0
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
    and kept on ``plan.native``.  A build :func:`prefetch` started is
    joined, not repeated.
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
        native = _lower(plan)
    if native.target == "c" and native.entry is None:
        entry = _entry_point(native.source, compiler)
        native = (Target("python", entry) if isinstance(entry, str)
                  else replace(native, entry=entry))
    plan.native = native
    return native


def prefetch(plan) -> None:
    """Start building the C entry points ``plan`` and its aux plans
    will need, on builder threads, so the builds overlap whatever runs
    next.  Plans under the cost gate, and every plan when no compiler
    is found, are left alone."""
    compiler = find_compiler()
    if compiler is None:
        return
    pending = [plan]
    while pending:
        each = pending.pop()
        pending += [aux for aux, _ in each.aux_plans]
        if each.native is not None or not each.cost >= NATIVE_MIN_COST:
            continue
        native = each.native = _lower(each)
        if native.target == "c":
            _start(native.source, compiler)


def _lower(plan) -> Target:
    """The plan's C lowering as a ``"c"`` target whose entry point is
    not built yet, or the ``"python"`` target saying why there is none."""
    try:
        lowered = _Lowering(plan.root, plan.mode)
    except _Unsupported as exc:
        return Target("python", str(exc))
    gate = NATIVE_MIN_COST * max(1.0, lowered.body_bytes / NATIVE_BODY_BYTES)
    if not plan.cost >= gate:
        return Target("python", f"predicted cost {plan.cost:.3g} below "
                                f"{gate:.3g}, the gate scaled to a "
                                f"{lowered.body_bytes}-byte C loop nest")
    return Target(
        "c", source=lowered.source, accumulators=plan.root.accumulators,
        degree_buffers=lowered.buffers.count("D"),
        vertex_buffers=lowered.buffers.count("V"),
        bitmaps=len(lowered.bitmaps), uses_split=lowered.uses_split,
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
    # One slack slot per buffer: a filter writes one past its last hit.
    scratch = np.empty(
        1 + native.degree_buffers * (max_degree + 1)
        + native.vertex_buffers * (num_vertices + 1)
        + native.bitmaps * ((num_vertices >> 6) + 1), dtype=np.int64,
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

class _Build:
    """One build key's outcome, set once: the loaded entry point or why
    there is none.  Waiters block on ``ready``."""

    __slots__ = ("ready", "entry")

    def __init__(self) -> None:
        self.ready = threading.Event()
        self.entry: object = None

    def settle(self, entry) -> None:
        self.entry = entry
        self.ready.set()


#: Builds by key, finished or in flight.
_BUILDS: dict[str, _Build] = {}
#: Prefetched builds no thread has started yet: key -> (source, compiler).
_QUEUE: dict[str, tuple[str, str]] = {}
#: Builder threads started and not yet joined by :func:`wait`.
_THREADS: list[threading.Thread] = []
#: Builder threads still taking jobs from ``_QUEUE``.
_builders = 0
#: Compiler process groups and temporary directories of running builds,
#: killed and removed if the process exits first.
_RUNNING: set[subprocess.Popen] = set()
_TMPDIRS: set[str] = set()
_closing = False
_BUILD_LOCK = threading.Lock()
#: One builder per CPU this process may run on: more would compete
#: with the run the builds are meant to overlap.
_MAX_BUILDERS = (len(os.sched_getaffinity(0))
                 if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


@lru_cache(maxsize=None)
def _compiler_version(compiler: str) -> str:
    try:
        out = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True, timeout=60)
    except (OSError, subprocess.SubprocessError):
        return compiler
    return out.stdout.splitlines()[0] if out.stdout else compiler


def _key(source: str, compiler: str) -> str:
    digest = hashlib.sha256()
    for part in (source, _compiler_version(compiler), " ".join(FLAGS)):
        digest.update(part.encode())
        digest.update(b"\x00")
    return digest.hexdigest()


def _entry_point(source: str, compiler: str):
    """The loaded entry point for ``source``, or why there is none.

    Builds it in the calling thread unless a build of the same key has
    started, in which case it waits for that one; a prefetched build
    that no builder has started yet is taken over.
    """
    key = _key(source, compiler)
    with _BUILD_LOCK:
        build = _BUILDS.get(key)
        mine = build is None or _QUEUE.pop(key, None) is not None
        if build is None:
            build = _BUILDS[key] = _Build()
    if mine:
        _fulfil(build, source, compiler, key, traced=True)
    build.ready.wait()
    return build.entry


def _start(source: str, compiler: str) -> None:
    """Queue a build of ``source`` for a builder thread, starting one
    when fewer than ``_MAX_BUILDERS`` are taking jobs."""
    global _builders
    key = _key(source, compiler)
    with _BUILD_LOCK:
        if _closing or key in _BUILDS:
            return
        _BUILDS[key] = _Build()
        _QUEUE[key] = (source, compiler)
        if _builders < _MAX_BUILDERS:
            _builders += 1
            thread = threading.Thread(target=_builder, daemon=True,
                                      name="repro-cgen-builder")
            _THREADS.append(thread)
            thread.start()


def _builder() -> None:
    """Run queued builds until none is left, then exit: an idle builder
    would be one more thread alive at the next fork."""
    global _builders
    while True:
        with _BUILD_LOCK:
            if not _QUEUE:
                _builders -= 1
                return
            key = next(iter(_QUEUE))
            source, compiler = _QUEUE.pop(key)
            build = _BUILDS[key]
        # The trace keeps one span stack per process, so only a build in
        # the thread that needs it opens a span.
        _fulfil(build, source, compiler, key, traced=False)


def wait(timeout: float | None = None) -> bool:
    """Block until every queued build has finished and every builder
    thread has exited (before a fork, and in tests), or until
    ``timeout`` seconds have passed.  True when no builder is left."""
    end = None if timeout is None else time.monotonic() + timeout
    while True:
        with _BUILD_LOCK:
            _THREADS[:] = [t for t in _THREADS if t.is_alive()]
            threads = list(_THREADS)
        if not threads:
            return True
        for thread in threads:
            left = None if end is None else end - time.monotonic()
            if left is not None and left <= 0:
                return False
            thread.join(left)


def _fulfil(build: _Build, source: str, compiler: str, key: str,
            traced: bool) -> None:
    """Build ``source`` and settle ``build``; waiters never stay blocked."""
    try:
        entry = _build(source, compiler, key, traced)
    except Exception as exc:
        entry = f"C build failed: {exc}"
    except BaseException:
        # Interrupted, not failed: a later resolve builds it again.
        with _BUILD_LOCK:
            _BUILDS.pop(key, None)
        build.settle("C build interrupted")
        raise
    build.settle(entry)


def _build(source: str, compiler: str, key: str, traced: bool):
    """Compile and load ``source`` in a private temporary directory,
    removed once the library is loaded (the mapping outlives the file)."""
    from repro.observe.trace import NOOP_SPAN, span

    tmp = tempfile.mkdtemp(prefix="repro-cgen-")
    with _BUILD_LOCK:
        _TMPDIRS.add(tmp)
    try:
        with (span("native_build", key=key[:12], source_bytes=len(source))
              if traced else NOOP_SPAN):
            return _compile_and_load(source, compiler, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with _BUILD_LOCK:
            _TMPDIRS.discard(tmp)


def _compile_and_load(source: str, compiler: str, tmp: str):
    from repro.observe import metrics as om

    c_path, so_path = (os.path.join(tmp, f"plan{suffix}")
                       for suffix in (".c", ".so"))
    with open(c_path, "w") as handle:
        handle.write(source)
    try:
        # A process group of its own, so an exit can kill the compiler
        # driver together with the cc1/as/ld it runs.
        process = subprocess.Popen(
            [compiler, *FLAGS, "-o", so_path, c_path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
    except OSError as exc:
        return f"C build failed: {exc}"
    with _BUILD_LOCK:
        _RUNNING.add(process)
        closing = _closing
    try:
        if closing:
            _kill(process)
        try:
            _, stderr = process.communicate(timeout=300)
        except subprocess.TimeoutExpired as exc:
            _kill(process)
            process.communicate()
            return f"C build failed: {exc}"
    finally:
        with _BUILD_LOCK:
            _RUNNING.discard(process)
    om.counter("repro_native_builds_total",
               "C entry points built by the native target").inc()
    if process.returncode != 0:
        first = (stderr.strip().splitlines() or ["?"])[0]
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


def _kill(process: subprocess.Popen) -> None:
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except OSError:
        pass


@atexit.register
def _shutdown() -> None:
    """At exit, drop queued builds, kill running compilers and remove
    their temporary directories (builder threads are daemons)."""
    global _closing
    with _BUILD_LOCK:
        _closing = True
        queued = [_BUILDS.pop(key) for key in _QUEUE]
        _QUEUE.clear()
        running, threads = list(_RUNNING), list(_THREADS)
    for build in queued:
        build.settle("the process is exiting")
    for process in running:
        _kill(process)
    for thread in threads:
        thread.join(timeout=10)
    with _BUILD_LOCK:
        leftover = list(_TMPDIRS)
    for tmp in leftover:
        shutil.rmtree(tmp, ignore_errors=True)


def _after_fork_in_child() -> None:
    """A forked child has no builder threads: forget the parent's builds
    in flight (a resolve in the child builds its own) and its compilers."""
    global _BUILD_LOCK, _builders
    _BUILD_LOCK = threading.Lock()
    for key in [key for key, build in _BUILDS.items()
                if not build.ready.is_set()]:
        del _BUILDS[key]
    _QUEUE.clear()
    _THREADS.clear()
    _RUNNING.clear()
    _TMPDIRS.clear()
    _builders = 0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


# ----------------------------------------------------------------------
# Lowering
# ----------------------------------------------------------------------

class _Unsupported(Exception):
    """The plan has no C lowering; the message is the fallback reason."""


_PRELUDE = r"""#define _POSIX_C_SOURCE 199309L
#include <stdint.h>
#include <string.h>
#include <time.h>

typedef int64_t i64;
typedef struct { const i64 *p; i64 n; } set_t;

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

/* A helper that loops over a set is called, not inlined: every inlined
 * copy of a loop adds compile time, and a call is cheap next to it. */
#define NOINLINE __attribute__((noinline))
"""

#: Helpers emitted after the prelude only when the plan calls them (a
#: smaller source builds faster), in this order.
_HELPERS = {
    "gallop": r"""
/* a & b for a b at least GALLOP times larger: a binary search in b per
 * member of a. */
static NOINLINE set_t gallop(set_t a, set_t b, i64 *out, i64 *st) {
    set_t r = {out, 0};
    if (a.n == 0) return r;
    st[IG]++;
    for (i64 i = 0; i < a.n && b.n > 0; i++) {
        i64 x = a.p[i], j = lower(b.p, b.n, x);
        b.p += j;
        b.n -= j;
        if (b.n > 0 && *b.p == x) { out[r.n++] = x; b.p++; b.n--; }
    }
    return r;
}
""",
    "isect": r"""
static NOINLINE set_t isect(set_t a, set_t b, i64 *out, i64 *st) {
    if (a.n > b.n) { set_t t = a; a = b; b = t; }
    if (b.n >= a.n * GALLOP) return gallop(a, b, out, st);
    i64 i = 0, j = 0, k = 0;
    st[IM]++;
    while (i < a.n && j < b.n) {
        i64 x = a.p[i], y = b.p[j];
        out[k] = x;
        k += x == y;
        i += x <= y;
        j += y <= x;
    }
    set_t r = {out, k};
    return r;
}
""",
    "sub": r"""
static NOINLINE set_t sub(set_t a, set_t b, i64 *out, i64 *st) {
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
""",
    "excl": r"""
static NOINLINE set_t excl(set_t a, const i64 *xs, int m, i64 *out,
                           i64 *st) {
    if (a.n == 0) return a;
    st[EX]++;
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
""",
    "excl_n": r"""
/* |a - xs| without writing it: a branchless scan of a short set, else a
 * binary search for each distinct x. */
static NOINLINE i64 excl_n(set_t a, const i64 *xs, int m, i64 *st) {
    i64 n = a.n;
    st[SO]++;
    if (a.n <= 32 * m) {
        for (i64 i = 0; i < a.n; i++) {
            int hit = 0;
            for (int t = 0; t < m; t++) hit |= a.p[i] == xs[t];
            n -= hit;
        }
        return n;
    }
    for (int t = 0; t < m; t++) {
        int seen = 0;
        for (int u = 0; u < t; u++) seen |= xs[u] == xs[t];
        i64 j = lower(a.p, a.n, xs[t]);
        n -= !seen && j < a.n && a.p[j] == xs[t];
    }
    return n;
}
""",
    "bitmap": r"""
/* A bitmap over vertex ids holds a loop-invariant set; another set is
 * filtered through it, one probe per member.  bm_mark sets (on = 1) or
 * clears (on = 0) the words of a's members. */
static NOINLINE void bm_mark(set_t a, uint64_t *m, uint64_t on) {
    for (i64 i = 0; i < a.n; i++) {
        uint64_t *w = m + (a.p[i] >> 6);
        *w = (*w | (uint64_t)1 << (a.p[i] & 63)) & -on;
    }
}

/* Members of a in (keep = 1) or not in (keep = 0) the bitmap. */
static NOINLINE set_t bm_filter(set_t a, const uint64_t *m, uint64_t keep,
                                i64 *out) {
    i64 k = 0;
    for (i64 i = 0; i < a.n; i++) {
        i64 x = a.p[i];
        out[k] = x;
        k += ((m[x >> 6] >> (x & 63)) & 1) == keep;
    }
    set_t r = {out, k};
    return r;
}

/* a & fixed, m holding fixed; an a GALLOP times larger gallops. */
static inline set_t bm_and(set_t a, set_t fixed, const uint64_t *m, i64 *out,
                           i64 *st) {
    if (a.n >= fixed.n * GALLOP) return gallop(fixed, a, out, st);
    st[IB]++;
    return bm_filter(a, m, 1, out);
}

static inline set_t bm_not(set_t a, const uint64_t *m, i64 *out, i64 *st) {
    st[SB]++;
    return bm_filter(a, m, 0, out);
}
""",
    "fdiv": r"""
/* Python's floor division; nonzero when it has no int64 result. */
static inline int fdiv(i64 a, i64 b, i64 *r) {
    if (b == 0 || (a == INT64_MIN && b == -1)) return 1;
    i64 q = a / b;
    if (a % b != 0 && ((a < 0) != (b < 0))) q--;
    *r = q;
    return 0;
}
""",
}

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


#: Operand positions a set op can read through a bitmap: either side
#: of an intersect, the right side of a subtract.
_PROBES = {op: (0, 1) if op.startswith("intersect") else (1,)
           for op in _MERGES}


def _scan(root: Root) -> tuple[set[str], set[str]]:
    """The sets that get a bitmap, and the excludes that are only counted.

    A set gets a bitmap when it is defined inside a loop and a deeper
    loop reads it through :data:`_PROBES`; an ``exclude`` is only
    counted when every use of it is a ``size``.
    """
    depths: dict[str, int] = {}
    marked: set[str] = set()
    uses: dict[str, list[Node]] = {}

    def visit(block: list[Node], depth: int) -> None:
        for node in block:
            for name in node_uses(node):
                uses.setdefault(name, []).append(node)
            if isinstance(node, SetOp):
                depths[node.target] = depth
                marked.update(
                    node.args[k] for k in _PROBES.get(node.op, ())
                    if 1 <= depths.get(node.args[k], depth) < depth)
            for child in child_blocks(node):
                visit(child, depth + isinstance(node, Loop))

    visit(root.body, 0)
    counted = {
        node.target for node in walk(root)
        if isinstance(node, SetOp) and node.op == "exclude"
        and len(node.args) > 1
        and all(isinstance(use, ScalarOp) and use.op == "size"
                for use in uses.get(node.target, ()))
    }
    return marked, counted


class _Lowering:
    """One pass over the AST, producing ``source`` and its scratch needs.

    ``buffers`` lists each writing set op's scratch bound: ``"D"`` (max
    degree) or ``"V"`` (vertex count), in declaration order;
    ``bitmaps`` lists the sets that get a bitmap, in the same order.
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
        self.helpers: set[str] = set()
        self.uses_split = False
        self.acc = {name: f"acc[{k}]"
                    for k, name in enumerate(root.accumulators)}
        self.marked, self.counted = _scan(root)
        self.bitmaps: list[str] = []
        #: Sets whose bitmap holds their members: (bitmap, loop depth).
        self.live: dict[str, tuple[str, int]] = {}
        #: Per open block, the bitmaps set in it (cleared at its end).
        self.scopes: list[list[str]] = []
        self.loop_depth = 0
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
            buffers.append(f"    i64 *b{k} = scratch + {vertex} * (nv + 1) + "
                           f"{degree} * (maxdeg + 1);")
            degree += bound == "D"
            vertex += bound == "V"
        if self.bitmaps:
            # Zeroed at every entry, so no exit path has to leave the
            # bitmaps clean.
            buffers += [
                f"    uint64_t *m0 = (uint64_t *)(scratch + {vertex} * "
                f"(nv + 1) + {degree} * (maxdeg + 1));",
                *(f"    uint64_t *m{k} = m0 + {k} * ((nv >> 6) + 1);"
                  for k in range(1, len(self.bitmaps))),
                f"    memset(m0, 0, {len(self.bitmaps)} * ((nv >> 6) + 1) "
                f"* sizeof *m0);",
            ]
        if self.helpers & {"isect", "bitmap"}:
            self.helpers.add("gallop")
        header = [_PRELUDE, f"#define GALLOP {GALLOP_RATIO}",
                  "enum { " + ", ".join(_STAT_FIELDS.values()) + " };"]
        self.source = "\n".join([
            *header, *(_HELPERS[name] for name in _HELPERS
                       if name in self.helpers),
            _SIGNATURE, *decls, *buffers,
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
        self._loop_body(loop.body, 2)
        self.lines += [
            f"        if (now_ns() - started >= slice_ns && {index} + 1 < hi)"
            f" {{ *resume = {index} + 1; return 1; }}",
            "    }",
        ]
        for node in body[first + 1:]:
            self._statement(node, 1)

    def _block(self, nodes: list[Node], depth: int) -> None:
        """A loop or ``IfPositive`` body.  A bitmap set in it is cleared
        at its end, where the set is still assigned (an ``IfPositive``
        body may not run at all)."""
        self.scopes.append([])
        for node in nodes:
            self._statement(node, depth)
        pad = "    " * depth
        for name in reversed(self.scopes.pop()):
            bitmap, _ = self.live.pop(name)
            self.lines.append(
                f"{pad}bm_mark({self.names[name]}, {bitmap}, 0);")

    def _loop_body(self, nodes: list[Node], depth: int) -> None:
        self.loop_depth += 1
        self._block(nodes, depth)
        self.loop_depth -= 1

    def _statement(self, node: Node, depth: int) -> None:
        pad = "    " * depth
        if isinstance(node, SetOp):
            self.lines += [f"{pad}{line}" for line in self._set_op(node)]
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
            self._loop_body(node.body, depth + 1)
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

    def _set_op(self, node: SetOp) -> list[str]:
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
            expr, bound = self._merge(node)
        elif op == "exclude":
            a = self._set(args[0])
            if len(args) == 1:
                expr, bound = a, self.bounds[a]
            else:
                xs = (f"(const i64[]){{{', '.join(map(self._ref, args[1:]))}}}"
                      f", {len(args) - 1}")
                if node.target in self.counted:
                    self.helpers.add("excl_n")
                    target = self._define(node.target, "c")
                    return [f"{target} = excl_n({a}, {xs}, st);"]
                self.helpers.add("excl")
                bound = self.bounds[a]
                expr = f"excl({a}, {xs}, {self._buffer(bound)}, st)"
        else:
            raise _Unsupported(f"set op {op}")
        target = self._define(node.target, "s")
        self.bounds[target] = bound
        lines = [f"{target} = {expr};"]
        if node.target in self.marked:
            bitmap = f"m{len(self.bitmaps)}"
            self.bitmaps.append(node.target)
            self.helpers.add("bitmap")
            self.live[node.target] = (bitmap, self.loop_depth)
            self.scopes[-1].append(node.target)
            lines.append(f"bm_mark({target}, {bitmap}, 1);")
        return lines

    def _merge(self, node: SetOp) -> tuple[str, str]:
        """An intersect or subtract: its value and bound.

        Against a bitmapped set defined in an enclosing loop, the other
        operand (trimmed first, for the bounded forms: the trims
        commute) is filtered through the bitmap.
        """
        helper, trim = _MERGES[node.op]
        args = node.args
        a, b = self._set(args[0]), self._set(args[1])
        # An intersect is bounded by its smaller operand, a subtract by
        # its left one.
        bound = self.bounds[a]
        if helper == "isect" and self.bounds[b] == "D":
            bound = "D"
        buffer = self._buffer(bound)
        probes = [(self.live[args[k]][1], k) for k in _PROBES[node.op]
                  if args[k] in self.live
                  and self.live[args[k]][1] < self.loop_depth]
        if probes:
            k = min(probes)[1]  # the outermost
            fixed, other = (a, b) if k == 0 else (b, a)
            if trim:
                other = f"{trim}({other}, {self._ref(args[2])})"
            bitmap = self.live[args[k]][0]
            self.helpers.add("bitmap")
            expr = (f"bm_and({other}, {fixed}, {bitmap}, {buffer}, st)"
                    if helper == "isect"
                    else f"bm_not({other}, {bitmap}, {buffer}, st)")
        else:
            self.helpers.add(helper)
            left = f"{trim}({a}, {self._ref(args[2])})" if trim else a
            expr = f"{helper}({left}, {b}, {buffer}, st)"
        if trim:
            expr = f"(st[BD]++, {expr})"
        return expr, bound

    def _scalar_op(self, node: ScalarOp) -> str:
        op, args = node.op, node.args
        if op in ("const", "size"):
            # A counted exclude is already its size.
            expr = (self._ref(args[0])
                    if op == "const" or args[0] in self.counted
                    else f"{self._set(args[0])}.n")
            return f"{self._define(node.target, 'c')} = {expr};"
        x, y = self._ref(args[0]), self._ref(args[1])
        target = self._define(node.target, "c")
        if op in _CHECKED:
            return (f"if ({_CHECKED[op]}({x}, {y}, &{target})) "
                    f"goto inexact;")
        if op == "floordiv":
            self.helpers.add("fdiv")
            return f"if (fdiv({x}, {y}, &{target})) goto inexact;"
        raise _Unsupported(f"scalar op {op}")
