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
    ``oriented`` are slices of the CSR arrays, ``universe`` is
    ``graph.vertices()``, and ``trim_*`` is a binary-search view, except
    that a row ``N(v)`` trimmed by ``v`` itself is the row's part above
    or below ``split[v]``, a slice (``CSRGraph.split``; ``oriented(v)``
    is the part above).  ``intersect``, ``subtract``,
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

    Before lowering, :class:`_Facts` reads what the loop nest proves: a
    loop variable belongs to its source and to every set the source
    derives from; ``v`` in ``neighbors(u)`` puts ``u`` in
    ``neighbors(v)`` (never through an ``oriented`` row); the trims,
    the bounded forms and ``oriented`` order their members against
    their bound, transitively.  Four rewrites use the facts:

    (a) a sized ``exclude`` drops the xs known to be members, less
        their distinct count (a fact, or else a compare); the rest go
        through ``excl_n``, and all of them do when a member may equal
        one of the rest;
    (b) a counting nest (``c = const``, then a loop that only defines
        names and accumulates into ``c``) that equals, up to renaming
        and reading the same outside names, one that ran earlier in its
        block or an enclosing one takes that nest's scalar;
    (c) a trim whose only use is a tighter trim in the same direction,
        in the same block, is dropped, and the tighter trim is applied
        first, before any bitmap filter or merge;
    (d) a set whose every read reaches only its members above a bound
        (a trim above by a bound at least as high, an intersect or a
        subtract's right side whose other operand lies above it, or an
        op whose own result has such a floor) is computed from operands
        trimmed above the bound, so its bitmap marks only those
        members, and the trims its reads would apply are skipped.  A
        row's floor is its own vertex, a slice; a ``size``, a loop
        over the set, the left side of a subtract, an ``exclude`` or a
        trim below blocks it.

When to build
    Only plans whose predicted cost reaches :data:`NATIVE_MIN_COST`,
    scaled up for loop nests larger than :data:`NATIVE_BODY_BYTES`: a
    compiler run costs about what that much Python execution does.
    Hash-table nodes, ``IfPred``/``EmitPartial``, label set ops and
    emit mode stay on ``plan.function``, and so does every plan when no
    compiler is found; :func:`resolve` says why.  A build starts when
    the session hands out the plan (:func:`prefetch`, on builder
    threads), so it overlaps whatever runs next; a run whose build is
    still in flight waits for it.  A batch runs each term's own plan
    (or its copy without aux plans, which has the same source), so it
    builds no source that sequential counts of its patterns would not.

Safety
    The C loop reads the run's cancel-token byte on every outer
    iteration and returns to :func:`run` with a resume index once a
    :data:`SLICE_NS` slice has passed, so governor polls and signal
    handlers still run.  The clock is read every ``stride`` outer
    iterations: the stride starts at 1, doubles (up to 64) after a read
    that finds the last stride took under ``SLICE_NS / 64``, and falls
    back to 1 after any other read.  So a slice overruns by at most one
    stride, a stride grows only while its iterations are cheap, and a
    ``SLICE_NS`` of 0 still returns after every iteration.  On an
    ``int64`` overflow (or a division the C side cannot do exactly)
    :func:`run` returns no accumulators, and the engine reruns the chunk
    through ``plan.function``, which yields Python's exact big-integer
    count or its exception.

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
    node_def,
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

#: Time slice after which the C loop returns to :func:`run` (its clock
#: is read on a stride; see Safety above).
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
    #: Whether the plan reads ``oriented`` rows, which only an oriented
    #: graph's ids make the higher-rank neighbors.
    oriented: bool = False


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
        bitmaps=len(lowered.bitmaps), oriented=lowered.oriented,
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


def _graph_args(graph) -> tuple:
    """The entry-point arguments fixed by the graph, checked once and
    kept on it: the ``(indptr, indices, split, verts)`` addresses,
    ``|V|``, the max degree, whether the graph is oriented, and the
    vertex array the ``verts`` address points into.  ``split`` is
    always passed (every plan may slice a row at it); the graph keeps
    the array alive."""
    args = graph._native_args
    if args is None:
        verts = graph.vertices()
        args = graph._native_args = (
            _address(graph.indptr), _address(graph.indices),
            _address(graph.split), _address(verts), graph.num_vertices,
            graph.max_degree, getattr(graph, "orientation", None) is not None,
            verts,
        )
    return args


def run(plan, native: Target, graph, ctx, start=None, stop=None
        ) -> tuple[dict[str, int] | None, dict[str, int]]:
    """Run outer-loop positions ``[start, stop)`` of ``plan`` natively.

    Every entry point gets the graph's ``split`` array (a row's slices
    at its own vertex read it); a plan that reads ``oriented`` rows
    still refuses a graph that is not oriented.  Returns
    ``(accumulators, counters)``: ``counters`` maps each
    ``KernelStats`` field to the set ops this run made, which are also
    added to the thread's ``STATS``.  Returns to Python every
    :data:`SLICE_NS` to poll ``ctx``; a set cancel byte raises the
    governor's ``ChunkCancelled``.  ``accumulators`` is None when the
    result is inexact: the caller reruns the range through
    ``plan.function``.
    """
    lo = 0 if start is None else start
    hi = _I64_MAX if stop is None else stop
    indptr, indices, split, verts, num_vertices, max_degree, oriented, _ = \
        _graph_args(graph)
    if native.oriented and not oriented:
        raise ValueError("an oriented native plan needs an oriented graph")
    # One zeroed buffer per call, as threads run entry points
    # concurrently: the accumulators, the set-op counters, the resume
    # index, then the scratch, with one slack slot per buffer (a filter
    # writes one past its last hit).
    accs = max(1, len(native.accumulators))
    counters = accs + len(_STAT_FIELDS)
    buffer = (ctypes.c_int64 * (
        counters + 2 + native.degree_buffers * (max_degree + 1)
        + native.vertex_buffers * (num_vertices + 1)
        + native.bitmaps * ((num_vertices >> 6) + 1)))()
    acc = ctypes.addressof(buffer)
    resume = acc + 8 * counters
    token = ctx.resources.token if ctx.resources is not None else None
    cancel = None
    try:
        if token is not None:
            cancel = token.flag()
        flag = None if cancel is None else ctypes.addressof(cancel)
        while True:
            status = native.entry(
                indptr, indices, split, verts, num_vertices, lo, hi,
                max_degree, resume + 8, flag, SLICE_NS, acc, acc + 8 * accs,
                resume,
            )
            if status == _DONE or status == _INEXACT:
                break
            if status == _CANCELLED:
                ctx.resources.check_cancel()
            else:
                ctx.poll_cancel()
            lo = buffer[counters]
    finally:
        # Drop the buffer export before the token can be closed.
        del cancel
    stats = dict(zip(_STAT_FIELDS, buffer[accs:counters]))
    for name, value in stats.items():
        if value:
            setattr(STATS, name, getattr(STATS, name) + value)
    if status == _INEXACT:
        return None, stats
    return dict(zip(native.accumulators, buffer[:accs])), stats


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

/* The time slice's clock, read every `stride` outer iterations.  The
 * stride starts at 1, doubles (up to 64) after a read that finds it
 * took under slice_ns / 64, and falls back to 1 after any other read,
 * so a slice of 0 still ends after every iteration. */
typedef struct { i64 started, last, stride, left; } slice_t;

static inline int slice_over(slice_t *c, i64 slice_ns) {
    if (--c->left > 0) return 0;
    i64 now = now_ns();
    if (now - c->started >= slice_ns) return 1;
    if (now - c->last >= slice_ns >> 6) c->stride = 1;
    else if (c->stride < 64) c->stride <<= 1;
    c->left = c->stride;
    c->last = now;
    return 0;
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


#: A CSR row's parts above and below its own vertex, by the trim that
#: selects them: slices at the row's split index.
_HALVES = {
    "trim_above": "(set_t){{indices + split[{v}], indptr[{v} + 1] - split[{v}]}}",
    "trim_below": "(set_t){{indices + indptr[{v}], split[{v}] - indptr[{v}]}}",
}

#: Operand positions a set op can read through a bitmap: either side
#: of an intersect, the right side of a subtract.
_PROBES = {op: (0, 1) if op.startswith("intersect") else (1,)
           for op in _MERGES}


#: Set ops whose members all belong to the operands at these positions.
_SUBSET_OF = {
    "copy": (0,), "trim_below": (0,), "trim_above": (0,), "exclude": (0,),
    "intersect": (0, 1), "intersect_upto": (0, 1), "intersect_from": (0, 1),
    "subtract": (0,), "subtract_upto": (0,), "subtract_from": (0,),
}

#: Set ops whose members lie above (+1) or below (-1) their last argument.
_TRIMS = {"trim_above": 1, "intersect_from": 1, "subtract_from": 1,
          "trim_below": -1, "intersect_upto": -1, "subtract_upto": -1}


class _Facts:
    """What the AST proves, read once before lowering.

    Names are single-assignment, so a fact about a name holds wherever
    the name is in scope.

    ``marked``
        Sets that get a bitmap: defined inside a loop, and read by a
        deeper loop through :data:`_PROBES`.
    ``counted``
        Excludes whose every use is a ``size``.
    ``folds``
        Trims that lower as the tighter trim alone (rewrite c), by
        target; ``dropped`` holds the looser trims they replace.
    ``nests``
        Counting nests, by ``id`` of their loop: ``(scalar, key)``,
        equal keys computing equal scalars (rewrite b).
    ``floors``
        Sets lowered as their members above a bound, by name: the bound
        (rewrite d).

    :meth:`member`, :meth:`less` and :meth:`distinct` answer from the
    facts the module docstring lists; the symmetric and the distinctness
    facts rest on the CSR being symmetric and simple.
    """

    def __init__(self, root: Root) -> None:
        self.defs: dict[str, SetOp] = {}
        self.uses: dict[str, list[Node]] = {}
        self.marked: set[str] = set()
        #: Per loop variable: the sets it is known to belong to.
        self.within: dict[str, set[str]] = {}
        #: Per accumulated name: how many ``Accumulate`` nodes add to it.
        self.accumulated: dict[str, int] = {}
        #: Per set: the variables of the loops around its definition.
        self.scope: dict[str, tuple[str, ...]] = {}

        def visit(block: list[Node], loops: tuple[str, ...]) -> None:
            for node in block:
                for name in node_uses(node):
                    self.uses.setdefault(name, []).append(node)
                if isinstance(node, SetOp):
                    self.defs[node.target] = node
                    self.scope[node.target] = loops
                    self.marked.update(
                        node.args[k] for k in _PROBES.get(node.op, ())
                        if 1 <= len(self.scope.get(node.args[k], loops))
                        < len(loops))
                elif isinstance(node, Loop):
                    # Every set the source derives from is defined by now.
                    self.within[node.var] = self._supersets(node.source)
                elif isinstance(node, Accumulate):
                    self.accumulated[node.target] = (
                        self.accumulated.get(node.target, 0) + 1)
                for child in child_blocks(node):
                    visit(child, (*loops, node.var) if isinstance(node, Loop)
                          else loops)

        visit(root.body, ())
        self.counted = {
            node.target for node in self.defs.values()
            if node.op == "exclude" and len(node.args) > 1
            and all(isinstance(use, ScalarOp) and use.op == "size"
                    for use in self.uses.get(node.target, ()))
        }
        #: a -> the names known to be greater than a.
        self.greater: dict[str, set[str]] = {}
        #: u -> the loop variables known to be in ``neighbors(u)``.
        self.adjacent: dict[str, set[str]] = {}
        #: Pairs known to differ: adjacent, or one excluded from the
        #: other's source.
        self.apart: set[frozenset] = set()
        for var, sets in self.within.items():
            for name in sets:
                node = self.defs.get(name)
                if node is None:
                    continue
                op, args = node.op, node.args
                bound = args[-1] if args else None
                if op in _TRIMS and isinstance(bound, str):
                    low, high = (bound, var) if _TRIMS[op] > 0 else (var, bound)
                    self.greater.setdefault(low, set()).add(high)
                if op in ("neighbors", "oriented"):
                    self.apart.add(frozenset((var, bound)))
                if op == "oriented":
                    self.greater.setdefault(bound, set()).add(var)
                if op == "neighbors":
                    self.adjacent.setdefault(bound, set()).add(var)
                if op == "exclude":
                    self.apart.update(frozenset((var, x)) for x in args[1:])
        self.folds, self.dropped = self._fold_trims(root)
        self.floors = self._floors(root)
        self.nests = self._counting_nests(root)

    def _supersets(self, name: str) -> set[str]:
        found, todo = set(), [name]
        while todo:
            name = todo.pop()
            if name not in found:
                found.add(name)
                node = self.defs.get(name)
                if node is not None:
                    todo += [node.args[k] for k in _SUBSET_OF.get(node.op, ())]
        return found

    def less(self, a, b) -> bool:
        """Whether ``a < b`` is known (the order facts, transitively)."""
        seen, todo = set(), [a]
        while todo:
            for high in self.greater.get(todo.pop(), ()):
                if high == b:
                    return True
                if high not in seen:
                    seen.add(high)
                    todo.append(high)
        return False

    def distinct(self, a, b) -> bool:
        """Whether ``a != b`` is known."""
        if a == b:
            return False
        if isinstance(a, int) and isinstance(b, int):
            return True
        return (self.less(a, b) or self.less(b, a)
                or frozenset((a, b)) in self.apart)

    def member(self, x, name: str) -> bool:
        """Whether vertex ``x`` is known to belong to set ``name``."""
        if x not in self.within:
            return False
        if name in self.within[x]:
            return True
        node = self.defs.get(name)
        if node is None:
            return False
        op, args = node.op, node.args
        if op == "neighbors":
            # x in N(u) when u in N(x); never read off an oriented row.
            return args[0] in self.adjacent.get(x, ())
        if op not in _SUBSET_OF or op.startswith("subtract"):
            return False
        direction = _TRIMS.get(op)
        return (all(self.member(x, args[k]) for k in _SUBSET_OF[op])
                and (direction is None
                     or self.less(*((args[-1], x) if direction > 0
                                    else (x, args[-1]))))
                and (op != "exclude"
                     or all(self.distinct(x, y) for y in args[1:])))

    def at_least(self, x, b) -> bool:
        """Whether ``x >= b`` is known, for loop variables."""
        return isinstance(x, str) and (x == b or self.less(b, x))

    def above(self, name: str, b) -> bool:
        """Whether every member of set ``name`` is known to be ``> b``."""
        return any(self.at_least(low, b) for low in self._bounds_below(name))

    def _tighter(self, direction: int, loose, tight) -> bool:
        return loose == tight or (self.less(loose, tight) if direction > 0
                                  else self.less(tight, loose))

    def _fold_trims(self, root: Root) -> tuple[dict[str, SetOp], set[str]]:
        """Rewrite (c): a trim whose only use is a tighter trim in the
        same direction, in the same block, is dropped, and the tighter
        trim lowers as the dropped op bounded by its own bound."""
        folds: dict[str, SetOp] = {}
        dropped: set[str] = set()
        for block in (block for node in walk(root)
                      for block in child_blocks(node)):
            trims: dict[str, SetOp] = {}
            for node in block:
                if not isinstance(node, SetOp) or node.op not in _TRIMS:
                    continue
                inner = trims.get(node.args[0])
                if (node.op.startswith("trim") and inner is not None
                        and _TRIMS[inner.op] == _TRIMS[node.op]
                        and len(self.uses[inner.target]) == 1
                        and self._tighter(_TRIMS[node.op], inner.args[-1],
                                          node.args[1])):
                    node = folds[node.target] = SetOp(
                        node.target, inner.op, (*inner.args[:-1], node.args[1]))
                    dropped.add(inner.target)
                trims[node.target] = node
        return folds, dropped

    def _floors(self, root: Root) -> dict[str, str]:
        """Rewrite (d): sets whose every read reaches only their members
        above a bound ``b``, a variable of a loop around the set.

        A read of ``S`` qualifies when it is a trim above, or a ``*_from``
        form, by a bound known ``>= b``; an intersect operand, or a
        subtract's right operand, whose other operand lies above ``b``; or
        any set op whose own result has a floor known ``>= b`` (set ops
        are pointwise, so the result's members above ``b`` depend only on
        the operands' members above ``b``).  A ``size``, a loop over
        ``S``, or any other read blocks it.  The reads are those of the
        lowered ops (after rewrite c), and floors are chosen from the last
        set back, so every result's floor is known before its operands'.
        A row of ``v`` (``neighbors`` or ``oriented``) takes only ``v`` as
        its floor: its part above ``v`` is a slice, while another bound
        would cost a binary search per row (on ``fr``, 6-cycle's rows
        trimmed by ``v0`` ran 5-15% slower than whole rows filtered
        through the bitmap).
        """
        lowered = [self.folds.get(node.target, node) if isinstance(node, SetOp)
                   else node for node in walk(root)
                   if not (isinstance(node, SetOp)
                           and node.target in self.dropped)]
        reads: dict[str, list[Node]] = {}
        for node in lowered:
            for name in node_uses(node):
                reads.setdefault(name, []).append(node)
        floors: dict[str, str] = {}
        for node in reversed(lowered):
            uses = reads.get(getattr(node, "target", None))
            if not isinstance(node, SetOp) or not uses:
                continue
            row = node.op in ("neighbors", "oriented")
            candidates = [node.args[0]] if row else []
            for use in () if row else uses:
                if isinstance(use, SetOp):
                    candidates += [use.args[-1]] if _TRIMS.get(use.op, 0) > 0 else []
                    candidates += [floors[use.target]] if use.target in floors else []
                    other = _partner(use, node.target)
                    candidates += self._bounds_below(other) if other else []
            for bound in dict.fromkeys(candidates):
                if bound in self.scope[node.target] and all(
                        self._reads_above(use, node.target, bound, floors)
                        for use in uses):
                    floors[node.target] = bound
                    break
        return floors

    def _bounds_below(self, name: str) -> list:
        """Bounds every member of set ``name`` is known to lie above,
        read off its derivation."""
        node = self.defs.get(name)
        if node is None:
            return []
        direct = ([node.args[-1]] if _TRIMS.get(node.op, 0) > 0
                  or node.op == "oriented" else [])
        return direct + [bound for k in _SUBSET_OF.get(node.op, ())
                         for bound in self._bounds_below(node.args[k])]

    def _reads_above(self, use: Node, name: str, b: str,
                     floors: dict[str, str]) -> bool:
        """Whether ``use`` reaches only the members of ``name`` above ``b``."""
        if not isinstance(use, SetOp):
            return False
        if _TRIMS.get(use.op, 0) > 0 and self.at_least(use.args[-1], b):
            return True
        if self.at_least(floors.get(use.target), b):
            return True
        other = _partner(use, name)
        return other is not None and self.above(other, b)

    def _counting_nests(self, root: Root) -> dict[int, tuple[str, tuple]]:
        """Rewrite (b): loops that only define names and accumulate into
        one local scalar ``c``, set to a constant earlier in the same
        block, with every ``Accumulate`` into ``c`` inside them and no
        mutable name read from outside.  The key is the constant and
        the loop with its own names renamed in order of definition, free
        names kept."""
        mutable = set(self.accumulated) | set(root.accumulators)
        nests = {}
        for block in (block for node in walk(root)
                      for block in child_blocks(node)):
            # Set in this block, so each loop below starts from the const.
            consts: dict[str, int] = {}
            for loop in block:
                if (isinstance(loop, ScalarOp) and loop.op == "const"
                        and isinstance(loop.args[0], int)):
                    consts[loop.target] = loop.args[0]
                if not isinstance(loop, Loop):
                    continue
                inside = [node for node in walk(loop)
                          if isinstance(node, Accumulate)]
                defined = {node_def(node) for node in walk(loop)}
                outside = {node.target for node in inside} - defined
                if len(outside) != 1:
                    continue
                [scalar] = outside
                if (scalar not in consts or scalar in root.accumulators
                        or self.accumulated[scalar] != sum(
                            node.target == scalar for node in inside)):
                    continue
                free: set[str] = set()
                shape = _alpha(loop, {scalar: "#c"}, free)
                if shape is not None and not free & mutable:
                    nests[id(loop)] = (scalar, (consts[scalar], shape))
        return nests


def _partner(use: SetOp, name: str) -> str | None:
    """The other operand of ``use`` when it reads ``name`` where a bitmap
    could probe it: either side of an intersect, a subtract's right."""
    for k in _PROBES.get(use.op, ()):
        if use.args[k] == name:
            return use.args[1 - k]
    return None


def _alpha(node: Node, local: dict[str, str], free: set[str]):
    """``node`` as nested tuples, with the names it defines renamed in
    order of definition and the names it reads from outside (added to
    ``free``) kept; None when it does more than define names and
    accumulate into them."""

    def ref(arg):
        if not isinstance(arg, str):
            return arg
        if arg not in local:
            free.add(arg)
        return local.get(arg, arg)

    def block(nodes):
        shapes = tuple(_alpha(child, local, free) for child in nodes)
        return None if None in shapes else shapes

    kind = type(node).__name__
    if isinstance(node, (SetOp, ScalarOp)):
        shape = (kind, node.op, tuple(map(ref, node.args)))
        local[node.target] = f"#{len(local)}"
        return shape
    if isinstance(node, Accumulate):
        target = local.get(node.target)
        return None if target is None else (kind, target, ref(node.value))
    if isinstance(node, Loop):
        source = ref(node.source)
        local[node.var] = f"#{len(local)}"
        body = block(node.body)
        return None if body is None else (kind, source, body)
    if isinstance(node, IfPositive):
        scalar = ref(node.scalar)
        body = block(node.body)
        return None if body is None else (kind, scalar, body)
    return None


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
        self.oriented = False
        #: Sets lowered as a whole CSR row: C name -> the row's vertex.
        self.rows: dict[str, str] = {}
        self.acc = {name: f"acc[{k}]"
                    for k, name in enumerate(root.accumulators)}
        self.facts = _Facts(root)
        self.marked, self.counted = self.facts.marked, self.facts.counted
        self.bitmaps: list[str] = []
        #: Sets whose bitmap holds their members: (bitmap, loop depth).
        self.live: dict[str, tuple[str, int]] = {}
        #: Per open block, the bitmaps set in it (cleared at its end).
        self.scopes: list[list[str]] = []
        #: Per open block, the counting nests run in it: key -> scalar.
        self.done: list[dict[tuple, str]] = []
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
            "    slice_t slice = {started, started, 1, 1};",
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
            f"        if ({index} + 1 < hi && slice_over(&slice, slice_ns))"
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
        self.done.append({})
        for node in nodes:
            self._statement(node, depth)
        self.done.pop()
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
            if node.target in self.facts.dropped:
                return
            node = self.facts.folds.get(node.target, node)
            self.lines += [f"{pad}{line}" for line in self._set_op(node)]
        elif isinstance(node, ScalarOp):
            self.lines.append(f"{pad}{self._scalar_op(node)}")
        elif isinstance(node, Loop):
            scalar, key = self.facts.nests.get(id(node), (None, None))
            # An equal nest that ran earlier in this block or an
            # enclosing one already holds the scalar this loop sums.
            earlier = next((done[key] for done in reversed(self.done)
                            if key in done), None)
            if earlier is not None:
                self.lines.append(f"{pad}{self._ref(scalar)} = {earlier};")
                return
            source = self._set(node.source)
            index = self._fresh("i")
            var = self._define(node.var, "v")
            self.lines += [
                f"{pad}for ({index} = 0; {index} < {source}.n; {index}++) {{",
                f"{pad}    {var} = {source}.p[{index}];",
            ]
            self._loop_body(node.body, depth + 1)
            self.lines.append(f"{pad}}}")
            if scalar is not None:
                self.done[-1][key] = self._ref(scalar)
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

    def _within(self, name: str, b) -> bool:
        """Whether the lowered set ``name`` holds only members ``> b``."""
        facts = self.facts
        return facts.at_least(facts.floors.get(name), b) or facts.above(name, b)

    def _lower_bounds(self, within: tuple[str, ...], *bounds) -> list:
        """The lower bounds among ``bounds`` (None skipped) still to apply
        to an op whose result is a subset of each set in ``within``: none
        implied by another, none such a set's view already lies above."""
        kept = [b for b in dict.fromkeys(bounds) if b is not None]
        return [b for b in kept
                if not any(c != b and self.facts.at_least(c, b) for c in kept)
                and not any(self._within(name, b) for name in within)]

    def _trimmed(self, name: str, trims) -> str:
        """Set ``name``'s view with ``trims``, ``(trim op, bound)`` pairs,
        applied: a trim of a whole row of ``v`` by ``v`` is the row's part
        above or below ``split[v]``, a slice (rewrite 1); any other trim
        is a binary search."""
        cname = expr = self._set(name)
        row = self.rows.get(cname)
        trims = [(op, self._ref(bound)) for op, bound in trims]
        for op, bound in sorted(trims, key=lambda trim: trim[1] != row):
            expr = (_HALVES[op].format(v=bound) if bound == row
                    and expr == cname else f"{op}({expr}, {bound})")
        return expr

    def _set_op(self, node: SetOp) -> list[str]:
        op, args = node.op, node.args
        floor = self.facts.floors.get(node.target)
        row = None
        if op == "universe":
            expr, bound = "(set_t){verts, nv}", "V"
            if floor is not None:
                expr = f"trim_above({expr}, {self._ref(floor)})"
        elif op in ("neighbors", "oriented"):
            # A row's floor is its own vertex (see _Facts._floors).
            v, bound = self._ref(args[0]), "D"
            self.oriented |= op == "oriented"
            if op == "oriented" or floor is not None:
                expr = _HALVES["trim_above"].format(v=v)
            else:
                expr = f"(set_t){{indices + indptr[{v}], indptr[{v} + 1] - indptr[{v}]}}"
                row = v
        elif op in ("copy", "trim_below", "trim_above") or (
                op == "exclude" and node.target not in self.counted):
            a = self._set(args[0])
            trims = [("trim_above", b) for b in self._lower_bounds(
                args[:1], args[1] if op == "trim_above" else None, floor)]
            if op == "trim_below":
                trims.append((op, args[1]))
            expr, bound = self._trimmed(args[0], trims), self.bounds[a]
            row = self.rows.get(expr)
            if op == "exclude" and len(args) > 1:
                xs = (f"(const i64[]){{{', '.join(map(self._ref, args[1:]))}}}"
                      f", {len(args) - 1}")
                self.helpers.add("excl")
                expr, row = f"excl({expr}, {xs}, {self._buffer(bound)}, st)", None
        elif op == "exclude":
            target = self._define(node.target, "c")
            return [f"{target} = {self._exclude_size(args)};"]
        elif op in _MERGES:
            expr, bound = self._merge(node, floor)
        else:
            raise _Unsupported(f"set op {op}")
        target = self._define(node.target, "s")
        self.bounds[target] = bound
        if row is not None:
            self.rows[target] = row
        lines = [f"{target} = {expr};"]
        if node.target in self.marked:
            bitmap = f"m{len(self.bitmaps)}"
            self.bitmaps.append(node.target)
            self.helpers.add("bitmap")
            self.live[node.target] = (bitmap, self.loop_depth)
            self.scopes[-1].append(node.target)
            lines.append(f"bm_mark({target}, {bitmap}, 1);")
        return lines

    def _exclude_size(self, args) -> str:
        """``|a - xs|`` for ``exclude(a, *xs)`` (rewrite a).

        The xs known to be in ``a`` are subtracted arithmetically: their
        distinct count, from facts where the facts tell and from compares
        where they do not.  The rest go through ``excl_n``, unless one of
        them may equal a known member, which then goes too.
        """
        facts, a = self.facts, args[0]
        xs = list(dict.fromkeys(args[1:]))  # one name, one value
        known = [x for x in xs if facts.member(x, a)]
        rest = [x for x in xs if x not in known]
        if not all(facts.distinct(x, y) for x in known for y in rest):
            known, rest = [], xs
        size = f"{self._set(a)}.n"
        if rest:
            self.helpers.add("excl_n")
            size = (f"excl_n({self._set(a)}, (const i64[]){{"
                    f"{', '.join(map(self._ref, rest))}}}, {len(rest)}, st)")
        if not known:
            return size
        certain, compares = 0, []
        for k, x in enumerate(known):
            unsure = [f"{self._ref(x)} != {self._ref(y)}" for y in known[:k]
                      if not facts.distinct(x, y)]
            if unsure:
                compares.append(f"({' && '.join(unsure)})")
            else:
                certain += 1
        # The first member is never unsure, so certain >= 1.
        if not compares:
            return f"{size} - {certain}"
        return f"{size} - ({' + '.join([str(certain), *compares])})"

    def _merge(self, node: SetOp, floor) -> tuple[str, str]:
        """An intersect or subtract: its value and bound.

        The op's bounds (its own, for the bounded forms, and its floor)
        trim one operand first: the trims commute with the op.  A bound a
        containing operand's view already lies above is skipped.  Against
        a bitmapped set defined in an enclosing loop, the other operand
        is trimmed and filtered through the bitmap; else the left operand
        of a merge is trimmed, or an intersect's right one when that is
        the bound's own row.
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
        trims = [("trim_above", low) for low in self._lower_bounds(
            args[:2] if helper == "isect" else args[:1],
            args[2] if trim == "trim_above" else None, floor)]
        if trim == "trim_below":
            trims.append((trim, args[2]))
        probes = [(self.live[args[k]][1], k) for k in _PROBES[node.op]
                  if args[k] in self.live
                  and self.live[args[k]][1] < self.loop_depth]
        if probes:
            k = min(probes)[1]  # the outermost
            fixed, other = (a, self._trimmed(args[1], trims)) if k == 0 else (
                b, self._trimmed(args[0], trims))
            bitmap = self.live[args[k]][0]
            self.helpers.add("bitmap")
            expr = (f"bm_and({other}, {fixed}, {bitmap}, {buffer}, st)"
                    if helper == "isect"
                    else f"bm_not({other}, {bitmap}, {buffer}, st)")
        else:
            self.helpers.add(helper)
            rows = {self._ref(low) for _, low in trims}
            if helper == "isect" and self.rows.get(b) in rows - {
                    self.rows.get(a)}:
                b, a = a, self._trimmed(args[1], trims)
            else:
                a = self._trimmed(args[0], trims)
            expr = f"{helper}({a}, {b}, {buffer}, st)"
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
