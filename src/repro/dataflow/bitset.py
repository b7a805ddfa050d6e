"""Set backends for data-flow values.

The paper notes that "most commercial compilers use the bit vector
intermediate representation".  All equation systems in this package are
written against the small :class:`SetBackend` protocol, with two
interchangeable implementations (:data:`BACKEND_NAMES`):

``FrozensetBackend``
    Values are ``frozenset[Definition]`` — slow, but transparent when
    debugging and the natural golden-test representation.

``IntBitsetBackend``
    Values are plain Python integers used as bit vectors (bit ``i`` set iff
    definition with index ``i`` is in the set).  Arbitrary-precision ints
    give branch-free union/intersection/difference in C; this is the
    production backend.

Packed ``numpy.uint64`` rows appear only in :class:`BulkView`, the dense
region evaluator's matrix form; as a scalar backend they were slower end
to end than both backends above (``docs/performance.md``).

The property test ``tests/property/test_backends_agree.py`` checks both
produce identical fixpoints.
"""

from __future__ import annotations

from typing import FrozenSet, Generic, Iterable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from ..ir.defs import Definition
from ..obs import bitset_counting_enabled, get_metrics

S = TypeVar("S")


class SetBackend(Generic[S]):
    """Operations over subsets of a fixed definition universe.

    Subclasses must be *pure*: every operation returns a fresh value and
    never mutates its arguments (solver state snapshots rely on this).
    """

    name = "abstract"

    def __init__(self, universe: Sequence[Definition]):
        self.universe: List[Definition] = list(universe)
        #: 64-bit words needed to pack one subset of the universe — the
        #: row width of the packed (:class:`BulkView`) representation.
        self.n_words = max(1, (len(self.universe) + 63) // 64)

    # -- constructors --------------------------------------------------

    def empty(self) -> S:
        raise NotImplementedError

    def from_defs(self, defs: Iterable[Definition]) -> S:
        raise NotImplementedError

    # -- operations ----------------------------------------------------

    def union(self, a: S, b: S) -> S:
        raise NotImplementedError

    def intersection(self, a: S, b: S) -> S:
        raise NotImplementedError

    def difference(self, a: S, b: S) -> S:
        raise NotImplementedError

    def equals(self, a: S, b: S) -> bool:
        raise NotImplementedError

    # -- fused operations --------------------------------------------------
    #
    # The equation hot paths compute ``(a ∪ b) − c`` (the accumulated-kill
    # base) and ``(a − b) ∪ c`` (the classical Out) constantly.  The
    # derived forms below are correct for every backend; backends whose
    # values carry per-call overhead (NumPy array allocation, Python call
    # dispatch) override them with single-pass implementations.  Both are
    # pure like every other operation: fresh value out, arguments intact.

    def union_difference(self, a: S, b: S, c: S) -> S:
        """``(a ∪ b) − c`` in one call."""
        return self.difference(self.union(a, b), c)

    def difference_union(self, a: S, b: S, c: S) -> S:
        """``(a − b) ∪ c`` in one call."""
        return self.union(self.difference(a, b), c)

    # -- derived helpers -------------------------------------------------

    def union_all(self, sets: Iterable[S]) -> S:
        """Union of a family; the empty family gives the empty set."""
        out = self.empty()
        for s in sets:
            out = self.union(out, s)
        return out

    def intersection_all(self, sets: Iterable[S]) -> S:
        """Intersection of a family.

        Per DESIGN.md §2, the intersection of an **empty** family is the
        **empty set** — the convention the paper's worked examples use for
        blocks with no sequential (or synchronization) predecessors.
        """
        out: S = None  # type: ignore[assignment]
        first = True
        for s in sets:
            out = s if first else self.intersection(out, s)
            first = False
        return self.empty() if first else out

    # -- conversion ------------------------------------------------------

    def to_frozenset(self, s: S) -> FrozenSet[Definition]:
        raise NotImplementedError

    def size(self, s: S) -> int:
        return len(self.to_frozenset(s))

    # -- packed (bulk) conversion ----------------------------------------
    #
    # The dense region evaluator (:mod:`repro.dataflow.dense`) stacks many
    # values into one 2-D ``uint64`` array; these convert one value to and
    # from its packed row.  The generic forms route through frozensets and
    # work for any backend; the bit-vector backends override them with
    # direct word copies.

    def to_words(self, s: S) -> np.ndarray:
        """``s`` as a fresh ``(n_words,)`` array of packed ``uint64``."""
        out = np.zeros(self.n_words, dtype=np.uint64)
        for d in self.to_frozenset(s):
            out[d.index >> 6] |= np.uint64(1) << np.uint64(d.index & 63)
        return out

    def from_words(self, words: np.ndarray) -> S:
        """A backend value from a packed ``(n_words,)`` ``uint64`` row."""
        out = []
        for word_index, word in enumerate(words.tolist()):
            base = word_index << 6
            while word:
                low = word & -word
                out.append(self.universe[base + low.bit_length() - 1])
                word ^= low
        return self.from_defs(out)


class FrozensetBackend(SetBackend[FrozenSet[Definition]]):
    name = "set"

    def empty(self) -> FrozenSet[Definition]:
        return frozenset()

    def from_defs(self, defs: Iterable[Definition]) -> FrozenSet[Definition]:
        return frozenset(defs)

    def union(self, a, b):
        return a | b

    def intersection(self, a, b):
        return a & b

    def difference(self, a, b):
        return a - b

    def equals(self, a, b) -> bool:
        return a == b

    def to_frozenset(self, s):
        return s

    def size(self, s) -> int:
        return len(s)


class IntBitsetBackend(SetBackend[int]):
    name = "bitset"

    def empty(self) -> int:
        return 0

    def from_defs(self, defs: Iterable[Definition]) -> int:
        out = 0
        for d in defs:
            out |= 1 << d.index
        return out

    def union(self, a: int, b: int) -> int:
        return a | b

    def intersection(self, a: int, b: int) -> int:
        return a & b

    def difference(self, a: int, b: int) -> int:
        return a & ~b

    def union_difference(self, a: int, b: int, c: int) -> int:
        return (a | b) & ~c

    def difference_union(self, a: int, b: int, c: int) -> int:
        return (a & ~b) | c

    def equals(self, a: int, b: int) -> bool:
        return a == b

    def to_frozenset(self, s: int) -> FrozenSet[Definition]:
        # Extract set bits directly (s & -s isolates the lowest one) so
        # sparse sets decode in O(popcount), not O(highest bit index).
        out = []
        while s:
            low = s & -s
            out.append(self.universe[low.bit_length() - 1])
            s ^= low
        return frozenset(out)

    def size(self, s: int) -> int:
        return s.bit_count()

    def to_words(self, s: int) -> np.ndarray:
        return np.frombuffer(
            s.to_bytes(self.n_words * 8, "little"), dtype=np.uint64
        ).copy()

    def from_words(self, words: np.ndarray) -> int:
        return int.from_bytes(np.ascontiguousarray(words).tobytes(), "little")


class CountingBackend(SetBackend):
    """Delegating proxy that counts set operations into the current
    :mod:`repro.obs` metrics registry.

    Counts two things per union/intersection/difference/equals call:
    ``bitset.ops`` (one per operation) and ``bitset.word_ops`` (operations
    weighted by the 64-bit word width of the universe — the paper-era cost
    model for bit-vector data flow, comparable across backends).

    Counting is accurate but not free, so it is **opt-in**: plain
    ``make_backend`` never wraps unless an observability session was
    installed with ``count_bitset_ops=True`` (or the caller forces
    ``count_ops=True``).  When disabled, code paths get the raw backend —
    literally zero overhead.
    """

    def __init__(self, inner: SetBackend):
        self.inner = inner
        self.universe = inner.universe
        self.name = inner.name  # transparent: results report the real backend
        self.n_words = inner.n_words
        self._words = inner.n_words
        metrics = get_metrics()
        self._ops = metrics.counter("bitset.ops")
        self._word_ops = metrics.counter("bitset.word_ops")

    def _count(self) -> None:
        self._ops.inc()
        self._word_ops.inc(self._words)

    def empty(self):
        return self.inner.empty()

    def from_defs(self, defs):
        return self.inner.from_defs(defs)

    def union(self, a, b):
        self._count()
        return self.inner.union(a, b)

    def intersection(self, a, b):
        self._count()
        return self.inner.intersection(a, b)

    def difference(self, a, b):
        self._count()
        return self.inner.difference(a, b)

    def equals(self, a, b) -> bool:
        self._count()
        return self.inner.equals(a, b)

    def union_difference(self, a, b, c):
        # A fused call stands for two logical set operations in the
        # paper-era cost model.
        self._count()
        self._count()
        return self.inner.union_difference(a, b, c)

    def difference_union(self, a, b, c):
        self._count()
        self._count()
        return self.inner.difference_union(a, b, c)

    def to_frozenset(self, s):
        return self.inner.to_frozenset(s)

    def size(self, s) -> int:
        return self.inner.size(s)

    def to_words(self, s):
        return self.inner.to_words(s)

    def from_words(self, words):
        return self.inner.from_words(words)


class BulkView:
    """Packed 2-D view over a backend's values for bulk (dense) evaluation.

    The dense region evaluator (:mod:`repro.dataflow.dense`) operates on
    ``(rows, n_words)`` ``uint64`` matrices — one packed row per node.
    ``BulkView`` is the bridge: it packs lists of scalar backend values
    into such matrices and unpacks result rows back into backend values,
    regardless of which scalar backend the caller chose.  Conversion
    routes through :meth:`SetBackend.to_words` / ``from_words`` so the
    bit-vector backends get direct word copies while ``FrozensetBackend``
    still round-trips correctly.

    The view never mutates scalar values (packing copies), so the scalar
    API's purity contract is untouched; the *matrices* it returns are the
    dense evaluator's private mutable state.
    """

    def __init__(self, backend: SetBackend):
        # Unwrap the counting proxy: bulk sweeps are accounted for by the
        # dense evaluator's own obs counters (one matrix op stands for
        # thousands of scalar calls, so per-call counting would be both
        # slow and misleading).
        self.backend = backend.inner if isinstance(backend, CountingBackend) else backend
        self.n_words = self.backend.n_words

    def zeros(self, rows: int) -> np.ndarray:
        """A fresh all-empty ``(rows, n_words)`` packed matrix."""
        return np.zeros((rows, self.n_words), dtype=np.uint64)

    def pack(self, values: Iterable) -> np.ndarray:
        """Stack scalar backend values into a packed matrix, row per value."""
        rows = [self.backend.to_words(v) for v in values]
        if not rows:
            return self.zeros(0)
        return np.stack(rows)

    def unpack_row(self, matrix: np.ndarray, row: int):
        """The scalar backend value stored in ``matrix[row]``."""
        return self.backend.from_words(matrix[row])


#: Registry used by user-facing ``backend=`` parameters.
BACKENDS = {cls.name: cls for cls in (FrozensetBackend, IntBitsetBackend)}

#: Every backend name a surface accepts (CLI ``--backend``, serve).
BACKEND_NAMES: Tuple[str, ...] = tuple(BACKENDS)


def make_backend(
    name: str,
    universe: Sequence[Definition],
    count_ops: Optional[bool] = None,
) -> SetBackend:
    """Instantiate a backend by name (``"set"`` or ``"bitset"``).

    ``count_ops`` wraps the backend in :class:`CountingBackend`; the
    default (``None``) defers to the ambient observability session
    (``repro.obs.session(count_bitset_ops=True)``), so analyses need no
    plumbing to opt in.
    """
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ValueError(f"unknown set backend {name!r}; choose from {sorted(BACKENDS)}") from None
    backend = cls(universe)
    if count_ops if count_ops is not None else bitset_counting_enabled():
        backend = CountingBackend(backend)
    return backend
