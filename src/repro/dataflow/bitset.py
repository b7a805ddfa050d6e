"""Set backends for data-flow values.

The paper notes that "most commercial compilers use the bit vector
intermediate representation".  A backend only *encodes* and *decodes*
subsets of a fixed definition universe (the small :class:`SetBackend`
protocol); the equation systems apply the set algebra themselves, with
the operators Python ints and frozensets share — ``|`` (union), ``&``
(intersection), ``^`` and ``==`` — so one equation code path serves both
encodings.  Difference ``a − b`` is written ``(a | b) ^ b``, and a
complement mask ``U − x`` is built once, at encode time, as
``U ^ (U & x)``.  The two implementations (:data:`BACKEND_NAMES`):

``FrozensetBackend``
    Values are ``frozenset[Definition]`` — slow, but transparent when
    debugging and the natural golden-test representation.

``IntBitsetBackend``
    Values are plain Python integers used as bit vectors (bit ``i`` set iff
    definition with index ``i`` is in the set).  Arbitrary-precision ints
    give branch-free union/intersection/difference in C; this is the
    production backend.

``tests/oracles/test_equations_oracle.py`` checks the equations against a
frozenset-only reference, and ``tests/property/test_backends_agree.py``
checks both encodings produce identical fixpoints.
"""

from __future__ import annotations

from typing import FrozenSet, Generic, Iterable, Iterator, List, Sequence, Tuple, TypeVar

from ..ir.defs import Definition

S = TypeVar("S")


class SetBackend(Generic[S]):
    """Encoding of subsets of a fixed definition universe.

    Encoded values must support ``|``, ``&``, ``^`` and ``==`` with set
    semantics, return fresh values from them, and be canonical (equal
    sets encode equal), so solver state snapshots and ``state_key`` can
    compare encoded rows directly.
    """

    name = "abstract"

    def __init__(self, universe: Sequence[Definition]):
        self.universe: List[Definition] = list(universe)

    def empty(self) -> S:
        raise NotImplementedError

    def from_defs(self, defs: Iterable[Definition]) -> S:
        raise NotImplementedError

    def to_frozenset(self, s: S) -> FrozenSet[Definition]:
        raise NotImplementedError

    def size(self, s: S) -> int:
        return len(self.to_frozenset(s))


class FrozensetBackend(SetBackend[FrozenSet[Definition]]):
    name = "set"

    def empty(self) -> FrozenSet[Definition]:
        return frozenset()

    def from_defs(self, defs: Iterable[Definition]) -> FrozenSet[Definition]:
        return frozenset(defs)

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

    def to_frozenset(self, s: int) -> FrozenSet[Definition]:
        # Extract set bits directly (s & -s isolates the lowest one) so
        # sparse sets decode in O(popcount), not O(highest bit index).
        # Inlined rather than built on ``bit_indices``: decoding is hot
        # (solver snapshots, row reads), and the generator costs ~0.5 µs
        # a call.
        out = []
        while s:
            low = s & -s
            out.append(self.universe[low.bit_length() - 1])
            s ^= low
        return frozenset(out)

    def size(self, s: int) -> int:
        return s.bit_count()


def bit_indices(s: int) -> Iterator[int]:
    """Indices of the set bits of ``s``, lowest first, for walking a mask
    without decoding it (dead-code propagation, du-chain inversion)."""
    while s:
        low = s & -s
        yield low.bit_length() - 1
        s ^= low


#: Registry used by user-facing ``backend=`` parameters.
BACKENDS = {cls.name: cls for cls in (FrozensetBackend, IntBitsetBackend)}

#: Every backend name a surface accepts (CLI ``--backend``, serve).
BACKEND_NAMES: Tuple[str, ...] = tuple(BACKENDS)


def make_backend(name: str, universe: Sequence[Definition]) -> SetBackend:
    """Instantiate a backend by name (``"set"`` or ``"bitset"``)."""
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ValueError(f"unknown set backend {name!r}; choose from {sorted(BACKENDS)}") from None
    return cls(universe)
