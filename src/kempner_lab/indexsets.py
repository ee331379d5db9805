"""Index sets of constrained digit positions, as a closed rule algebra.

Five rule families describe which digit positions carry a forbidden set:
every position, an explicit finite set, an arithmetic progression, the
powers of a fixed base, or the complement of another rule.  Keeping the
algebra closed makes four facts decidable symbolically: membership, the
walk through the members from a given position on, the geometric weight
sum of b**-(i+1) over those members, and the asymptotic growth of the
counting function count(k) = |I ∩ [0, k]|.  Finiteness and cofiniteness
are read off that growth envelope: I is finite exactly when count(k) is
bounded, and cofinite when its complement is.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count as _count_from
from typing import Union

from ._record import record
from .errors import InputOutOfRange, check_int


@record
class AllIndices:
    def contains(self, i: int) -> bool:
        return i >= 0

    def count(self, k: int) -> int:
        return k + 1 if k >= 0 else 0


@record
class ExplicitIndices:
    indices: frozenset[int]

    def __post_init__(self):
        if not isinstance(self.indices, frozenset):
            raise InputOutOfRange(f"explicit index set must be a frozenset, got {self.indices!r}")
        if not self.indices:
            raise InputOutOfRange("explicit index set must be nonempty")
        for i in self.indices:
            check_int(i, "index set entry")
        if any(i < 0 for i in self.indices):
            raise InputOutOfRange("index set entries must be nonnegative")

    def contains(self, i: int) -> bool:
        return i in self.indices

    def count(self, k: int) -> int:
        return sum(1 for i in self.indices if i <= k)


@record
class ArithmeticIndices:
    """{first, first + step, first + 2*step, ...}"""

    first: int
    step: int

    def __post_init__(self):
        check_int(self.first, "first term")
        check_int(self.step, "step")
        if self.first < 0:
            raise InputOutOfRange(f"first term must be nonnegative, got {self.first}")
        if self.step < 1:
            raise InputOutOfRange(f"step must be >= 1, got {self.step}")

    def contains(self, i: int) -> bool:
        return i >= self.first and (i - self.first) % self.step == 0

    def count(self, k: int) -> int:
        if k < self.first:
            return 0
        return (k - self.first) // self.step + 1


@record
class PowerIndices:
    """{1, base, base**2, ...}"""

    base: int

    def __post_init__(self):
        check_int(self.base, "power index base")
        if self.base < 2:
            raise InputOutOfRange(f"power index base must be >= 2, got {self.base}")

    def contains(self, i: int) -> bool:
        if i < 1:
            return False
        while i % self.base == 0:
            i //= self.base
        return i == 1

    def count(self, k: int) -> int:
        if k < 1:
            return 0
        n = 0
        p = 1
        while p <= k:
            n += 1
            p *= self.base
        return n


@record
class ComplementIndices:
    inner: "IndexSet"

    def __post_init__(self):
        if not isinstance(self.inner, IndexSet):
            raise InputOutOfRange(f"complement needs an index set, got {self.inner!r}")

    def contains(self, i: int) -> bool:
        return i >= 0 and not self.inner.contains(i)

    def count(self, k: int) -> int:
        if k < 0:
            return 0
        return (k + 1) - self.inner.count(k)


IndexSet = Union[AllIndices, ExplicitIndices, ArithmeticIndices, PowerIndices, ComplementIndices]


def normalize(ix: IndexSet) -> IndexSet:
    """Strip double complements so certificates see the underlying rule."""
    while isinstance(ix, ComplementIndices) and isinstance(ix.inner, ComplementIndices):
        ix = ix.inner.inner
    return ix


def iter_members(ix: IndexSet, lo: int = 0):
    """Members of the index set that are >= lo, ascending; the walk ends
    only when the set is finite.  Sparse rules are stepped through, not
    scanned position by position."""
    lo = max(lo, 0)
    if isinstance(ix, AllIndices):
        return _count_from(lo)
    if isinstance(ix, ArithmeticIndices):
        steps = max(0, -((ix.first - lo) // ix.step))
        return _count_from(ix.first + steps * ix.step, ix.step)
    if isinstance(ix, PowerIndices):
        return (ix.base**j for j in _count_from(ix.count(lo - 1)))
    if isinstance(ix, ExplicitIndices):
        return iter(sorted(i for i in ix.indices if i >= lo))
    # a finite complement has no member past its envelope's valid_from
    g = growth(ix)
    positions = range(lo, g.valid_from + 1) if g.kind == GROWTH_BOUNDED else _count_from(lo)
    return filter(ix.contains, positions)


def geometric_weight(ix: IndexSet, base: int, lo: int = 0) -> Fraction | None:
    """Exact sum of base**-(i+1) over the members i >= lo, or None for the
    powers rule and its complements, which have no closed form."""
    ix = normalize(ix)
    if isinstance(ix, ComplementIndices):
        inner = geometric_weight(ix.inner, base, lo)
        return None if inner is None else geometric_weight(AllIndices(), base, lo) - inner
    if isinstance(ix, PowerIndices):
        return None
    if isinstance(ix, ExplicitIndices):
        return sum((Fraction(1, base ** (i + 1)) for i in iter_members(ix, lo)), Fraction(0))
    # every position is the progression of step 1: sum of r**-j from the first member
    r = base ** (ix.step if isinstance(ix, ArithmeticIndices) else 1)
    return Fraction(r, base ** (next(iter_members(ix, lo)) + 1) * (r - 1))


# --- growth envelopes -------------------------------------------------------
#
# The convergence/divergence certificates need two-sided envelopes on
# count(k), valid for every k >= valid_from:
#
#   linear:   count(k) >= slope * k + offset           (slope > 0)
#   log:      log_b(k) <= count(k) <= log_b(k) + 1     (k >= 1)
#   bounded:  count(k) <= limit, with equality once k >= valid_from
#
# Each envelope below is a small arithmetic fact about its rule family.

GROWTH_LINEAR = "linear"
GROWTH_LOG = "log"
GROWTH_BOUNDED = "bounded"


@record
class Growth:
    kind: str
    slope: Fraction = Fraction(0)
    offset: Fraction = Fraction(0)
    log_base: int = 0
    limit: int = 0
    valid_from: int = 0


def growth(ix: IndexSet) -> Growth:
    ix = normalize(ix)
    if isinstance(ix, AllIndices):
        return Growth(GROWTH_LINEAR, slope=Fraction(1), offset=Fraction(1))
    if isinstance(ix, ArithmeticIndices):
        # count(k) >= (k - first) / step for every k >= 0
        return Growth(
            GROWTH_LINEAR,
            slope=Fraction(1, ix.step),
            offset=Fraction(-ix.first, ix.step),
        )
    if isinstance(ix, ExplicitIndices):
        return Growth(GROWTH_BOUNDED, limit=len(ix.indices), valid_from=max(ix.indices))
    if isinstance(ix, PowerIndices):
        return Growth(GROWTH_LOG, log_base=ix.base, valid_from=1)
    inner = ix.inner  # not itself a complement, once normalized
    if isinstance(inner, AllIndices):
        return Growth(GROWTH_BOUNDED, limit=0, valid_from=0)
    if isinstance(inner, ExplicitIndices):
        # count(k) >= k + 1 - |S|
        return Growth(GROWTH_LINEAR, slope=Fraction(1), offset=Fraction(1 - len(inner.indices)))
    if isinstance(inner, ArithmeticIndices):
        if inner.step == 1:
            # complement is [0, first)
            return Growth(
                GROWTH_BOUNDED, limit=inner.first, valid_from=max(inner.first - 1, 0)
            )
        # inner.count(k) <= k/step + 1, so count(k) >= k (1 - 1/step)
        return Growth(GROWTH_LINEAR, slope=1 - Fraction(1, inner.step), offset=Fraction(0))
    # inner is PowerIndices: inner.count(k) <= log2(k) + 1 <= k/2 + 1 for k >= 4
    return Growth(GROWTH_LINEAR, slope=Fraction(1, 2), offset=Fraction(0), valid_from=4)


def is_finite(ix: IndexSet) -> bool:
    return growth(ix).kind == GROWTH_BOUNDED


def is_cofinite(ix: IndexSet) -> bool:
    return is_finite(ComplementIndices(ix))
