"""Metric-space models.

Two kinds of space are supported:

* ``FiniteSpace``: an explicit point set with an exact rational distance
  matrix, held as one integer matrix over a common denominator. All
  oracle-grade checking happens here, and every comparison is exact.
* ``SequenceSpace``: a countable subset of the real line built from one of
  two generating families (geometric approach points clustered below ``a``
  and above ``b``), with the absolute-difference distance, computed as an
  exact ``Fraction`` from the generating offsets.

Both models are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import chain, repeat
from operator import add, floordiv, gt, mul
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

from .errors import (
    BadParamsError,
    IdentityViolationError,
    InvalidPointError,
    NegativeEntryError,
    NonFiniteEntryError,
    NonSquareError,
    SymmetryViolationError,
    TriangleViolationError,
    require_int,
)

__all__ = [
    "as_fraction",
    "validate_finite",
    "FiniteSpace",
    "SequenceFamily",
    "SeqPoint",
    "SequenceSpace",
    "SpaceModel",
    "PointRef",
]

DEFAULT_INDEX_CAP = 10**6
# Widest field, in bits, for which validate_finite checks the triangle
# inequality on packed rows; a field holds the widest entry plus 2 bits.
# Past it the packed sums cost more than the row scan they replace.
PACK_WIDTH_LIMIT = 128


def as_fraction(value) -> Fraction:
    """Parse a distance entry into an exact rational.

    Accepts ``Fraction``, ``int``, strings of the form ``"p/q"`` or decimal
    strings like ``"0.25"``, and floats (converted through their shortest
    decimal representation, so ``0.1`` means 1/10, not the binary float).
    A decimal exponent past 4300 in magnitude (Python's integer-digit limit)
    is refused with ``ValueError`` rather than built as an exact power of ten.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not distances")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        if "e" in value or "E" in value:
            exponent = value.lower().partition("e")[2].strip().replace("_", "")
            if exponent.lstrip("+-").isdecimal() and abs(int(exponent)) > 4300:
                raise ValueError(f"decimal exponent {exponent[:20]} is out of range")
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as a rational distance")


def _ratio_fields(entries: list):
    """``[p, q, p, q, ...]`` read in one pass from entries that are all ASCII
    ``"p/q"`` strings with ``q > 0``, or ``None`` for any other entries."""
    try:
        text = ",".join(entries)
        skeleton = text.encode("ascii").translate(None, b"0123456789")
        if skeleton != b"/," * (len(entries) - 1) + b"/":  # each entry leaves "/"
            return None
        fields = list(map(int, text.replace("/", ",").split(",")))
    except (TypeError, ValueError):  # no str, not ASCII, or a field int() refuses
        return None
    return None if 0 in fields[1::2] else fields


def validate_finite(dist: Sequence[Sequence]) -> tuple:
    """Check the metric axioms on a square matrix, exactly, and return it
    as ``(den, scaled)``, each entry read as ``as_fraction`` reads it:
    ``d(i, j) = scaled[i][j] / den``, with ``scaled`` a tuple of integer
    rows and ``den`` the least common denominator; no ``Fraction`` is built.

    Raises the error for the first violated axiom, scanning axioms in the
    order: squareness, finiteness (no infinite or NaN entry),
    non-negativity, identity (zero diagonal, positive off-diagonal),
    symmetry, triangle inequality. The raised error carries
    the witnessing indices; ``TriangleViolationError`` indices ``(i, j, k)``
    mean ``d(i,j) > d(i,k) + d(k,j)``. Any other entry ``as_fraction``
    refuses raises its error; the first bad entry in row order decides.

    The matrix is read once into integers over one common denominator: a
    matrix of ASCII ``"p/q"`` strings in one pass (``_ratio_fields``), any
    other entry by entry in row order, an ``int`` as it is, an infinite or
    NaN float refused where it is met and the rest through ``as_fraction``.
    Every stage after finiteness compares those integers a row at a time
    at C level (``min(row)``, ``row.count(0)``, a row against its column);
    only a row that fails is scanned again in Python for its first witness.
    Messages print the entries as given. The matrix is symmetric by the
    triangle stage, so it compares the pairs ``j > i`` only. While every
    field of ``PACK_WIDTH_LIMIT`` bits holds the widest entry plus 2 bits,
    each row is packed once into one integer, a field per column, and one
    integer expression per pair compares ``d(i,j)`` with ``d(i,k) + d(k,j)``
    for every ``k`` at once (SIMD within a register); a wider matrix
    compares row ``i`` with ``d(i,k) + row k`` at C level instead. Either
    way a failing row is rescanned over ``(j, k)`` in order, so the witness
    is still the lexicographically first ``(i, j, k)``.
    """
    n = len(dist)
    for i, row in enumerate(dist):
        if len(row) != n:
            raise NonSquareError(f"row {i} has {len(row)} entries, expected {n}", (i,))
    entries = list(chain.from_iterable(dist))
    fields = _ratio_fields(entries)
    if fields is None:
        fields = []
        for index, v in enumerate(entries):
            if type(v) is not int:  # an int has numerator and denominator already
                if isinstance(v, float) and not math.isfinite(v):
                    i, j = divmod(index, n)
                    msg = f"d({i},{j}) = {v} is not a finite number"
                    raise NonFiniteEntryError(msg, (i, j))
                v = as_fraction(v)
            fields += v.numerator, v.denominator
    nums, dens = fields[::2], fields[1::2]
    den = math.lcm(*set(dens))
    flat = list(map(mul, nums, map(floordiv, repeat(den), dens)))
    # an unreduced "p/q" may leave a common factor; the least den is canonical
    common = math.gcd(den, *flat)
    if common > 1:
        den //= common
        flat = [m // common for m in flat]
    scaled = [tuple(flat[i : i + n]) for i in range(0, n * n, n)]
    for i, row in enumerate(scaled):
        if min(row) < 0:
            j = next(j for j, v in enumerate(row) if v < 0)
            raise NegativeEntryError(f"d({i},{j}) = {dist[i][j]} is negative", (i, j))
    for i, row in enumerate(scaled):
        if row[i] != 0:
            raise IdentityViolationError(
                f"d({i},{i}) = {dist[i][i]}, diagonal must be zero", (i, i)
            )
        if row.count(0) > 1:
            j = next(j for j, v in enumerate(row) if v == 0 and j != i)
            raise IdentityViolationError(f"d({i},{j}) = 0 for distinct points", (i, j))
    for i, (row, column) in enumerate(zip(scaled, zip(*scaled))):
        if row != column:  # earlier rows agree, so the first mismatch has j > i
            j = next(j for j in range(i + 1, n) if row[j] != column[j])
            raise SymmetryViolationError(
                f"d({i},{j}) = {dist[i][j]} but d({j},{i}) = {dist[j][i]}", (i, j)
            )
    # The matrix is symmetric now, so a violation (i, j, k) with j < i has
    # its mirror (j, i, k) in an earlier row: each row i is compared on
    # j > i only, and the first row that fails is still the first witness's.
    # a field holds d(i,k) + d(k,j) below its guard bit
    width = max(map(max, scaled), default=0).bit_length() + 2
    if width <= PACK_WIDTH_LIMIT:
        # Packed row i holds d(i,k) in field k; by symmetry packed rows i
        # plus j hold d(i,k) + d(k,j). With every guard bit set first,
        # subtracting d(i,j) from each field borrows across none, and a
        # guard comes out clear exactly where d(i,j) > d(i,k) + d(k,j).
        packed = []
        for row in scaled:
            p = 0
            for v in reversed(row):
                p = p << width | v
            packed.append(p)
        ones = sum(1 << width * k for k in range(n))
        guards = ones << width - 1
        for i, (row_i, p_i) in enumerate(zip(scaled, packed)):
            lifted = p_i | guards
            for d_ij, p_j in zip(row_i[i + 1:], packed[i + 1:]):
                if lifted + p_j - d_ij * ones & guards != guards:
                    _raise_first_triangle_violation(scaled, den, i)
    else:
        for i, row_i in enumerate(scaled):
            right = i + 1
            tail = row_i[right:]
            for d_ik, row_k in zip(row_i, scaled):
                if any(map(gt, tail, map(add, repeat(d_ik), row_k[right:]))):
                    _raise_first_triangle_violation(scaled, den, i)
    return den, tuple(scaled)


def _raise_first_triangle_violation(scaled, den: int, i: int) -> None:
    """Raise for the first ``(j, k)`` with ``d(i,j) > d(i,k) + d(k,j)``."""
    row = scaled[i]
    for j in range(len(scaled)):
        for k in range(len(scaled)):
            if row[j] > row[k] + scaled[k][j]:
                raise TriangleViolationError(
                    f"d({i},{j}) = {Fraction(row[j], den)} exceeds "
                    f"d({i},{k}) + d({k},{j}) = {Fraction(row[k] + scaled[k][j], den)}",
                    (i, j, k),
                )


@dataclass(frozen=True, init=False)
class FiniteSpace:
    """Finite metric space given by labels and an exact distance matrix.

    Points are referenced by integer index into ``labels``. The matrix is
    validated on construction; an invalid matrix never yields a space.
    Both constructors read every entry as ``as_fraction`` does: a float is
    its shortest decimal (0.1 is 1/10), a string may be ``"p/q"`` or a
    decimal, and a ``bool`` is refused.

    The metric is stored as one integer matrix over one denominator:
    ``d(i, j) = scaled[i][j] / den``, with ``den`` the least such. Ratios of
    distances do not depend on ``den``, so the finite-only engines compare
    these integers. ``distance`` builds only the ``Fraction`` it is asked for
    and keeps it, keyed by ``x * size + y``; ``dist``, the exact view as a
    tuple of ``Fraction`` rows, is built on each call.
    """

    labels: tuple
    scaled: tuple
    den: int
    _memo: dict = field(init=False, repr=False, compare=False)  # x * size + y -> Fraction

    def __init__(self, labels: tuple, dist: tuple):
        labels = tuple(labels)  # a copy: the caller's list may change later
        if len(labels) != len(dist):
            raise NonSquareError(f"{len(labels)} labels but {len(dist)} rows", ())
        if not labels:
            raise BadParamsError("a finite space needs at least one point")
        if len(set(labels)) != len(labels):
            raise BadParamsError("point labels must be distinct")
        den, scaled = validate_finite(dist)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "scaled", scaled)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_memo", {})

    @classmethod
    def from_rows(cls, labels: Iterable[str], rows: Iterable[Iterable]) -> "FiniteSpace":
        """Build a space from any nested iterable of rational-like entries."""
        return cls(labels, tuple(map(tuple, rows)))

    @property
    def dist(self) -> tuple:
        """The exact matrix, as a tuple of ``Fraction`` rows, built on each call."""
        return tuple(tuple(Fraction(m, self.den) for m in row) for row in self.scaled)

    @property
    def size(self) -> int:
        return len(self.labels)

    def points(self) -> Iterator[int]:
        return iter(range(self.size))

    def point_named(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InvalidPointError(f"no point labelled {label!r}") from None

    def check_point(self, x) -> int:
        if type(x) is not int or not 0 <= x < len(self.labels):
            raise InvalidPointError(f"{x!r} is not a point index of this space")
        return x

    def distance(self, x, y) -> Fraction:
        key = self.check_point(x) * len(self.labels) + self.check_point(y)
        exact = self._memo.get(key)
        if exact is None:
            exact = self._memo[key] = Fraction(self.scaled[x][y], self.den)
        return exact


class SequenceFamily(str, Enum):
    """Generating formulas for the two built-in real-line point families.

    Values double as the instance-file / gallery wire ids.
    """

    # two interleaved strands: odd indices approach a from below with
    # halving gaps, even indices approach b from above
    TWO_PHASE = "example_2_3"
    # four interleaved strands: halving gaps below a / above b, then
    # thirding gaps below a / above b, repeating with period 4
    FOUR_PHASE = "example_2_4"


def _power(base: int, k: int) -> int:
    """base^k for base 2 or 3; for base 2 a shift, which costs far less."""
    return 1 << k if base == 2 else 3**k


class SeqPoint(NamedTuple):
    """A point of a ``SequenceSpace``: an anchor (role ``"a"`` or ``"b"``,
    n = 0) or the family member x_n (role ``"x"``, n >= 1), with no
    coordinate. A named tuple (C-level hash, ``==`` and unpacking), equal to
    its plain ``(role, n)``, which the spaces refuse all the same."""

    role: str  # "a" | "b" | "x"
    n: int

    @property
    def name(self) -> str:
        return self.role if self.role in ("a", "b") else f"x{self.n}"

    def __repr__(self) -> str:
        return f"SeqPoint({self.name})"


@dataclass(frozen=True)
class SequenceSpace:
    """Countable real-line space {a, b, x_1, x_2, ...} for one family.

    Only the generating formulas are stored; points materialize on demand
    through :meth:`x`, up to ``max_index``. The anchors a and b are exact
    members (they are the accumulation points of the family); they must be
    finite, with a < b and b - a a finite float.
    """

    family: SequenceFamily
    a: float
    b: float
    max_index: int = DEFAULT_INDEX_CAP
    gap: Fraction = field(init=False, repr=False, compare=False)  # exact b - a

    def __post_init__(self):
        try:
            # a family given by its id string becomes the member itself
            object.__setattr__(self, "family", SequenceFamily(self.family))
        except (TypeError, ValueError):
            raise BadParamsError(
                f"unknown sequence family {self.family!r}; expected one of "
                f"{[f.value for f in SequenceFamily]}"
            ) from None
        try:
            finite = all(map(math.isfinite, (self.a, self.b, self.b - self.a)))
        except (OverflowError, TypeError):  # an int past the float range, or no number
            finite = False
        if not finite or bool in (type(self.a), type(self.b)):  # False is no anchor
            raise BadParamsError(
                f"need finite real anchors and a finite gap b - a, "
                f"got a={self.a!r}, b={self.b!r}"
            )
        if not self.a < self.b:
            raise BadParamsError(f"need a < b, got a={self.a}, b={self.b}")
        require_int("max_index", self.max_index, 1)
        object.__setattr__(self, "gap", Fraction(self.b) - Fraction(self.a))

    # -- point constructors -------------------------------------------------

    @property
    def a_point(self) -> SeqPoint:
        return SeqPoint("a", 0)

    @property
    def b_point(self) -> SeqPoint:
        return SeqPoint("b", 0)

    def x(self, n: int) -> SeqPoint:
        """The n-th family point (1-based)."""
        if type(n) is not int or not 1 <= n <= self.max_index:
            raise InvalidPointError(f"index {n!r} outside 1..{self.max_index}")
        return tuple.__new__(SeqPoint, ("x", n))  # no call to the generated __new__

    # -- membership and distance --------------------------------------------

    def check_point(self, p) -> SeqPoint:
        """``p`` itself if it is a point of this space (see ``_place``)."""
        self._place(p)
        return p

    def _place(self, p) -> tuple:
        """Locate p as (below_a, base, k): p = a - base^-k if below_a, else
        b + base^-k; an anchor is (below_a, 0, 0), with no offset. One pass,
        family points first: what is no point of this space raises ``InvalidPointError``."""
        if type(p) is not SeqPoint:
            raise InvalidPointError(f"{p!r} is not a point of a sequence space")
        role, n = p
        if role == "x":
            if type(n) is not int or not 1 <= n <= self.max_index:
                raise InvalidPointError(f"{p!r} has index {n!r}, outside 1..{self.max_index}")
            if self.family == "example_2_3":  # by id: a member looked up on the class is slow
                return n & 1 == 1, 2, n
            return n & 1 == 1, 2 if n & 3 in (1, 2) else 3, (n + 3) >> 2
        if role == "a" or role == "b":
            if type(n) is not int or n:
                raise InvalidPointError(f"{p!r} has index {n!r}, outside 0..0")
            return role == "a", 0, 0
        raise InvalidPointError(f"unknown point role {role!r}")

    def distance(self, x, y) -> Fraction:
        """Exact absolute coordinate difference, from the generating offsets.

        Points on one side are their offsets' difference apart, points on
        opposite sides the gap b - a plus both offsets. Two offsets of one
        base combine in closed form, |b^-i -+ b^-j| = (b^(i-j) -+ 1) / b^i
        with i >= j, whose gcd with b^i is cheap. Offsets of bases 2 and 3
        are left to ``Fraction``'s own sum or difference: one fraction over
        2^i 3^j would pay a full big-integer gcd.
        """
        below_x, base, i = self._place(x)
        below_y, base_y, j = self._place(y)
        apart = below_x != below_y
        if i < j:  # i >= j from here on
            i, j, base, base_y = j, i, base_y, base
        if j and base == base_y:
            if base == 2:
                lo, hi = 1 << i - j, 1 << i
            else:
                lo, hi = 3 ** (i - j), 3**i
            off = Fraction(lo + 1 if apart else lo - 1, hi)
        elif j:
            u, v = Fraction(1, _power(base, i)), Fraction(1, _power(base_y, j))
            off = u + v if apart else abs(u - v)
        elif i:  # an anchor, at offset 0, and a family point
            off = Fraction(1, _power(base, i))
        else:
            return self.gap if apart else Fraction(0)
        return self.gap + off if apart else off

    def coord(self, p) -> float:
        """The point's coordinate, rounded once to the nearest float."""
        below, base, k = self._place(p)
        off = Fraction(1, _power(base, k)) if k else 0
        return float(Fraction(self.a) - off if below else Fraction(self.b) + off)

    def point_named(self, name: str) -> SeqPoint:
        """Resolve ``"a"``, ``"b"``, ``"x12"`` or ``"x_12"``."""
        s = name.strip() if isinstance(name, str) else ""  # no name: refused below
        if s == "a":
            return self.a_point
        if s == "b":
            return self.b_point
        body = s[1:].lstrip("_") if s[:1] == "x" else ""
        # a longer index is out of range anyway, and int() refuses 4300 digits
        if body.isdecimal() and len(body) <= len(str(self.max_index)):
            return self.x(int(body))
        raise InvalidPointError(f"cannot parse point name {name!r}")

    def sample_points(self, index_cap: int):
        """a, b and the first ``index_cap`` family points."""
        yield self.a_point
        yield self.b_point
        for n in range(1, index_cap + 1):
            yield self.x(n)


SpaceModel = Union[FiniteSpace, SequenceSpace]
PointRef = Union[int, SeqPoint]
