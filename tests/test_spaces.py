"""Metric-space models: axiom validation, coordinates, distances."""

import math
from enum import IntEnum
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from graphcon import (
    BadParamsError,
    FiniteSpace,
    IdentityViolationError,
    InvalidPointError,
    MetricAxiomError,
    NegativeEntryError,
    NonFiniteEntryError,
    NonSquareError,
    SeqPoint,
    SequenceFamily,
    SequenceSpace,
    ShiftMap,
    SymmetryViolationError,
    TriangleViolationError,
    as_fraction,
    classify_limits,
    random_instance,
    validate_finite,
)
from graphcon import spaces
from graphcon.spaces import PACK_WIDTH_LIMIT

from builders import four_phase, two_phase, unit_space


# exact generating formulas, used as the independent reference throughout
def two_phase_coord(a, b, n):
    if n % 2 == 1:
        return a - Fraction(1, 2**n)
    return b + Fraction(1, 2**n)


def four_phase_coord(a, b, n):
    r = n % 4
    if r == 1:
        return a - Fraction(1, 2 ** ((n + 3) // 4))
    if r == 2:
        return b + Fraction(1, 2 ** ((n + 2) // 4))
    if r == 3:
        return a - Fraction(1, 3 ** ((n + 1) // 4))
    return b + Fraction(1, 3 ** (n // 4))


class TestAsFraction:
    def test_rational_string(self):
        assert as_fraction("3/4") == Fraction(3, 4)

    def test_decimal_string(self):
        assert as_fraction("0.25") == Fraction(1, 4)

    def test_int_and_fraction_passthrough(self):
        assert as_fraction(7) == Fraction(7)
        assert as_fraction(Fraction(2, 5)) == Fraction(2, 5)

    def test_float_uses_decimal_repr(self):
        assert as_fraction(0.1) == Fraction(1, 10)

    def test_rejects_bool_and_junk(self):
        with pytest.raises(TypeError):
            as_fraction(True)
        with pytest.raises(TypeError):
            as_fraction(object())


def reference_triangle_scan(dist):
    """The plain cubic triangle scan over (i, j, k) in lexicographic order."""
    n = len(dist)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if dist[i][j] > dist[i][k] + dist[k][j]:
                    raise TriangleViolationError(
                        f"d({i},{j}) = {dist[i][j]} exceeds "
                        f"d({i},{k}) + d({k},{j}) = {dist[i][k] + dist[k][j]}",
                        (i, j, k),
                    )


def _validated_fractions(dist):
    """The rows ``validate_finite`` returns, read as ``Fraction(scaled[i][j], den)``."""
    den, scaled = validate_finite(dist)
    return tuple(tuple(Fraction(m, den) for m in row) for row in scaled)


def axiom_outcome(check, dist):
    """(error type, indices, message) raised by ``check``, or None."""
    try:
        check(dist)
    except MetricAxiomError as exc:
        return type(exc), exc.indices, str(exc)
    return None


@st.composite
def planted_matrices(draw):
    """A shortest-path metric on 3..7 points with positive rational edge
    weights, then up to three entry pairs each raised above the detour
    through a third point. Every entry is then multiplied by a power of two,
    so that the scaled matrix lands below or past ``PACK_WIDTH_LIMIT``.
    Whole entries are stored as ints."""
    n = draw(st.integers(min_value=3, max_value=7))
    weight = st.builds(
        Fraction,
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=6),
    )
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = draw(weight)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i, j, k = draw(st.permutations(range(n)))[:3]
        d[i][j] = d[j][i] = d[i][k] + d[k][j] + draw(weight)
    scale = 2 ** draw(st.sampled_from((0, 58, 118, 200)))
    d = [[v * scale for v in row] for row in d]
    return [[int(v) if v.denominator == 1 else v for v in row] for row in d]


def reference_read(dist):
    """``validate_finite`` entry by entry: each entry read by ``as_fraction``,
    then each axiom scanned over the entries in row order."""
    n = len(dist)
    try:
        exact = [[as_fraction(v) for v in row] for row in dist]
    except (TypeError, ValueError, ZeroDivisionError):
        for i, j in product(range(n), repeat=2):
            v = dist[i][j]
            if isinstance(v, float) and not math.isfinite(v):
                msg = f"d({i},{j}) = {v} is not a finite number"
                raise NonFiniteEntryError(msg, (i, j)) from None
            as_fraction(v)
    for i, j in product(range(n), repeat=2):
        if exact[i][j] < 0:
            raise NegativeEntryError(f"d({i},{j}) = {dist[i][j]} is negative", (i, j))
    for i, row in enumerate(exact):
        if row[i] != 0:
            msg = f"d({i},{i}) = {dist[i][i]}, diagonal must be zero"
            raise IdentityViolationError(msg, (i, i))
        for j in range(n):
            if row[j] == 0 and j != i:
                raise IdentityViolationError(f"d({i},{j}) = 0 for distinct points", (i, j))
    for i, j in product(range(n), repeat=2):
        if exact[i][j] != exact[j][i]:
            msg = f"d({i},{j}) = {dist[i][j]} but d({j},{i}) = {dist[j][i]}"
            raise SymmetryViolationError(msg, (i, j))
    reference_triangle_scan(exact)
    den = math.lcm(*(v.denominator for row in exact for v in row))
    return den, tuple(tuple(int(v * den) for v in row) for row in exact)


def read_outcome(read, dist):
    """``read(dist)``, or the (type, indices, message) of the error it raises."""
    try:
        return read(dist)
    except (MetricAxiomError, TypeError, ValueError, ZeroDivisionError) as exc:
        return type(exc), getattr(exc, "indices", None), str(exc)


AWKWARD_ENTRIES = [
    "1/0", "/2", "1/", "1//2", "1/2/3", "1,2/3", " 1/2", "\u0661/2", "\u00b2/3",
    "-1/2", "+1/2", "1_0/2", "007/010", "2/4", "1" * 4400 + "/3",
    0.25, Fraction(1, 3), True, math.nan,
]


@st.composite
def ratio_matrices(draw):
    """A ``planted_matrices`` matrix written as ``"p/q"`` strings, each entry
    unreduced by a factor 1..3, with up to two entries (and at times their
    mirrors) replaced by an awkward entry."""
    dist = draw(planted_matrices())
    n = len(dist)
    factors = iter(draw(st.lists(st.integers(1, 3), min_size=n * n, max_size=n * n)))
    rows = [[f"{k * Fraction(v).numerator}/{k * Fraction(v).denominator}"
             for v, k in zip(row, factors)] for row in dist]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = draw(st.sampled_from(AWKWARD_ENTRIES))
        if draw(st.booleans()):
            rows[j][i] = rows[i][j]
    return rows


@st.composite
def repeated_ratio_matrices(draw):
    """``"p/q"`` matrices that repeat their strings: each pair's entry is
    written once and mirrored as the same string or, at times, unreduced by
    another factor ("1/2" beside "2/4"); the diagonal reuses one string;
    half the matrices take every off-diagonal entry from the few strings
    for 1 and 2; and up to two awkward entries are each written at up to
    four places."""
    if draw(st.booleans()):
        dist = draw(planted_matrices())
    else:  # a metric: every detour is at least 2
        n = draw(st.integers(min_value=2, max_value=7))
        dist = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                dist[i][j] = dist[j][i] = draw(st.integers(1, 2))
    n = len(dist)

    def written(v):
        k = draw(st.integers(1, 3))
        return f"{k * Fraction(v).numerator}/{k * Fraction(v).denominator}"

    zero = draw(st.sampled_from(["0/1", "0/3", "00/7"]))
    rows = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = written(dist[i][j])
            rows[j][i] = rows[i][j] if draw(st.booleans()) else written(dist[j][i])
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        bad = draw(st.sampled_from(AWKWARD_ENTRIES))
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            rows[i][j] = bad
    return rows


class HashRefused(Fraction):
    def __hash__(self):
        raise AssertionError("a non-str entry was hashed")


class StrHashRefused(str):
    def __hash__(self):
        raise AssertionError("a non-str entry was hashed")


@pytest.fixture
def parsed(monkeypatch):
    """The entries ``validate_finite`` hands to ``as_fraction``, in call order."""
    read = []
    parse = spaces.as_fraction
    monkeypatch.setattr(spaces, "as_fraction", lambda v: read.append(v) or parse(v))
    return read


class TestValidateFinite:

    @given(ratio_matrices())
    @example([["0/1", "1/2"], ["2/4", "0/3"]])
    @example([["0/1", "1/2"], ["1/2", "0/0"]])
    # split at every "/" and ",", either entry gives the fields of a valid
    # matrix plus one more; only the check on the skeleton refuses them
    @example([["0/1", "1/2"], ["1/2", "0/1/2"]])
    @example([["0/1", "1/2"], ["1/2", "0/1,2"]])
    def test_ratio_strings_read_as_as_fraction_reads_them(self, dist):
        # the one-pass read and the per-entry read agree with a reader that
        # calls as_fraction on every entry, on the value or on the error
        assert read_outcome(validate_finite, dist) == read_outcome(reference_read, dist)

    @given(repeated_ratio_matrices())
    @example([["0/1", "1/2", "1/2"], ["2/4", "0/1", "1/2"], ["1/2", "2/4", "0/1"]])
    # the same bad string at (0, 1) and (1, 0), and an earlier bad one at (0, 1)
    @example([["0/1", "1/0"], ["1/0", "0/1"]])
    @example([["0/1", "1/3", "1/0"], ["x", "0/1", "1/3"], ["1/0", "1/3", "0/1"]])
    def test_distinct_strings_read_as_every_entry_is_read(self, dist):
        # each distinct string is read once and spread back over its places;
        # value, error type, indices and message match a per-entry read
        assert read_outcome(validate_finite, dist) == read_outcome(reference_read, dist)

    @pytest.mark.parametrize("kind", [HashRefused, StrHashRefused], ids=["fraction", "str"])
    def test_entries_that_are_not_exact_str_never_hashed(self, kind):
        # a matrix of anything but exact str keeps the per-entry read
        half, zero = kind("1/2"), kind("0")
        assert validate_finite([[zero, half], [half, zero]]) == (2, ((0, 1), (1, 0)))

    def test_ratio_string_matrix_read_in_one_pass(self, parsed):
        assert validate_finite([["0/1", "1/2"], ["2/4", "00/7"]]) == (2, ((0, 1), (1, 0)))
        assert parsed == []
        # any other entry sends the matrix through the per-entry read, which
        # takes an int as it is and parses every other entry once, in row order
        assert validate_finite([["0/1", "1/2"], ["2/4", 0]]) == (2, ((0, 1), (1, 0)))
        assert parsed == ["0/1", "1/2", "2/4"]
        parsed.clear()
        half = Fraction(1, 2)
        assert validate_finite([[0, 0.5, 1], [half, 0, "1/2"], [1, "0.5", 0]])[0] == 2
        assert parsed == [0.5, half, "1/2", "0.5"]

    @pytest.mark.parametrize(
        "dist, error, before",
        [
            ([["0/1", "1/2"], ["x", 0]], ValueError, ["0/1", "1/2", "x"]),
            ([[0, True], [1, 0]], TypeError, [True]),
            ([[0, 1.0], [math.inf, "y"]], NonFiniteEntryError, [1.0]),
        ],
        ids=["bad-string", "bool", "infinite-float"],
    )
    def test_bad_entry_read_once(self, parsed, dist, error, before):
        # the first bad entry in row order stops the read; nothing is read twice
        with pytest.raises(error):
            validate_finite(dist)
        assert parsed == before

    def test_all_ones_5x5_ok(self):
        m = [[0 if i == j else 1 for j in range(5)] for i in range(5)]
        validate_finite(m)  # must not raise

    def test_singleton_ok(self):
        validate_finite([[0]])

    def test_triangle_violation_witness(self):
        with pytest.raises(TriangleViolationError) as err:
            validate_finite([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        assert err.value.indices == (0, 2, 1)

    def test_non_square(self):
        with pytest.raises(NonSquareError):
            validate_finite([[0, 1], [1, 0], [1, 1]])
        with pytest.raises(NonSquareError):
            validate_finite([[0, 1], [1, 0, 2]])

    def test_negative_entry(self):
        with pytest.raises(NegativeEntryError) as err:
            validate_finite([[0, -1], [-1, 0]])
        assert err.value.indices == (0, 1)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=str)
    def test_non_finite_entry(self, bad):
        with pytest.raises(NonFiniteEntryError) as err:
            validate_finite([[0, bad], [bad, 0]])
        assert err.value.indices == (0, 1)
        with pytest.raises(NonFiniteEntryError) as err:
            FiniteSpace(("p", "q"), ((0, bad), (bad, 0)))
        assert err.value.indices == (0, 1)

    def test_non_finite_checked_before_negativity(self):
        with pytest.raises(NonFiniteEntryError) as err:
            validate_finite([[0, -1], [math.inf, 0]])
        assert err.value.indices == (1, 0)

    def test_nonzero_diagonal(self):
        with pytest.raises(IdentityViolationError):
            validate_finite([[1]])

    def test_zero_off_diagonal(self):
        with pytest.raises(IdentityViolationError) as err:
            validate_finite([[0, 0], [0, 0]])
        assert err.value.indices == (0, 1)

    def test_asymmetry(self):
        with pytest.raises(SymmetryViolationError):
            validate_finite([[0, 1], [2, 0]])

    @given(planted_matrices())
    @example(  # (0, 3, 1) comes before (0, 2, 4) when k is scanned first
        [
            [0, 1, 3, 3, 1],
            [1, 0, 3, 1, 2],
            [3, 3, 0, 2, 1],
            [3, 1, 2, 0, 2],
            [1, 2, 1, 2, 0],
        ]
    )
    def test_triangle_witness_matches_reference_scan(self, dist):
        expected = axiom_outcome(reference_triangle_scan, dist)
        assert axiom_outcome(validate_finite, dist) == expected

    @pytest.mark.parametrize(
        "bits", [PACK_WIDTH_LIMIT - 2, PACK_WIDTH_LIMIT - 1], ids=["packed", "row-scan"]
    )
    def test_triangle_check_on_both_sides_of_the_width_gate(self, bits):
        # the widest entry has `bits` bits and a field needs 2 more, so the
        # first case just fits PACK_WIDTH_LIMIT and the second just does not
        top, half, quarter = 2**bits - 1, 2 ** (bits - 1), 2 ** (bits - 2)
        valid = [[0 if i == j else top - i - j for j in range(4)] for i in range(4)]
        assert validate_finite(valid) == (1, tuple(map(tuple, valid)))
        assert axiom_outcome(reference_triangle_scan, valid) is None
        # d(0,1) misses the detour through 3 by 1; the detour through 2
        # sums to 2 * top, the most a field ever holds
        bad = [
            [0, half + 1, top, quarter],
            [half + 1, 0, top, quarter],
            [top, top, 0, top],
            [quarter, quarter, top, 0],
        ]
        assert max(map(max, bad)).bit_length() == bits
        got = axiom_outcome(validate_finite, bad)
        assert got == axiom_outcome(reference_triangle_scan, bad)
        assert got == (
            TriangleViolationError,
            (0, 1, 3),
            f"d(0,1) = {half + 1} exceeds d(0,3) + d(3,1) = {half}",
        )

    def test_mixed_int_and_fraction_entries(self):
        half, three_halves = Fraction(1, 2), Fraction(3, 2)
        validate_finite([[0, 1, three_halves], [1, 0, half], [three_halves, half, 0]])
        bad = [[0, 1, Fraction(5, 2)], [1, 0, half], [Fraction(5, 2), half, 0]]
        got = axiom_outcome(validate_finite, bad)
        assert got == axiom_outcome(reference_triangle_scan, bad)
        assert got[:2] == (TriangleViolationError, (0, 2, 1))

    @pytest.mark.parametrize(
        "dist, error, indices, text",
        [
            (
                [[0, 0.5, Fraction(1, 3)], [0.5, 0, -0.25], [Fraction(1, 3), -0.25, 0]],
                NegativeEntryError, (1, 2), "d(1,2) = -0.25 is negative",
            ),
            (
                [[0, 0.5, 1], [0.5, Fraction(1, 4), 2], [1, 2, 0.0]],
                IdentityViolationError, (1, 1), "d(1,1) = 1/4, diagonal must be zero",
            ),
            (
                [[0, 0.5, 1], [0.5, 0, Fraction(0)], [1, 0.0, 0]],
                IdentityViolationError, (1, 2), "d(1,2) = 0 for distinct points",
            ),
            (  # the float 0.1 is read as 1/10, which is not 1/9; 0.5 is 1/2
                [[0, 0.5, 1], [Fraction(1, 2), 0, 0.1], [1, Fraction(1, 9), 0]],
                SymmetryViolationError, (1, 2), "d(1,2) = 0.1 but d(2,1) = 1/9",
            ),
        ],
        ids=["negative", "diagonal", "off-diagonal", "symmetry"],
    )
    def test_mixed_entries_per_stage(self, dist, error, indices, text):
        with pytest.raises(error) as err:
            validate_finite(dist)
        assert err.value.indices == indices
        assert text in str(err.value)

    @pytest.mark.parametrize(
        "dist, error, indices, text",
        [
            (
                [["0/1", "1/2", "1/3"], ["1/2", "0/1", "-1/4"], ["1/3", "-1/4", "0/1"]],
                NegativeEntryError, (1, 2), "d(1,2) = -1/4 is negative",
            ),
            (
                [["0/1", "1/2", "1/1"], ["1/2", "2/8", "2/1"], ["1/1", "2/1", "0/1"]],
                IdentityViolationError, (1, 1), "d(1,1) = 2/8, diagonal must be zero",
            ),
            (
                [["0/1", "1/2", "1/1"], ["1/2", "0/1", "0/3"], ["1/1", "0/5", "0/1"]],
                IdentityViolationError, (1, 2), "d(1,2) = 0 for distinct points",
            ),
            (
                [["0/1", "1/2", "1/1"], ["2/4", "0/1", "1/10"], ["1/1", "1/9", "0/1"]],
                SymmetryViolationError, (1, 2), "d(1,2) = 1/10 but d(2,1) = 1/9",
            ),
            (
                [["0/1", "1/2", "4/2"], ["2/4", "0/1", "1/1"], ["2/1", "1/1", "0/1"]],
                TriangleViolationError, (0, 2, 1), "d(0,2) = 2 exceeds d(0,1) + d(1,2) = 3/2",
            ),
        ],
        ids=["negative", "diagonal", "off-diagonal", "symmetry", "triangle"],
    )
    def test_ratio_string_rows_per_stage(self, dist, error, indices, text):
        # rows of "p/q" strings keep every stage's witness; messages print
        # the entries as given, triangle sums reduced
        with pytest.raises(error) as err:
            validate_finite(dist)
        assert err.value.indices == indices
        assert text in str(err.value)

    def test_string_entry_refused(self):
        # "p/q" and decimal strings parse as they do in from_rows; junk does not
        den, scaled = validate_finite([[0, "0.25"], ["1/4", 0]])
        assert Fraction(scaled[1][0], den) == Fraction(1, 4)
        with pytest.raises(ValueError):
            validate_finite([[0, "one"], ["one", 0]])

    def test_float_entries_checked_exactly(self):
        validate_finite([[0, 0.1, 0.3], [0.1, 0, 0.2], [0.3, 0.2, 0]])
        # 0.1 + 0.2 rounds to the float 0.30000000000000004, which is read
        # at that shortest decimal, above the exact sum 3/10
        top = 0.1 + 0.2
        with pytest.raises(TriangleViolationError) as err:
            validate_finite([[0, 0.1, top], [0.1, 0, 0.2], [top, 0.2, 0]])
        assert err.value.indices == (0, 2, 1)


class TestFiniteSpace:
    def test_from_rows_parses_mixed_entries(self):
        space = FiniteSpace.from_rows(
            ["p", "q"], [["0", "1/2"], [0.5, 0]]
        )
        assert space.distance(0, 1) == Fraction(1, 2)

    def test_float_entries_stored_exactly(self):
        # the constructor takes a float at its shortest decimal, and keeps it exact
        space = FiniteSpace(("p", "q"), ((0, 0.5), (0.5, 0)))
        assert type(space.distance(0, 1)) is Fraction
        assert space.distance(0, 1) == Fraction(1, 2)
        tenth = FiniteSpace(("p", "q"), ((0, 0.1), (0.1, 0))).distance(1, 0)
        assert tenth == Fraction(1, 10) != Fraction(0.1)

    ENTRY_KINDS = {
        "int": 2,
        "fraction": Fraction(2, 3),
        "float": 0.1,
        "ratio-string": "1/3",
        "unreduced-ratio-string": "2/4",
        "decimal-string": "0.25",
        "signed-ratio-string": "+1/2",
        "negative-ratio-string": "-1/2",
        "padded-ratio-string": " 1/2 ",
        "underscore-ratio-string": "1_0/3",
        "arabic-indic-digits": "\u0661/\u0662",
        "superscript-digit": "\u00b2/3",
        "digits-past-limit": "1" * 5000 + "/3",
        "bool": True,
        "inf": math.inf,
        "nan": math.nan,
        "none": None,
        "zero-denominator": "1/0",
        "huge-exponent": "1e5000",
    }

    @pytest.mark.parametrize("entry", ENTRY_KINDS.values(), ids=ENTRY_KINDS.keys())
    def test_both_constructors_read_entries_alike(self, entry):
        # one entry rule: both constructors and validate_finite give the matrix
        # of as_fraction's value, or the error it leads to
        try:
            value = as_fraction(entry)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            expected = (type(exc), str(exc))
            if isinstance(entry, float):
                expected = (NonFiniteEntryError, f"d(0,1) = {entry} is not a finite number")
        else:
            expected = ((0, value), (value, 0))
            if value < 0:
                expected = (NegativeEntryError, f"d(0,1) = {entry} is negative")
        builds = (
            lambda rows: FiniteSpace(("p", "q"), rows).dist,
            lambda rows: FiniteSpace.from_rows(["p", "q"], rows).dist,
            _validated_fractions,
        )
        for build in builds:
            try:
                got = build(((0, entry), (entry, 0)))
            except (MetricAxiomError, TypeError, ValueError, ZeroDivisionError) as exc:
                got = (type(exc), str(exc))
            assert got == expected

    def test_one_canonical_denominator(self):
        # an unreduced "p/q" builds the space its reduced value builds
        halves = FiniteSpace(("p", "q"), (("0/1", "2/4"), ("2/4", "0/1")))
        assert halves == FiniteSpace(("p", "q"), ((0, Fraction(1, 2)), (Fraction(1, 2), 0)))
        assert hash(halves) == hash(FiniteSpace.from_rows("pq", [[0, 0.5], ["1/2", 0]]))
        assert (halves.den, halves.scaled) == (2, ((0, 1), (1, 0)))
        mixed = FiniteSpace.from_rows(
            "pqr", [["0/1", "1/6", "5/6"], ["1/6", 0, "3/4"], [Fraction(5, 6), 0.75, 0]]
        )
        assert (mixed.den, mixed.scaled[0]) == (12, (0, 2, 10))
        assert mixed.distance(1, 2) == Fraction(3, 4) and mixed.dist[2][0] == Fraction(5, 6)

    def test_unit_space_distances(self):
        space = unit_space(5)
        assert space.distance(0, 3) == 1
        assert space.distance(2, 2) == 0
        assert space.distance(1, 4) == space.distance(4, 1)

    def test_point_named(self):
        space = unit_space(3)
        assert space.point_named("x2") == 1
        with pytest.raises(InvalidPointError):
            space.point_named("nope")

    def test_bad_point_rejected(self):
        space = unit_space(3)
        with pytest.raises(InvalidPointError):
            space.distance(0, 3)
        with pytest.raises(InvalidPointError):
            space.distance("x1", 0)
        # the rule of require_int: a plain int, so no bool or int subclass
        for x in (True, 1.0, -1, IntEnum("Corner", ["FAR"]).FAR):
            with pytest.raises(InvalidPointError):
                space.check_point(x)

    def test_distance_builds_each_entry_exactly_and_checks_points(self):
        for seed in range(30):
            space, _ = random_instance(seed, 12)
            dist, size = space.dist, space.size
            for x, y in product(range(size), repeat=2):
                got = space.distance(x, y)
                assert type(got) is Fraction
                assert got == dist[x][y] == Fraction(space.scaled[x][y], space.den)
                # the pair is kept now; a non-point must still be refused
                for bad in (True, 1.0, -1, size):
                    with pytest.raises(InvalidPointError):
                        space.distance(bad, y)
                    with pytest.raises(InvalidPointError):
                        space.distance(x, bad)

    def test_invalid_matrix_never_builds(self):
        with pytest.raises(TriangleViolationError):
            FiniteSpace.from_rows(["a", "b", "c"], [[0, 1, 3], [1, 0, 1], [3, 1, 0]])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(BadParamsError):
            FiniteSpace.from_rows(["a", "a"], [[0, 1], [1, 0]])

    @pytest.mark.parametrize("labels", [[["a"], ["b"]], [("a", ["b"]), "c"]],
                             ids=["lists", "tuple-holding-a-list"])
    def test_unhashable_labels_rejected(self, labels):
        # set() would raise a builtin TypeError
        with pytest.raises(BadParamsError, match="point labels must be hashable"):
            FiniteSpace(labels, ((0, 1), (1, 0)))

    def test_empty_space_rejected(self):
        with pytest.raises(BadParamsError):
            FiniteSpace((), ())
        with pytest.raises(BadParamsError):
            FiniteSpace.from_rows([], [])

    def test_labels_copied_from_the_callers_list(self):
        labels = ["p", "q"]
        space = FiniteSpace(labels, ((0, 1), (1, 0)))
        labels.append("r")  # a later edit of the list reaches no space
        assert space.labels == ("p", "q") and space.size == 2
        with pytest.raises(InvalidPointError):
            space.check_point(2)
        with pytest.raises(InvalidPointError):
            space.distance(0, 2)
        assert hash(space) == hash(FiniteSpace(("p", "q"), ((0, 1), (1, 0))))


class TestTwoPhasePoints:
    def test_first_coords(self):
        space, _ = two_phase()
        assert space.coord(space.x(1)) == -0.5
        assert space.coord(space.x(2)) == 1.25
        assert space.coord(space.x(3)) == -0.125
        assert space.coord(space.x(5)) == -0.03125

    @given(st.integers(min_value=1, max_value=400))
    def test_coords_match_exact_formula(self, n):
        space, _ = two_phase()
        assert space.coord(space.x(n)) == float(two_phase_coord(0, 1, n))

    def test_first_gap(self):
        space, _ = two_phase()
        # exact formulas give |x1 - x2| = |(a - 1/2) - (b + 1/4)| = 7/4
        expect = abs(two_phase_coord(0, 1, 1) - two_phase_coord(0, 1, 2))
        assert expect == Fraction(7, 4)
        assert space.distance(space.x(1), space.x(2)) == 1.75

    def test_zero_on_diagonal(self):
        space, _ = two_phase()
        assert space.distance(space.x(9), space.x(9)) == 0.0
        assert space.distance(space.a_point, space.a_point) == 0.0

    def test_odd_points_below_a_monotone(self):
        space, _ = two_phase()
        odd = [space.coord(space.x(n)) for n in range(1, 51, 2)]
        assert all(c < space.a for c in odd)
        assert all(odd[i] < odd[i + 1] for i in range(len(odd) - 1))

    def test_even_points_above_b_monotone(self):
        # coords collapse onto b once 2^-n drops under one ulp of b, so
        # the strict approach is asserted through the anchor distances
        space, _ = two_phase()
        even_coords = [space.coord(space.x(n)) for n in range(2, 52, 2)]
        assert all(c > space.b for c in even_coords)
        assert all(
            even_coords[i] > even_coords[i + 1] for i in range(len(even_coords) - 1)
        )

    def test_anchor_gaps_keep_shrinking_past_coord_resolution(self):
        space, _ = two_phase()
        odd_gaps = [
            space.distance(space.x(n), space.a_point) for n in range(1, 801, 2)
        ]
        even_gaps = [
            space.distance(space.x(n), space.b_point) for n in range(2, 802, 2)
        ]
        for gaps in (odd_gaps, even_gaps):
            assert all(g > 0 for g in gaps)
            assert all(gaps[i] > gaps[i + 1] for i in range(len(gaps) - 1))


class TestFourPhasePoints:
    def test_third_point(self):
        space, _ = four_phase()
        assert space.coord(space.x(3)) == float(Fraction(-1, 3))

    @given(st.integers(min_value=1, max_value=400))
    def test_coords_match_exact_formula(self, n):
        space, _ = four_phase()
        assert space.coord(space.x(n)) == float(four_phase_coord(0, 1, n))

    def test_strands_interleave(self):
        space, _ = four_phase()
        # strand seeds: a-1/2, b+1/2, a-1/3, b+1/3
        assert [space.coord(space.x(n)) for n in (1, 2, 3, 4)] == [
            -0.5,
            1.5,
            float(Fraction(-1, 3)),
            float(Fraction(4, 3)),
        ]


class TestSequenceSpaceContract:
    def test_requires_a_below_b(self):
        with pytest.raises(BadParamsError):
            SequenceSpace(SequenceFamily.TWO_PHASE, 1.0, 1.0)
        with pytest.raises(BadParamsError):
            SequenceSpace(SequenceFamily.TWO_PHASE, 2.0, -1.0)

    @pytest.mark.parametrize(
        "a, b",
        [
            (-math.inf, math.inf), (0.0, math.inf), (math.nan, 1.0), (-1e308, 1e308),
            pytest.param(0, 10**400, id="int-b-past-float-range"),
            pytest.param(10**400, 10**400 + 1, id="int-anchors-past-float-range"),
        ],
    )
    def test_requires_finite_anchors_and_gap(self, a, b):
        with pytest.raises(BadParamsError):
            SequenceSpace(SequenceFamily.TWO_PHASE, a, b)

    def test_family_given_by_its_id(self):
        # the id string names the same family as the member, not the other one
        space = SequenceSpace("example_2_3", 0.0, 1.0)
        assert space.family is SequenceFamily.TWO_PHASE
        assert space.distance(space.x(1), space.x(3)) == Fraction(3, 8)
        assert space == SequenceSpace(SequenceFamily.TWO_PHASE, 0.0, 1.0)

    def test_index_cap(self):
        space = SequenceSpace(SequenceFamily.TWO_PHASE, 0.0, 1.0, max_index=10)
        space.x(10)
        with pytest.raises(InvalidPointError):
            space.x(11)
        with pytest.raises(InvalidPointError):
            space.x(0)

    def test_foreign_point_rejected(self):
        # points are bare (role, n) pairs, so only what no space of this
        # size can hold is foreign: another type (a subclass too), a role,
        # an index
        space = SequenceSpace(SequenceFamily.TWO_PHASE, 0.0, 1.0, max_index=10)
        other = SequenceSpace(SequenceFamily.TWO_PHASE, 0.0, 1.0, max_index=20)

        class SubPoint(SeqPoint):
            pass

        foreign_points = (
            2, ("x", 2), SeqPoint("y", 2), SeqPoint("a", 1), other.x(11), SubPoint("x", 2),
            # an index that is no int, or out of range for its role
            SeqPoint("x", True), SeqPoint("x", 2.0), SeqPoint("a", 0.0), SeqPoint("x", 0),
            SeqPoint("b", 1),
        )
        shift, member = ShiftMap(space), space.x(2)
        assert ("x", 2) == member  # equal as tuples, refused all the same
        entries = (
            space.check_point,
            lambda p: space.distance(p, member),
            lambda p: space.distance(member, p),
            space.coord,
            shift.apply,
            shift.rho,
            lambda p: shift.power(p, 0),
            lambda p: shift.power(p, 3),
            lambda p: classify_limits(space, [p]),
            lambda p: classify_limits(space, [member, p]),
        )
        for foreign, entry in product(foreign_points, entries):
            with pytest.raises(InvalidPointError):
                entry(foreign)

    # Each refusal's type and text, as every entry that checks a point prints
    # it: the role is judged before the index, and the index range is the role's.
    @pytest.mark.parametrize("foreign, text", [
        (2, "2 is not a point of a sequence space"),
        (("x", 2), "('x', 2) is not a point of a sequence space"),
        (SeqPoint("y", 2), "unknown point role 'y'"),
        (SeqPoint("a", 1), "SeqPoint(a) has index 1, outside 0..0"),
        (SeqPoint("x", 11), "SeqPoint(x11) has index 11, outside 1..10"),
        (type("SubPoint", (SeqPoint,), {})("x", 2),
         "SubPoint(x2) is not a point of a sequence space"),
        (SeqPoint("x", True), "SeqPoint(xTrue) has index True, outside 1..10"),
        (SeqPoint("x", 2.0), "SeqPoint(x2.0) has index 2.0, outside 1..10"),
        (SeqPoint("a", 0.0), "SeqPoint(a) has index 0.0, outside 0..0"),
        (SeqPoint("x", 0), "SeqPoint(x0) has index 0, outside 1..10"),
        (SeqPoint("b", 1), "SeqPoint(b) has index 1, outside 0..0"),
        (SeqPoint("x", -3), "SeqPoint(x-3) has index -3, outside 1..10"),
        (SeqPoint(None, 0), "unknown point role None"),
    ])
    def test_foreign_point_refusal_messages(self, foreign, text):
        space = SequenceSpace(SequenceFamily.TWO_PHASE, 0.0, 1.0, max_index=10)
        shift, member = ShiftMap(space), space.x(2)
        entries = (
            space.check_point,
            lambda p: space.distance(p, member),
            shift.apply,
            lambda p: shift.power(p, 3),
        )
        for entry in entries:
            with pytest.raises(InvalidPointError) as info:
                entry(foreign)
            assert (type(info.value).__name__, str(info.value)) == ("InvalidPointError", text)

    def test_point_named(self):
        space, _ = two_phase()
        assert space.point_named("a") == space.a_point
        assert space.point_named("x12") == space.x(12)
        assert space.point_named("x_12") == space.x(12)
        with pytest.raises(InvalidPointError):
            space.point_named("y3")
        for name in (5, None, b"x3"):  # no name at all
            with pytest.raises(InvalidPointError, match="cannot parse point name"):
                space.point_named(name)

    def test_point_repr_name_and_hash(self):
        space, _ = two_phase()
        points = {space.a_point: "a", space.b_point: "b", space.x(3): "x3", space.x(12): "x12"}
        for p, name in points.items():
            assert p.name == name
            assert repr(p) == f"SeqPoint({name})"
        # equal points built apart hash equal, so they find one dict entry
        for p in points:
            q = SeqPoint(p.role, p.n)
            assert q == p and q is not p and hash(q) == hash(p)
            assert points[q] == p.name
        assert SeqPoint("x", 3) != SeqPoint("x", 4) and SeqPoint("a", 0) != SeqPoint("b", 0)
        # a point of no space prints its role as given, never as a member's
        assert repr(SeqPoint("y", 2)) == "SeqPoint(y2)"
        assert repr(SeqPoint(None, 0)) == "SeqPoint(None0)"

    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=300),
    )
    def test_distance_symmetric(self, n, m):
        space, _ = four_phase()
        x, y = space.x(n), space.x(m)
        assert space.distance(x, y) == space.distance(y, x)
        assert space.distance(x, y) >= 0.0

    def test_distance_symmetric_exhaustive(self):
        # (b - a) + off_x + off_y once rounded differently in the two orders
        space, _ = four_phase()
        x3, x210 = space.x(3), space.x(210)
        assert space.distance(x3, x210) == space.distance(x210, x3)
        for space, _ in (two_phase(), four_phase()):
            points = [space.x(n) for n in range(1, 301)]
            for i, x in enumerate(points):
                for y in points[i + 1:]:
                    assert space.distance(x, y) == space.distance(y, x)

    def test_distances_positive_past_float_underflow(self):
        # 2^-1075 is below the smallest float, yet still a distance
        space, _ = two_phase()
        x1075, x1077 = space.x(1075), space.x(1077)
        assert space.distance(space.a_point, x1075) == Fraction(1, 2**1075)
        assert space.distance(x1075, x1077) == Fraction(3, 2**1077)

    @pytest.mark.parametrize(
        "family, exact_coord",
        [
            (SequenceFamily.TWO_PHASE, two_phase_coord),
            (SequenceFamily.FOUR_PHASE, four_phase_coord),
        ],
    )
    @pytest.mark.parametrize("a, b", [(0, 1), (-2.5, 3.25), (0, 1e-8), (-1.3, 2.1)])
    def test_distance_matches_exact_coordinates(self, family, exact_coord, a, b):
        # every pair kind on both sides: anchor-anchor, anchor-point, one
        # base (equal and unequal k) and, on four-phase, bases 2 and 3;
        # offsets reach 2^-3004 on two-phase and 3^-751 on four-phase
        space = SequenceSpace(family, a, b)
        fa, fb = Fraction(a), Fraction(b)
        coords = {space.a_point: fa, space.b_point: fb}
        indices = [*range(1, 61), *range(1075, 1078), *range(1999, 2004), *range(2999, 3005)]
        coords.update((space.x(n), exact_coord(fa, fb, n)) for n in indices)
        for p, cp in coords.items():
            for q, cq in coords.items():
                d, expect = space.distance(p, q), abs(cp - cq)
                assert type(d) is Fraction, (p, q)
                got = d.numerator, d.denominator
                assert got == (expect.numerator, expect.denominator), (p, q)

    def test_anchor_gap_immune_to_rounding(self):
        # points this close to b are unrepresentable as absolute coords,
        # yet their mutual gaps must stay exact
        space, _ = two_phase()
        d = space.distance(space.x(100), space.x(102))
        assert d == 2.0**-100 - 2.0**-102
