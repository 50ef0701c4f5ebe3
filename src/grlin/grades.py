"""Preordered-semiring kernel: the four shipped grade semirings.

Grades are elements of one of four preordered semirings, identified by tag:

* ``nat-exact``    -- naturals with equality as the preorder (exact usage)
* ``nat-le``       -- naturals ordered by <= (upper bounds on usage)
* ``interval``     -- extended-natural intervals lo..hi (lower and upper bounds)
* ``zero-one-many``-- the three-point affine-ish semiring {0, 1, w}

The enumeration is closed by design: every operation dispatches on the tag,
so adding a semiring (say, a security lattice) means extending each
operation here and the literal syntax in the parser. Runtime-registered
semirings are out of scope.

All operations are pure. A grade is a ``NamedTuple``, so it is immutable,
and its ``==`` and ``hash`` are those of the tuple of its semiring and
value: grades are compared and hashed often, as parts of the keys of
interned types and of the derivation memo.
"""

from __future__ import annotations

from typing import NamedTuple

INF = float("inf")

NAT_EXACT = "nat-exact"
NAT_LE = "nat-le"
INTERVAL = "interval"
ZERO_ONE_MANY = "zero-one-many"

SEMIRINGS = (NAT_EXACT, NAT_LE, INTERVAL, ZERO_ONE_MANY)

# zero-one-many carrier, encoded as small ints so + and * can saturate.
ZOM_ZERO, ZOM_ONE, ZOM_MANY = 0, 1, 2


class GradeError(Exception):
    """Base class for grade-level failures."""


class MixedSemiringError(GradeError):
    def __init__(self, a: "Grade", b: "Grade"):
        super().__init__(f"mixed semirings: {a.semiring} vs {b.semiring}")
        self.left = a
        self.right = b


class GradeSyntaxError(GradeError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.message = message
        self.offset = offset


class Grade(NamedTuple):
    """A semiring element tagged with its semiring.

    ``value`` is an int for the two natural-number semirings, a
    ``(lo, hi)`` pair (hi possibly ``INF``) for intervals, and one of
    ``ZOM_ZERO``/``ZOM_ONE``/``ZOM_MANY`` for zero-one-many.
    """

    semiring: str
    value: object

    def __str__(self) -> str:
        return show_grade(self)


def grade_nat(n: int, semiring: str = NAT_EXACT) -> Grade:
    if semiring not in (NAT_EXACT, NAT_LE):
        raise GradeError(f"not a natural-number semiring: {semiring}")
    if n < 0:
        raise GradeError("grades are naturals")
    return Grade(semiring, n)


def grade_interval(lo, hi) -> Grade:
    if lo > hi:
        raise GradeError(f"interval bounds out of order: {lo}..{hi}")
    return Grade(INTERVAL, (lo, hi))


def grade_zom(v: int) -> Grade:
    if v not in (ZOM_ZERO, ZOM_ONE, ZOM_MANY):
        raise GradeError(f"not a zero-one-many element: {v}")
    return Grade(ZERO_ONE_MANY, v)


def zero(semiring: str) -> Grade:
    if semiring == INTERVAL:
        return grade_interval(0, 0)
    if semiring == ZERO_ONE_MANY:
        return grade_zom(ZOM_ZERO)
    return grade_nat(0, semiring)


def one(semiring: str) -> Grade:
    if semiring == INTERVAL:
        return grade_interval(1, 1)
    if semiring == ZERO_ONE_MANY:
        return grade_zom(ZOM_ONE)
    return grade_nat(1, semiring)


def _require_same(a: Grade, b: Grade) -> None:
    if a.semiring != b.semiring:
        raise MixedSemiringError(a, b)


def _ext_mul(x, y):
    # 0 annihilates, including 0 * INF = 0.
    if x == 0 or y == 0:
        return 0
    return x * y


def sr_add(a: Grade, b: Grade) -> Grade:
    """Semiring addition (context addition on shared graded assumptions)."""
    _require_same(a, b)
    sr = a.semiring
    if sr == INTERVAL:
        (lo1, hi1), (lo2, hi2) = a.value, b.value
        return grade_interval(lo1 + lo2, hi1 + hi2)
    if sr == ZERO_ONE_MANY:
        return grade_zom(min(a.value + b.value, ZOM_MANY))
    return grade_nat(a.value + b.value, sr)


def sr_mul(a: Grade, b: Grade) -> Grade:
    """Semiring multiplication (the scaling introduced by promotion)."""
    _require_same(a, b)
    sr = a.semiring
    if sr == INTERVAL:
        (lo1, hi1), (lo2, hi2) = a.value, b.value
        return grade_interval(_ext_mul(lo1, lo2), _ext_mul(hi1, hi2))
    if sr == ZERO_ONE_MANY:
        if a.value == ZOM_ZERO or b.value == ZOM_ZERO:
            return grade_zom(ZOM_ZERO)
        return grade_zom(min(a.value * b.value, ZOM_MANY))
    return grade_nat(a.value * b.value, sr)


def sr_leq(a: Grade, b: Grade) -> bool:
    """Approximation order: ``a`` may be used wherever ``b`` is declared."""
    _require_same(a, b)
    sr = a.semiring
    if sr == NAT_EXACT:
        return a.value == b.value
    if sr == NAT_LE:
        return a.value <= b.value
    if sr == INTERVAL:
        (lo1, hi1), (lo2, hi2) = a.value, b.value
        return lo2 <= lo1 and hi1 <= hi2
    # zero-one-many: reflexive, plus 0 and 1 below many
    return a.value == b.value or b.value == ZOM_MANY


def sr_meet(a: Grade, b: Grade) -> Grade | None:
    """Partial greatest-lower bound under the approximation order.

    Returns None when no GLB exists (the caller turns this into a
    MeetUndefined diagnostic carrying both grades).
    """
    _require_same(a, b)
    sr = a.semiring
    if sr == NAT_EXACT:
        return a if a.value == b.value else None
    if sr == NAT_LE:
        return grade_nat(min(a.value, b.value), sr)
    if sr == INTERVAL:
        (lo1, hi1), (lo2, hi2) = a.value, b.value
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        return grade_interval(lo, hi) if lo <= hi else None
    if a.value == b.value:
        return a
    if a.value == ZOM_MANY:
        return b
    if b.value == ZOM_MANY:
        return a
    return None  # 0 vs 1 have no common lower bound


def sr_lub(a: Grade, b: Grade) -> Grade | None:
    """Partial least-upper bound; used when merging case-branch usages."""
    _require_same(a, b)
    sr = a.semiring
    if sr == NAT_EXACT:
        return a if a.value == b.value else None
    if sr == NAT_LE:
        return grade_nat(max(a.value, b.value), sr)
    if sr == INTERVAL:
        (lo1, hi1), (lo2, hi2) = a.value, b.value
        return grade_interval(min(lo1, lo2), max(hi1, hi2))
    return a if a.value == b.value else grade_zom(ZOM_MANY)


def _show_bound(x) -> str:
    return "Inf" if x == INF else str(x)


def show_grade(g: Grade) -> str:
    if g.semiring == INTERVAL:
        lo, hi = g.value
        return f"{_show_bound(lo)}..{_show_bound(hi)}"
    if g.semiring == ZERO_ONE_MANY:
        return {ZOM_ZERO: "0", ZOM_ONE: "1", ZOM_MANY: "w"}[g.value]
    return str(g.value)


def parse_grade(text: str, semiring: str) -> Grade:
    """Parse a grade literal in the given semiring.

    Syntax: decimal naturals for nat-exact/nat-le; ``L..H`` (with ``Inf``)
    for intervals; ``0``, ``1`` or ``w`` for zero-one-many.
    """
    s = text.strip()
    if semiring not in SEMIRINGS:
        raise GradeError(f"unknown semiring: {semiring}")
    if semiring in (NAT_EXACT, NAT_LE):
        return grade_nat(_natural(s, "expected a natural number, got", text), semiring)
    if semiring == ZERO_ONE_MANY:
        table = {"0": ZOM_ZERO, "1": ZOM_ONE, "w": ZOM_MANY}
        if s not in table:
            raise GradeSyntaxError(f"expected 0, 1 or w, got {s!r}", text.find(s))
        return grade_zom(table[s])
    # interval
    if ".." not in s:
        raise GradeSyntaxError(f"expected L..H interval, got {s!r}", text.find(s))
    lo_text, hi_text = s.split("..", 1)
    at = text.find(s)
    lo = _parse_bound(lo_text, text, at)
    hi = _parse_bound(hi_text, text, at + len(lo_text) + 2)
    if lo > hi:
        raise GradeSyntaxError(f"interval bounds out of order in {s!r}", text.find(s))
    return grade_interval(lo, hi)


def _parse_bound(part: str, whole: str, start: int):
    """The bound that ``part``, found at ``start`` in ``whole``, spells."""
    part = part.strip()
    if part == "Inf":
        return INF
    return _natural(part, "bad interval bound", whole, start)


def _natural(s: str, what: str, whole: str, start: int = 0) -> int:
    """The value of a string of decimal digits, found in ``whole`` from
    ``start`` on. Anything else raises a GradeSyntaxError at that place (an
    empty string is missing at ``start``), which starts with ``what`` unless
    the digits are too many to convert."""
    if not s.isdecimal():
        raise GradeSyntaxError(f"{what} {s!r}", whole.find(s, start))
    try:
        return int(s)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise GradeSyntaxError(f"number too long ({len(s)} digits)",
                               whole.find(s, start)) from None
