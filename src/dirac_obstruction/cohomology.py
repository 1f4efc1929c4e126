"""Exterior algebra with odd-degree generators, over exact rationals.

The ring modelled here is Lambda[c_1, ..., c_k] where generator c_i carries
the odd degree 2*i - 1.  This is the cohomology ring of the unitary group
U(k), which is where the obstruction products of this toolkit live.  Because
all generator degrees are odd, generators anticommute and square to zero, so
a vector-space basis is given by strictly ascending index tuples.

Every coefficient is a `fractions.Fraction`; no floating point enters this
module.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .errors import ContextMismatchError, ValidationError, _check_int

Monomial = tuple[int, ...]
Scalar = Union[int, Fraction]


@dataclass(frozen=True)
class AlgebraContext:
    """Fixes the number of generators; generator i (1-based) has degree 2*i - 1."""

    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _check_int("k", self.k, 1))

    def degree(self, index: int) -> int:
        """Degree of generator `index`; indices are 1-based."""
        return 2 * _check_int("generator index", index, 1) - 1

    def monomial_degree(self, monomial: Monomial) -> int:
        return sum(self.degree(i) for i in monomial)


def _check_monomial(monomial: Monomial, k: int) -> None:
    if len(monomial) == 0:
        raise ValidationError("degree-0 terms are not representable in this algebra")
    for i in monomial:
        if not 1 <= i <= k:
            raise ValidationError(f"generator index {i} outside 1..{k}")
    if any(a >= b for a, b in zip(monomial, monomial[1:])):
        raise ValidationError(f"monomial indices must be strictly ascending, got {monomial}")


def _merge(left: Monomial, right: Monomial) -> tuple[Monomial, int] | None:
    """Merge two ascending monomials into one, tracking the reordering sign.

    Returns (merged, sign) or None when the monomials share a generator, in
    which case the product vanishes.  Every generator has odd degree, so
    moving one past another flips the sign: the sign is the parity of the
    crossed pairs x > y with x from `left` and y from `right`.
    """
    if not set(left).isdisjoint(right):
        return None
    crossed = sum(x > y for x in left for y in right)
    return tuple(sorted(left + right)), -1 if crossed % 2 else 1


class CohomologyClass:
    """A finite rational combination of ascending generator monomials.

    Instances behave as immutable values: arithmetic returns new objects and
    never stores a zero coefficient.  Classes may be inhomogeneous (mix
    degrees); the degree-0 component is not representable by design.
    """

    __slots__ = ("context", "_terms")

    def __init__(self, context: AlgebraContext, terms: Mapping[Monomial, Scalar] | None = None):
        clean: dict[Monomial, Fraction] = {}
        for monomial, coeff in (terms or {}).items():
            mono = tuple(_check_int("generator index", i, 1) for i in monomial)
            _check_monomial(mono, context.k)
            q = Fraction(coeff)
            if q != 0:
                clean[mono] = q
        self.context = context
        self._terms = clean

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_homogeneous(self) -> bool:
        degrees = {self.context.monomial_degree(m) for m in self._terms}
        return len(degrees) <= 1

    def degree(self) -> int | None:
        """Common degree of all terms, or None for zero/inhomogeneous classes."""
        degrees = {self.context.monomial_degree(m) for m in self._terms}
        return degrees.pop() if len(degrees) == 1 else None

    def coefficient(self, monomial: Iterable[int]) -> Fraction:
        return self._terms.get(tuple(monomial), Fraction(0))

    def _require_same_context(self, other: "CohomologyClass") -> None:
        if self.context != other.context:
            raise ContextMismatchError(
                f"classes live in different algebras (k={self.context.k} vs k={other.context.k})"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CohomologyClass):
            return NotImplemented
        return self.context == other.context and self._terms == other._terms

    def __add__(self, other: "CohomologyClass") -> "CohomologyClass":
        if not isinstance(other, CohomologyClass):
            return NotImplemented
        self._require_same_context(other)
        out = dict(self._terms)
        for mono, q in other._terms.items():
            out[mono] = out.get(mono, 0) + q
        return CohomologyClass(self.context, out)

    def __neg__(self) -> "CohomologyClass":
        return CohomologyClass(self.context, {m: -q for m, q in self._terms.items()})

    def __sub__(self, other: "CohomologyClass") -> "CohomologyClass":
        if not isinstance(other, CohomologyClass):
            return NotImplemented
        return self + (-other)

    def scale(self, scalar: Scalar) -> "CohomologyClass":
        q = Fraction(scalar)
        return CohomologyClass(self.context, {m: q * c for m, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, CohomologyClass):
            return cup(self, other)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def cup(self, other: "CohomologyClass") -> "CohomologyClass":
        return cup(self, other)

    def __str__(self) -> str:
        return format_class(self)

    def __repr__(self) -> str:
        return f"CohomologyClass(k={self.context.k}, {format_class(self)})"


def zero(ctx: AlgebraContext) -> CohomologyClass:
    return CohomologyClass(ctx, {})


def generator(ctx: AlgebraContext, index: int) -> CohomologyClass:
    """Generator c_index, or the zero class when the index exceeds k."""
    index = _check_int("generator index", index, 1)
    if index > ctx.k:
        return zero(ctx)
    return CohomologyClass(ctx, {(index,): Fraction(1)})


def cup(a: CohomologyClass, b: CohomologyClass) -> CohomologyClass:
    """Product in the exterior algebra, bilinear over exact rationals.

    Monomials merge with the sign of their reordering; a shared generator
    index kills the term.
    """
    a._require_same_context(b)
    ctx = a.context
    out: dict[Monomial, Fraction] = {}
    for mono_a, coeff_a in a._terms.items():
        for mono_b, coeff_b in b._terms.items():
            merged = _merge(mono_a, mono_b)
            if merged is None:
                continue
            mono, sign = merged
            out[mono] = out.get(mono, 0) + sign * coeff_a * coeff_b
    return CohomologyClass(ctx, out)


def obstruction_product(ctx: AlgebraContext, indices: Sequence[int]) -> CohomologyClass:
    """Cup product of the listed generators, taken in ascending order.

    Indices beyond k denote zero generators, so the product vanishes exactly
    when some index exceeds k (in particular whenever more than k distinct
    indices are listed).
    """
    idx = [_check_int("generator index", i, 1) for i in indices]
    if not idx:
        raise ValidationError("need at least one generator index")
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValidationError(f"generator indices must be strictly ascending, got {idx}")
    product = generator(ctx, idx[0])
    for i in idx[1:]:
        product = cup(product, generator(ctx, i))
    return product


def character_coefficient(n: int) -> Fraction:
    """Weight of the n-th class inside the odd character expansion."""
    n = _check_int("expansion index", n, 1)
    return Fraction((-1) ** (n + 1), math.factorial(n - 1))


def odd_chern_character(chern: Sequence[CohomologyClass]) -> CohomologyClass:
    """Alternating factorial-weighted sum of the given classes.

    `chern[n-1]` is the class of index n; the result is
    sum_n (-1)**(n+1) / (n-1)! * chern[n-1] with exact rational weights.
    """
    if not chern:
        raise ValidationError("need at least one input class")
    ctx = chern[0].context
    total = zero(ctx)
    for n, cls in enumerate(chern, start=1):
        if cls.context != ctx:
            raise ContextMismatchError("all input classes must share one algebra context")
        total = total + cls.scale(character_coefficient(n))
    return total


_TERM_RE = re.compile(r"^(-?\d+(?:/\d+)?)\s*\*\s*(c\d+(?:\^c\d+)*)$")


def format_class(cls: CohomologyClass) -> str:
    """Canonical text form: terms sorted by (degree, indices), e.g. `1 * c1^c2`."""
    if cls.is_zero():
        return "0"
    ctx = cls.context
    keys = sorted(cls._terms, key=lambda m: (ctx.monomial_degree(m), m))
    parts = []
    for mono in keys:
        body = "^".join(f"c{i}" for i in mono)
        parts.append(f"{cls._terms[mono]} * {body}")
    return " + ".join(parts)


def parse_class(text: str, ctx: AlgebraContext) -> CohomologyClass:
    """Parse the canonical text form produced by `format_class`."""
    s = text.strip()
    if s == "0":
        return zero(ctx)
    terms: dict[Monomial, Fraction] = {}
    for raw in s.split("+"):
        part = raw.strip()
        m = _TERM_RE.match(part)
        if m is None:
            raise ValidationError(f"cannot parse class term {part!r}")
        coeff = Fraction(m.group(1))
        mono = tuple(int(tok[1:]) for tok in m.group(2).split("^"))
        _check_monomial(mono, ctx.k)
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return CohomologyClass(ctx, terms)
