"""Sparse multivariate polynomials over exact fields, with positive weight gradings.

Monomials are plain exponent tuples. A PolyRing fixes variable names, weights
and a coefficient field (QQ or GF(p)); its monomials are ordered by weighted
grevlex, the one order, as every result here is a graded invariant. A
GradedRing adds homogeneous relations to present a quotient. All values are
immutable by convention and all operations are pure.

Coefficients are plain values: Fraction or int over QQ, int over GF(p).
Arithmetic on them is plain +, - and *, and the field shows only where a
value is normalised: in its coerce, in its inv, and in the Poly
constructor, which over GF(p) reduces every coefficient mod p. Zero
coefficients are dropped there too, so a Poly is zero exactly when its
value is.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, le, mul, neg

from .arith import format_terms
from .errors import AlgebraError, HomogeneityError

# ---------------------------------------------------------------------------
# monomials


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_divides(a, b):
    """True if a | b, i.e. a <= b componentwise."""
    return all(map(le, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def mono_is_one(m):
    return not any(m)


def wdeg(m, ring) -> int:
    """Weighted degree of a monomial with respect to a ring (or weight tuple)."""
    weights = ring if isinstance(ring, tuple) else ring.weights
    if len(m) != len(weights):
        raise ValueError(
            f"monomial has {len(m)} exponents but the ring has {len(weights)} variables"
        )
    return sum(map(mul, m, weights))


# ---------------------------------------------------------------------------
# coefficient fields


class RationalField:
    """Exact rational coefficients (fractions.Fraction)."""

    __slots__ = ()
    p = 0  # characteristic
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into QQ")

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("gradedchi-QQ")


QQ = RationalField()


# Miller-Rabin with the first twelve primes as bases is exact below this
# bound (Sorenson and Webster, Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError at or above _MR_BOUND."""
    if n >= _MR_BOUND:
        raise ValueError(f"cannot certify {n} as prime: the test is exact only below {_MR_BOUND}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The prime field GF(p); its elements are ints in [0, p)."""

    __slots__ = ("p",)
    zero = 0
    one = 1

    def __init__(self, p: int):
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"{p!r} is not a prime")
        self.p = p

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            return x.numerator * self.inv(x.denominator) % self.p
        raise TypeError(f"cannot coerce {x!r} into GF({self.p})")

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("gradedchi-GF", self.p))


def field_from_name(name: str):
    """Parse a field spec: "qq", or "fp:P" for GF(P)."""
    s = name.strip().lower()
    if s == "qq":
        return QQ
    if s.startswith("fp:"):
        try:
            p = int(s[3:])
        except ValueError:
            raise ValueError(f"bad prime in field spec {name!r}") from None
        return PrimeField(p)
    raise ValueError(f"unknown field {name!r} (expected qq or fp:P)")


# ---------------------------------------------------------------------------
# rings and polynomials


class PolyRing:
    """An ambient weighted polynomial ring k[x_1, ..., x_s], ordered by weighted grevlex."""

    __slots__ = ("names", "weights", "field")

    def __init__(self, names, weights=None, field=QQ):
        names = tuple(names)
        if not names:
            raise ValueError("a ring needs at least one variable")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        if weights is None:
            weights = (1,) * len(names)
        weights = tuple(weights)
        if len(weights) != len(names):
            raise ValueError("one weight per variable required")
        for w in weights:
            if not isinstance(w, int) or w <= 0:
                raise ValueError(f"weight {w!r} must be a positive integer")
        self.names = names
        self.weights = weights
        self.field = field

    @property
    def nvars(self) -> int:
        return len(self.names)

    def wdeg(self, m) -> int:
        return wdeg(m, self.weights)

    def key(self, m):
        """The one monomial order's sort key; bigger key = bigger monomial.
        Weighted degree comes first, so m | m' and m != m' implies m < m',
        which makes leading-term Hilbert series valid."""
        return (sum(map(mul, m, self.weights)), tuple(map(neg, m[::-1])))

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return Poly(self, {(0,) * self.nvars: self.field.one})

    def gen(self, i: int) -> "Poly":
        e = [0] * self.nvars
        e[i] = 1
        return Poly(self, {tuple(e): self.field.one})

    def gens(self) -> tuple["Poly", ...]:
        return tuple(self.gen(i) for i in range(self.nvars))

    def monomial(self, exps, coeff=1) -> "Poly":
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise ValueError("wrong number of exponents")
        return Poly(self, {exps: self.field.coerce(coeff)})

    def constant(self, c) -> "Poly":
        return self.monomial((0,) * self.nvars, c)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and other.names == self.names
            and other.weights == self.weights
            and other.field == self.field
        )

    def __hash__(self):
        return hash((self.names, self.weights, self.field))

    def __repr__(self):
        vs = ", ".join(f"{n}:{w}" for n, w in zip(self.names, self.weights))
        return f"PolyRing({vs}; {self.field!r})"


def standard_step(below, leads) -> list:
    """The standard monomials of one positive degree, ascending in the one
    order, from those of the degrees below: below[k] is a dict keyed by the
    standard monomials one step of x_k lower, in ascending order, and leads
    contains every leading monomial of this degree. A monomial is standard
    when it is no lead and each of its one-variable divisors is standard (a
    lead dividing it properly divides one of those). Each candidate is made
    once, from its divisor by its last nonzero variable k. PolyRing.key
    compares -m[n-1], ..., -m[0] within a degree, so the monomials in x_0 ..
    x_k end below[k], and the candidates of k, descending, lie above those
    of k + 1: the walk runs descending and is reversed at the end."""
    found = []
    for k, lower in enumerate(below):
        for d in reversed(lower):
            if any(d[k + 1 :]):
                break
            m = d[:k] + (d[k] + 1,) + d[k + 1 :]
            if m in leads:
                continue
            for i in range(k):  # the divisor m / x_k is d
                if m[i] and m[:i] + (m[i] - 1,) + m[i + 1 :] not in below[i]:
                    break
            else:
                found.append(m)
    found.reverse()
    return found


class Poly:
    """A sparse polynomial: a map from exponent tuples to nonzero coefficients.

    Immutable by convention, and a plain value: it keeps nothing derived
    from its terms. Division state lives with the GroebnerBasis that owns it.
    The constructor is where coefficients are normalised: over GF(p) each
    is reduced mod p (a Fraction by the field's coerce), and zeros are
    dropped, so the arithmetic below sums and multiplies plain values and
    hands the result to it.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        p = ring.field.p
        if p:
            coerce = ring.field.coerce
            self.terms = {
                m: r for m, c in terms.items() if (r := c % p if type(c) is int else coerce(c))
            }
        else:
            self.terms = {m: c for m, c in terms.items() if c}

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("polynomials belong to different rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.constant(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in o.terms.items():
            out[m] = out[m] + c if m in out else c
        return Poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                m = mono_mul(m1, m2)
                out[m] = out[m] + c1 * c2 if m in out else c1 * c2
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        o = self._coerce(other) if isinstance(other, (Poly, int, Fraction)) else None
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash((self.ring, self.canonical_key()))

    def canonical_key(self):
        """A hashable canonical form (sorted term tuple)."""
        return tuple(sorted(self.terms.items()))

    def coeff(self, m):
        return self.terms.get(tuple(m), self.ring.field.zero)

    def sorted_terms(self, reverse: bool = True):
        """Terms ordered by the ring's monomial order (descending by default)."""
        key = self.ring.key
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=reverse)

    def leading_monomial(self):
        if not self.terms:
            raise AlgebraError("zero polynomial has no leading term")
        return max(self.terms, key=self.ring.key)

    def homogeneous_degree(self):
        """The common weighted degree of all terms.

        Returns "any" for the zero polynomial (homogeneous of every degree)
        and None when the polynomial is not homogeneous.
        """
        if not self.terms:
            return "any"
        degs = {self.ring.wdeg(m) for m in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_homogeneous(self) -> bool:
        return self.homogeneous_degree() is not None

    def __str__(self):
        names = self.ring.names
        return format_terms(
            (c, "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e))
            for m, c in self.sorted_terms()
        )

    def __repr__(self):
        return f"<Poly {self}>"


def ideal_key(gens):
    """Canonical key of a generating set: its generators' canonical forms, sorted."""
    return tuple(sorted(g.canonical_key() for g in gens))


def _check_members(ambient: PolyRing, gens) -> None:
    for g in gens:
        if not isinstance(g, Poly) or (g.ring is not ambient and g.ring != ambient):
            raise ValueError("generator does not live in the ambient ring")


def homogeneous_gens(ring: "GradedRing", gens) -> tuple:
    """The nonzero generators among gens; raises ValueError on one that is
    not a polynomial of ring's ambient ring, and HomogeneityError on one
    that is not homogeneous."""
    gens = tuple(gens)
    _check_members(ring.ambient, gens)
    out = tuple(g for g in gens if not g.is_zero)
    for g in out:
        if not g.is_homogeneous():
            raise HomogeneityError(f"generator {g} is not homogeneous")
    return out


class GradedRing:
    """A graded quotient R = S/(relations), presented over an ambient PolyRing.

    Relations must be homogeneous of positive weighted degree, so R_0 is the
    ground field. Everything derived from the ring (Groebner bases, graded
    piece bases, resolutions, Tor tables) is memoised in its one memo, keyed
    by a namespaced tuple, and freed with the ring.
    """

    __slots__ = ("ambient", "relations", "_memo")

    def __init__(self, ambient: PolyRing, relations=()):
        rels = []
        for r in relations:
            if not isinstance(r, Poly) or (r.ring is not ambient and r.ring != ambient):
                raise ValueError("relation does not live in the ambient ring")
            if r.is_zero:
                continue
            d = r.homogeneous_degree()
            if d is None:
                raise HomogeneityError(f"relation {r} is not homogeneous")
            if d == 0:
                raise AlgebraError(f"relation {r} has degree 0; R_0 must be the ground field")
            rels.append(r)
        self.ambient = ambient
        self.relations = tuple(rels)
        self._memo: dict = {}

    @property
    def names(self):
        return self.ambient.names

    @property
    def weights(self):
        return self.ambient.weights

    @property
    def field(self):
        return self.ambient.field

    @property
    def nvars(self):
        return self.ambient.nvars

    def cached(self, key, compute):
        """The memoised value under key, from compute() on first use."""
        memo = self._memo
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    def groebner(self, gens=()):
        """Groebner basis of (relations + gens), memoised: minimal reducers
        and their leads."""
        from .groebner import buchberger

        gens = tuple(gens)
        _check_members(self.ambient, gens)
        return self.cached(("groebner", ideal_key(gens)), lambda: buchberger(gens, self))

    def canonical_key(self):
        return (self.ambient, tuple(sorted(r.canonical_key() for r in self.relations)))

    def __eq__(self, other):
        return isinstance(other, GradedRing) and other.canonical_key() == self.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        rel = ", ".join(str(r) for r in self.relations) or "0"
        return f"GradedRing({self.ambient!r} / ({rel}))"
