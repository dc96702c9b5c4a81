"""Exact arithmetic in the coefficient rings.

Three rings are provided, all exact, with decidable equality:

* ``LocalizedInt``: the subring Z[1/p] of Q, stored as an arbitrary
  precision numerator plus the exponent of a p-power denominator.  The
  value is kept normalized (the numerator is not divisible by p unless
  the exponent is 0), so the units are recognizable structurally: they
  are exactly +/- p^k.
* ``CycloRing`` / ``CycloElem``: the quotient Z[1/p][X]/(Phi_M), where
  Phi_M is the M-th cyclotomic polynomial, on the power basis
  1, zeta, ..., zeta^(phi(M)-1).  Internally an element is one integer
  vector with a single shared denominator exponent; the modulus is
  monic, so reduction never divides.
* ``ModRing`` / ``ModElem``: the finite rings Z/m.

The power-basis kernel, each loop once: ``_convolve`` (schoolbook product;
``CycloElem.__mul__``, ``IntPolynomial.__mul__``), ``CycloRing.zeta_sum``
(sum of zeta^e, reduced once; ``zeta``, ``chargauss.gauss_sum`` and
``_gauss_sum_lower``, ``groupalgebra._rows_are_orthogonal``), ``_substitute``
(zeta^i -> zeta^(i k); ``galois_conjugate``, ``lift_conductor``) and
``_adjugate_norm`` (product of the nontrivial conjugates, and the norm;
``norm``, ``inverse``, ``matrix._vec_adjugate_norm``).

Values are immutable after construction and hashable; every operation
returns a new value, so they are safe to share across threads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence


class NotAUnitError(ValueError):
    """Raised when inverting an element that is not a unit."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def euler_phi(n: int) -> int:
    """Euler totient, by factorization."""
    if n < 1:
        raise ValueError("euler_phi requires n >= 1")
    result = n
    m = n
    f = 2
    while f * f <= m:
        if m % f == 0:
            result -= result // f
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        result -= result // m
    return result


def _strip_p(n: int, p: int) -> tuple[int, int]:
    """Write |n| = n0 * p^k with p not dividing n0; returns (n0, k)."""
    if n == 0:
        return 0, 0
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return n, k


class LocalizedInt:
    """An element of Z[1/p]: numerator / p^denom_exp."""

    __slots__ = ("numerator", "denom_exp", "prime")

    def __init__(self, numerator: int, denom_exp: int = 0, prime: int = 2):
        if denom_exp < 0:
            numerator *= prime ** (-denom_exp)
            denom_exp = 0
        if numerator == 0:
            denom_exp = 0
        else:
            while denom_exp > 0 and numerator % prime == 0:
                numerator //= prime
                denom_exp -= 1
        self.numerator = numerator
        self.denom_exp = denom_exp
        self.prime = prime

    def _coerce(self, other) -> "LocalizedInt | None":
        if isinstance(other, LocalizedInt):
            if other.prime != self.prime:
                raise ValueError("mixed inverted primes")
            return other
        if isinstance(other, int):
            return LocalizedInt(other, 0, self.prime)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.prime
        e = max(self.denom_exp, o.denom_exp)
        num = self.numerator * p ** (e - self.denom_exp) + o.numerator * p ** (e - o.denom_exp)
        return LocalizedInt(num, e, p)

    __radd__ = __add__

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
        return LocalizedInt(self.numerator * o.numerator, self.denom_exp + o.denom_exp, self.prime)

    __rmul__ = __mul__

    def __neg__(self):
        return LocalizedInt(-self.numerator, self.denom_exp, self.prime)

    def __bool__(self):
        return self.numerator != 0

    def __eq__(self, other):
        if isinstance(other, (LocalizedInt, int)):
            o = self._coerce(other)
            return (self.numerator, self.denom_exp) == (o.numerator, o.denom_exp)
        return NotImplemented

    def __hash__(self):
        if self.denom_exp == 0:
            return hash(self.numerator)
        return hash((self.numerator, self.denom_exp, self.prime))

    def is_unit(self) -> bool:
        """True iff the value is +/- p^k for some integer k."""
        if self.numerator == 0:
            return False
        n0, _ = _strip_p(abs(self.numerator), self.prime)
        return n0 == 1

    def inverse(self) -> "LocalizedInt":
        if not self.is_unit():
            raise NotAUnitError(f"{self} is not a unit of Z[1/{self.prime}]")
        sign = 1 if self.numerator > 0 else -1
        _, k = _strip_p(abs(self.numerator), self.prime)
        t = k - self.denom_exp
        return LocalizedInt(sign, t, self.prime)

    def exact_div(self, other) -> "LocalizedInt":
        """Exact quotient in Z[1/p]; raises ValueError if not divisible."""
        o = self._coerce(other)
        if o is None or o.numerator == 0:
            raise ValueError("division by zero or incompatible value")
        sign = 1 if o.numerator > 0 else -1
        b0, j = _strip_p(abs(o.numerator), self.prime)
        if self.numerator % b0 != 0:
            raise ValueError(f"{self} is not divisible by {o} in Z[1/{self.prime}]")
        num = sign * (self.numerator // b0)
        return LocalizedInt(num, self.denom_exp + j - o.denom_exp, self.prime)

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.prime ** self.denom_exp)

    def __str__(self):
        if self.denom_exp == 0:
            return str(self.numerator)
        return f"{self.numerator}/{self.prime}^{self.denom_exp}"

    def __repr__(self):
        return f"LocalizedInt({self})"


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Schoolbook product of two coefficient lists, lowest degree first, skipping zeros."""
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                if d:
                    out[i + j] += c * d
    return out


class IntPolynomial:
    """Integer polynomial, coefficients lowest degree first, trailing zeros stripped."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        lst = list(coeffs)
        while lst and lst[-1] == 0:
            lst.pop()
        self.coeffs = tuple(lst)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if isinstance(other, IntPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __sub__(self, other):
        return self + IntPolynomial([-c for c in other.coeffs])

    def __mul__(self, other):
        return IntPolynomial(_convolve(self.coeffs, other.coeffs))

    def divmod_monic(self, other: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Division with remainder by a monic divisor; exact over Z."""
        if other.is_zero() or other.coeffs[-1] != 1:
            raise ValueError("divisor must be monic")
        db = other.degree
        rem = list(self.coeffs)
        if len(rem) <= db:
            return IntPolynomial([]), IntPolynomial(rem)
        quot = [0] * (len(rem) - db)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c:
                quot[i - db] = c
                for j, bj in enumerate(other.coeffs):
                    rem[i - db + j] -= c * bj
        return IntPolynomial(quot), IntPolynomial(rem[:db])

    def evaluate(self, x: int, mod: int | None = None):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
            if mod is not None:
                acc %= mod
        return acc

    def pretty(self, var: str = "X") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c))
                power = var if k == 1 else f"{var}^{k}"
                body = mag + power
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"IntPolynomial({self.pretty()})"


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial, by exact division of X^n - 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    quotient = IntPolynomial([-1] + [0] * (n - 1) + [1])
    for d in divisors(n)[:-1]:
        quotient, rem = quotient.divmod_monic(cyclotomic_polynomial(d))
        if not rem.is_zero():
            raise ArithmeticError("cyclotomic division left a remainder")
    return quotient


class CycloRing:
    """The ring Z[1/p][X]/(Phi_M): conductor M, inverted prime p."""

    __slots__ = ("conductor", "prime", "modulus", "degree", "_mod_tail", "_zeta_cache",
                 "_zero", "_one")

    def __init__(self, conductor: int, prime: int):
        if conductor < 1:
            raise ValueError("conductor must be >= 1")
        if not _is_prime(prime):
            raise ValueError(f"{prime} is not prime")
        self.conductor = conductor
        self.prime = prime
        poly = cyclotomic_polynomial(conductor)
        self.modulus = poly.coeffs
        self.degree = poly.degree
        # nonzero non-leading modulus coefficients, for division-free reduction
        self._mod_tail = tuple((j, c) for j, c in enumerate(self.modulus[:-1]) if c)
        self._zeta_cache: dict[int, CycloElem] = {}
        self._zero = CycloElem(self, (0,) * self.degree, 0)
        self._one = CycloElem(self, (1,) + (0,) * (self.degree - 1), 0)

    def __eq__(self, other):
        if isinstance(other, CycloRing):
            return (self.conductor, self.prime) == (other.conductor, other.prime)
        return NotImplemented

    def __hash__(self):
        return hash((self.conductor, self.prime))

    def __repr__(self):
        return f"CycloRing(conductor={self.conductor}, prime={self.prime})"

    @property
    def zero(self) -> "CycloElem":
        return self._zero

    @property
    def one(self) -> "CycloElem":
        return self._one

    def reduce_vector(self, vec: list[int]) -> list[int]:
        """Reduce an exponent-coefficient vector modulo Phi_M, in place.

        The modulus is monic, so only integer multiply/subtract is used.
        Returns a list of length exactly ``degree``.
        """
        deg = self.degree
        tail = self._mod_tail
        for i in range(len(vec) - 1, deg - 1, -1):
            c = vec[i]
            if c:
                vec[i] = 0
                base = i - deg
                for j, mj in tail:
                    vec[base + j] -= mj * c
        if len(vec) < deg:
            vec.extend([0] * (deg - len(vec)))
        return vec[:deg]

    def from_int(self, n: int) -> "CycloElem":
        return CycloElem(self, (n,) + (0,) * (self.degree - 1), 0)

    def scalar(self, value: LocalizedInt) -> "CycloElem":
        if value.prime != self.prime:
            raise ValueError("mixed inverted primes")
        return CycloElem(self, (value.numerator,) + (0,) * (self.degree - 1), value.denom_exp)

    def element(self, coeffs: Sequence[int | LocalizedInt]) -> "CycloElem":
        """Build an element from power-basis coefficients (ints or LocalizedInt)."""
        if len(coeffs) != self.degree:
            raise ValueError(f"expected {self.degree} coefficients, got {len(coeffs)}")
        exps = []
        for c in coeffs:
            if isinstance(c, LocalizedInt):
                if c.prime != self.prime:
                    raise ValueError("mixed inverted primes")
                exps.append(c.denom_exp)
            else:
                exps.append(0)
        shared = max(exps, default=0)
        nums = []
        for c, e in zip(coeffs, exps):
            n = c.numerator if isinstance(c, LocalizedInt) else c
            nums.append(n * self.prime ** (shared - e))
        return CycloElem(self, nums, shared)

    def zeta(self, u: int) -> "CycloElem":
        """The class of X^(u mod M): the u-th power of the chosen root of unity."""
        u %= self.conductor
        cached = self._zeta_cache.get(u)
        if cached is None:
            cached = self._zeta_cache[u] = self.zeta_sum((u,))
        return cached

    def zeta_sum(self, exponents: Iterable[int]) -> "CycloElem":
        """Sum of zeta^e over the exponents, repeats included: counted mod M, reduced once."""
        M = self.conductor
        counts = [0] * M
        for e in exponents:
            counts[e % M] += 1
        return CycloElem(self, self.reduce_vector(counts), 0)


@lru_cache(maxsize=None)
def get_ring(conductor: int, prime: int) -> CycloRing:
    """Interned CycloRing instances (equality is structural either way)."""
    return CycloRing(conductor, prime)


class CycloElem:
    """Element of a CycloRing: (sum of nums[i] * zeta^i) / p^exp."""

    __slots__ = ("ring", "nums", "exp")

    def __init__(self, ring: CycloRing, nums: Sequence[int], exp: int):
        p = ring.prime
        nums = list(nums)
        if len(nums) != ring.degree:
            raise ValueError("coefficient vector has the wrong length")
        if any(nums):
            while exp > 0 and all(c % p == 0 for c in nums):
                nums = [c // p for c in nums]
                exp -= 1
        else:
            exp = 0
        self.ring = ring
        self.nums = tuple(nums)
        self.exp = exp

    # -- views ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[LocalizedInt, ...]:
        """Power-basis coefficients as LocalizedInt values."""
        p = self.ring.prime
        return tuple(LocalizedInt(n, self.exp, p) for n in self.nums)

    def coeff_strings(self) -> list[str]:
        """str of each coefficient in ``coeffs``; integral values skip the LocalizedInt."""
        if self.exp == 0:
            return list(map(str, self.nums))
        return [str(c) for c in self.coeffs]

    def is_scalar(self) -> bool:
        return not any(self.nums[1:])

    def as_scalar(self) -> LocalizedInt:
        if not self.is_scalar():
            raise ValueError(f"{self!r} is not a scalar")
        return LocalizedInt(self.nums[0], self.exp, self.ring.prime)

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other) -> "CycloElem | None":
        if isinstance(other, CycloElem):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("elements from different rings")
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        if isinstance(other, LocalizedInt):
            return self.ring.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.ring.prime
        e = max(self.exp, o.exp)
        sa = p ** (e - self.exp)
        sb = p ** (e - o.exp)
        return CycloElem(self.ring, [a * sa + b * sb for a, b in zip(self.nums, o.nums)], e)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return CycloElem(self.ring, [-c for c in self.nums], self.exp)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = _convolve(self.nums, o.nums)
        return CycloElem(self.ring, self.ring.reduce_vector(out), self.exp + o.exp)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers: use inverse() explicitly")
        acc = self.ring.one
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def __bool__(self):
        return any(self.nums)

    def __eq__(self, other):
        if isinstance(other, CycloElem):
            return ((self.ring is other.ring or self.ring == other.ring)
                    and self.nums == other.nums and self.exp == other.exp)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring.conductor, self.ring.prime, self.nums, self.exp))

    def __str__(self):
        return "[" + ", ".join(self.coeff_strings()) + "]"

    def __repr__(self):
        return f"CycloElem(M={self.ring.conductor}, {self})"


# -- ring operations on cyclotomic elements ----------------------------


def _substitute(x: CycloElem, k: int, target: CycloRing) -> CycloElem:
    """x with each zeta^i sent to zeta^(i k) of the target ring, reduced once."""
    M = target.conductor
    vec = [0] * M
    for i, c in enumerate(x.nums):
        if c:
            vec[i * k % M] += c
    return CycloElem(target, target.reduce_vector(vec), x.exp)


def lift_conductor(x: CycloElem, conductor: int) -> CycloElem:
    """Embed x into the ring of a larger conductor (old must divide new)."""
    old = x.ring.conductor
    if conductor % old != 0:
        raise ValueError(f"{old} does not divide {conductor}")
    return _substitute(x, conductor // old, get_ring(conductor, x.ring.prime))


def galois_conjugate(x: CycloElem, t: int) -> CycloElem:
    """The ring automorphism determined by zeta -> zeta^t (t coprime to M)."""
    M = x.ring.conductor
    t %= M
    if math.gcd(t, M) != 1:
        raise ValueError(f"{t} is not coprime to the conductor {M}")
    return _substitute(x, t, x.ring)


def _adjugate_norm(x: CycloElem) -> tuple[CycloElem, LocalizedInt]:
    """The product of the nontrivial Galois conjugates of x, then N(x): phi(M) - 1 products."""
    M = x.ring.conductor
    conjugates = [galois_conjugate(x, t) for t in range(2, M) if math.gcd(t, M) == 1]
    if not conjugates:  # phi(M) = 1: x is its own norm
        return x.ring.one, x.as_scalar()
    adj = math.prod(conjugates[1:], start=conjugates[0])
    full = adj * x
    if any(full.nums[1:]):
        raise ArithmeticError("norm left the scalar subring; arithmetic bug")
    return adj, full.as_scalar()


def norm(x: CycloElem) -> LocalizedInt:
    """Product of all Galois conjugates; lands in Z[1/p] (checked)."""
    return _adjugate_norm(x)[1]


def is_unit(x: CycloElem) -> bool:
    """True iff x is invertible, i.e. its norm is +/- p^k."""
    if x.is_scalar():
        return x.as_scalar().is_unit()
    return norm(x).is_unit()


def inverse(x: CycloElem) -> CycloElem:
    """Inverse of a unit, via the product of the other conjugates over the norm."""
    adj, n = _adjugate_norm(x)
    if not n.is_unit():
        raise NotAUnitError(f"element with norm {n} is not a unit")
    return adj * n.inverse()


# -- finite rings Z/m ---------------------------------------------------


class ModRing:
    """The finite ring Z/m."""

    __slots__ = ("modulus",)

    def __init__(self, modulus: int):
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        self.modulus = modulus

    def __eq__(self, other):
        if isinstance(other, ModRing):
            return self.modulus == other.modulus
        return NotImplemented

    def __hash__(self):
        return hash(("mod", self.modulus))

    def __repr__(self):
        return f"ModRing({self.modulus})"

    @property
    def zero(self) -> "ModElem":
        return ModElem(self, 0)

    @property
    def one(self) -> "ModElem":
        return ModElem(self, 1)

    def element(self, value: int) -> "ModElem":
        return ModElem(self, value)

    from_int = element


class ModElem:
    """A residue in Z/m."""

    __slots__ = ("ring", "value")

    def __init__(self, ring: ModRing, value: int):
        self.ring = ring
        self.value = value % ring.modulus

    def _coerce(self, other):
        if isinstance(other, ModElem):
            if other.ring != self.ring:
                raise ValueError("elements from different rings")
            return other
        if isinstance(other, int):
            return ModElem(self.ring, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ModElem(self.ring, self.value + o.value)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ModElem(self.ring, self.value - o.value)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ModElem(self.ring, self.value * o.value)

    __rmul__ = __mul__

    def __neg__(self):
        return ModElem(self.ring, -self.value)

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, ModElem):
            return self.ring == other.ring and self.value == other.value
        if isinstance(other, int):
            # only the canonical residue, so that hash(value) agrees with int equality
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def is_unit(self) -> bool:
        return math.gcd(self.value, self.ring.modulus) == 1

    def inverse(self) -> "ModElem":
        if not self.is_unit():
            raise NotAUnitError(f"{self.value} is not a unit mod {self.ring.modulus}")
        return ModElem(self.ring, pow(self.value, -1, self.ring.modulus))

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"ModElem({self.value} mod {self.ring.modulus})"
