"""Exact arithmetic in the coefficient rings.

Two rings are provided, both exact, with decidable equality:

* ``CycloRing`` / ``CycloElem``: the quotient Z[1/p][X]/(Phi_M), where
  Phi_M is the M-th cyclotomic polynomial, on the power basis
  1, zeta, ..., zeta^(phi(M)-1).  Internally an element is one integer
  vector with a single shared denominator exponent; the modulus is
  monic, so reduction never divides.  Conductor 1 is Z[1/p] itself
  (``get_ring(1, p)``): norms and scalars land there, and its units are
  exactly +/- p^k.
* ``ModRing``: the finite rings Z/m, whose elements are plain ints, the
  residues 0..m-1.

The power-basis kernel, each loop once: ``_convolve`` (schoolbook product;
``CycloElem.__mul__``, ``IntPolynomial.__mul__``), ``CycloRing.zeta_supports``
(the nonzero power-basis terms of each zeta^u, u < M, reduced once per ring;
``zeta_sum``, ``groupalgebra._kernel_columns_match``,
``matrix._coefficient_bound``), ``CycloRing.zeta_sum`` (sum of zeta^e: each
exponent's cached support added into one length-phi accumulator, with no
reduction; ``zeta``, ``chargauss.gauss_sum`` and ``_gauss_sum_lower``),
``_substitute`` (zeta^i -> zeta^(i k); ``galois_conjugate``,
``lift_conductor``) and ``_adjugate_norm`` (product of the nontrivial
conjugates, and the norm; ``norm``, ``inverse``, and the dense Bareiss test
oracle in ``tests/bareiss_oracle.py``).

``_adjugate_norm`` takes O(log phi(M)) products, not phi(M) - 1, by walking
a chain of subgroups 1 = H_0 < H_1 < ... < H_m = (Z/M)^x (``_coset_chain``).
Write s_h for the conjugation zeta -> zeta^h.  Suppose y = prod_(h in H)
s_h(x) and adj = y / x, the product over the nontrivial h in H.  Take t
outside H and k >= 2 least with t^k in H.  Then the cosets t^i H, 0 <= i < k,
are distinct and make up H<t>, so prod_(h in H<t>) s_h(x) = prod_(i < k)
s_(t^i)(y), since s_a s_b = s_(ab).  Write P_j = prod_(i < j) s_(t^i)(y).  It
obeys P_(2a) = P_a s_(t^a)(P_a) and P_(a+1) = P_a s_(t^a)(y), so P_(k-1)
takes at most 2 log2(k) products by binary doubling, and q = s_t(P_(k-1)) =
prod_(1 <= i < k) s_(t^i)(y) is the product over the new cosets.  Then y q
and adj q are the two products for H<t>.  When H_m is reached, y = N(x),
which is checked to be a scalar, and adj x = y.  Each step's t is a unit
of largest k, so a cyclic unit group takes one step: about 10 products in
place of 53 at M = 162.

Values are hashable and immutable by convention only: no operation assigns
a field after construction, but nothing refuses it (``elem.nums = ...``
succeeds).  Every operation returns a new value, so values that nobody
assigns to are safe to share across threads.  ``IntPolynomial`` and
``ModRing`` take eq and hash from their ``_fields`` (``report._Value``).
``CycloRing`` and ``CycloElem`` keep their own: each runs thousands of
times per sweep, and ``CycloElem`` compares its rings by ``is`` first.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from functools import lru_cache

from .report import _Value


class NotAUnitError(ValueError):
    """Raised when inverting an element that is not a unit."""


# Miller-Rabin to the first 13 prime bases is a proof of primality below
# 3,317,044,064,679,887,385,961,981, the smallest strong pseudoprime to all of
# them (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86 (2017)).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_PROOF_BOUND = 3_317_044_064_679_887_385_961_981


def _probable_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2..41: a proof below _PRIME_PROOF_BOUND."""
    if n < 2:
        return False
    for b in _MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_prime(n: int) -> bool:
    """Proven primality; ValueError from _PRIME_PROOF_BOUND on, where no proof is made."""
    if n >= _PRIME_PROOF_BOUND:
        raise ValueError(f"primality is proven only below {_PRIME_PROOF_BOUND}")
    return _probable_prime(n)


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


def units_mod(N: int) -> list[int]:
    """The residues 1 <= t < N coprime to N, in order; [1] for N = 1."""
    return [t for t in range(1, N + 1) if math.gcd(t, N) == 1] if N > 1 else [1]


def _strip_p(n: int, p: int) -> tuple[int, int]:
    """Write n = n0 * p^k with p not dividing n0; returns (n0, k), and (0, 0) for n = 0."""
    if n == 0:
        return 0, 0
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return n, k


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Schoolbook product of two coefficient lists, lowest degree first, skipping zeros."""
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                if d:
                    out[i + j] += c * d
    return out


class IntPolynomial(_Value):
    """Integer polynomial, coefficients lowest degree first, trailing zeros stripped."""

    __slots__ = _fields = ("coeffs",)

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

    def evaluate(self, x: int, mod: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % mod
        return acc

    def pretty(self) -> str:
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
                power = "X" if k == 1 else f"X^{k}"
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

    __slots__ = ("conductor", "prime", "modulus", "degree", "_mod_tail", "_supports",
                 "_zeta_cache", "zero", "one")

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
        self._supports: tuple[tuple[tuple[int, int], ...], ...] | None = None
        self._zeta_cache: dict[int, CycloElem] = {}
        self.zero = CycloElem(self, (0,) * self.degree, 0)
        self.one = CycloElem(self, (1,) + (0,) * (self.degree - 1), 0)

    def __eq__(self, other):
        if isinstance(other, CycloRing):
            return (self.conductor, self.prime) == (other.conductor, other.prime)
        return NotImplemented

    def __hash__(self):
        return hash((self.conductor, self.prime))

    def __repr__(self):
        return f"CycloRing(conductor={self.conductor}, prime={self.prime})"

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

    def element(self, coeffs: Sequence["int | CycloElem"]) -> "CycloElem":
        """Build an element from power-basis coefficients: ints, or values of Z[1/p].

        A value of Z[1/p] is an element of ``get_ring(1, p)`` for this ring's
        prime; anything else is a ValueError.
        """
        if len(coeffs) != self.degree:
            raise ValueError(f"expected {self.degree} coefficients, got {len(coeffs)}")
        fractions = []  # (numerator, denominator exponent) per coefficient
        for c in coeffs:
            if isinstance(c, int):
                fractions.append((c, 0))
            elif (isinstance(c, CycloElem) and c.ring.conductor == 1
                  and c.ring.prime == self.prime):
                fractions.append((c.nums[0], c.exp))
            else:
                raise ValueError(f"{c!r} is not a value of Z[1/{self.prime}]")
        shared = max((e for _, e in fractions), default=0)
        return CycloElem(self, [n * self.prime ** (shared - e) for n, e in fractions], shared)

    def zeta_supports(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """supports[u] = ((k, c), ...): the nonzero power-basis terms of zeta^u, u < M.

        Built once per ring, each by reducing the monomial X^u.
        """
        if self._supports is None:
            M = self.conductor
            supports = []
            for u in range(M):
                vec = [0] * M
                vec[u] = 1
                supports.append(tuple((k, c) for k, c in enumerate(self.reduce_vector(vec)) if c))
            self._supports = tuple(supports)
        return self._supports

    def zeta(self, u: int) -> "CycloElem":
        """The class of X^(u mod M): the u-th power of the chosen root of unity."""
        u %= self.conductor
        cached = self._zeta_cache.get(u)
        if cached is None:
            cached = self._zeta_cache[u] = self.zeta_sum((u,))
        return cached

    def zeta_sum(self, exponents: Iterable[int]) -> "CycloElem":
        """Sum of zeta^e over the exponents, repeats included: each support added in place."""
        M = self.conductor
        supports = self.zeta_supports()
        acc = [0] * self.degree
        for e in exponents:
            for k, c in supports[e % M]:
                acc[k] += c
        return CycloElem(self, acc, 0)


@lru_cache(maxsize=None)
def get_ring(conductor: int, prime: int) -> CycloRing:
    """Interned CycloRing instances (equality is structural either way)."""
    return CycloRing(conductor, prime)


class _IntStrings(dict):
    """str(n) by n: stored for |n| <= _SHARED_INT_BOUND, made afresh and not kept otherwise."""

    __slots__ = ()

    def __missing__(self, n: int) -> str:
        return str(n)


# Gauss sums have small coefficients (at most 162 in absolute value for
# every p^r up to 3^5 and 2^7), so a report of thousands of them holds one
# string per distinct value rather than one per coefficient.
# sys.intern is not used: on some CPython versions interned strings are
# immortal and would outlive the report.
_SHARED_INT_BOUND = 256
_INT_STRINGS = _IntStrings((n, str(n)) for n in range(-_SHARED_INT_BOUND, _SHARED_INT_BOUND + 1))


class CycloElem:
    """Element of a CycloRing: (sum of nums[i] * zeta^i) / p^exp."""

    __slots__ = ("ring", "nums", "exp")

    def __init__(self, ring: CycloRing, nums: Sequence[int], exp: int):
        p = ring.prime
        nums = list(nums)
        if len(nums) != ring.degree:
            raise ValueError("coefficient vector has the wrong length")
        if not any(nums):
            exp = 0
        elif exp > 0:
            k = min(exp, _strip_p(math.gcd(*nums), p)[1])
            if k:
                q = p ** k
                nums = [c // q for c in nums]
                exp -= k
        elif exp < 0:
            nums = [c * p ** -exp for c in nums]
            exp = 0
        self.ring = ring
        self.nums = tuple(nums)
        self.exp = exp

    # -- views ---------------------------------------------------------

    def coeff_strings(self) -> list[str]:
        """A new list of str of each coefficient, in lowest terms: "n" or "n/p^e".

        An integral element takes a small coefficient's string from
        ``_INT_STRINGS``, so equal small coefficients share one string object
        across every list handed out.
        """
        if self.exp == 0:
            return list(map(_INT_STRINGS.__getitem__, self.nums))
        p, e = self.ring.prime, self.exp
        q = p ** e
        strings = []
        for n in self.nums:
            n0, k = _strip_p(n, p)  # 0 gives k = 0 and the string "0"
            strings.append(f"{n0}/{p}^{e - k}" if n and k < e else str(n // q))
        return strings

    def is_scalar(self) -> bool:
        return not any(self.nums[1:])

    def as_scalar(self) -> "CycloElem":
        """The scalar as a value of Z[1/p], the ring ``get_ring(1, p)``."""
        if not self.is_scalar():
            raise ValueError(f"{self!r} is not a scalar")
        return CycloElem(get_ring(1, self.ring.prime), self.nums[:1], self.exp)

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other) -> "CycloElem | None":
        if isinstance(other, CycloElem):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("elements from different rings")
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
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


@lru_cache(maxsize=None)
def _coset_chain(M: int) -> tuple[tuple[int, int], ...]:
    """(t, k) steps whose subgroups 1 = H_0 < H_1 < ... exhaust the units mod M.

    H_(i+1) = H_i <t> for the i-th step (t, k), and t^k is the first power of
    t in H_i.  Each t is one of largest k, so a cyclic group takes one step.
    """
    covered = {1 % M}
    units = units_mod(M)[1:]
    chain = []
    while len(covered) <= len(units):
        best_k, best_t = 0, 0
        for t in units:
            k, tk = 1, t
            while tk not in covered:
                tk = tk * t % M
                k += 1
            if k > best_k:
                best_k, best_t = k, t
        chain.append((best_t, best_k))
        powers = [pow(best_t, i, M) for i in range(best_k)]
        covered = {h * ti % M for h in covered for ti in powers}
    return tuple(chain)


def _adjugate_norm(x: CycloElem) -> tuple[CycloElem, CycloElem]:
    """The product of the nontrivial Galois conjugates of x, then N(x), over a chain of cosets.

    With y the product of the conjugates over the subgroup H covered so far,
    each step (t, k) of ``_coset_chain`` builds P = prod_(i < k-1) s_(t^i)(y)
    by doubling and multiplies adj and y by q = s_t(P), which covers H <t>.
    """
    ring = x.ring
    M = ring.conductor
    adj, y = ring.one, x
    for t, k in _coset_chain(M):
        # P_j = prod_(i < j) s_(t^i)(y): P_2a = P_a s_(t^a)(P_a), P_(a+1) = P_a s_(t^a)(y)
        P, a = y, 1
        for bit in bin(k - 1)[3:]:
            P = P * _substitute(P, pow(t, a, M), ring)
            a *= 2
            if bit == "1":
                P = P * _substitute(y, pow(t, a, M), ring)
                a += 1
        q = _substitute(P, t, ring)
        adj, y = adj * q, y * q
    if any(y.nums[1:]):
        raise ArithmeticError("norm left the scalar subring; arithmetic bug")
    return adj, y.as_scalar()


def norm(x: CycloElem) -> CycloElem:
    """Product of all Galois conjugates; lands in Z[1/p], the ring get_ring(1, p) (checked)."""
    return _adjugate_norm(x)[1]


def _unit_exponent(n: int, p: int) -> int | None:
    """k when n = +/- p^k, else None: the numerator test of the units +/- p^k of Z[1/p]."""
    n0, k = _strip_p(abs(n), p)
    return k if n0 == 1 else None


def is_unit(x: CycloElem) -> bool:
    """True iff x is invertible, i.e. its norm is +/- p^k."""
    scalar = x if x.is_scalar() else norm(x)
    return _unit_exponent(scalar.nums[0], x.ring.prime) is not None


def inverse(x: CycloElem) -> CycloElem:
    """Inverse of a unit: the product of the other conjugates times 1/N(x) = +/- p^(e - k)."""
    adj, n = _adjugate_norm(x)
    num, p = n.nums[0], x.ring.prime
    k = _unit_exponent(num, p)
    if k is None:
        raise NotAUnitError(f"element with norm {n} is not a unit")
    t = n.exp - k  # N(x) = +/- p^k / p^e
    sign = 1 if num > 0 else -1
    return CycloElem(x.ring, [sign * c * p ** max(t, 0) for c in adj.nums], adj.exp + max(-t, 0))


# -- finite rings Z/m ---------------------------------------------------


class ModRing(_Value):
    """The finite ring Z/m; its elements are the ints 0..m-1."""

    __slots__ = _fields = ("modulus",)
    zero = 0
    one = 1

    def __init__(self, modulus: int):
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        self.modulus = modulus

    def __repr__(self):
        return f"ModRing({self.modulus})"

    def element(self, value: int) -> int:
        return value % self.modulus
