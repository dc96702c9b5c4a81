"""Dense fraction-free Bareiss over Z[zeta_M]: the test oracle of ``matrix._det_modular``.

Entries are integer coefficient vectors on the power basis, denominators
cleared.  Multiplying by x is the phi x phi integer matrix ``_mult_rows(x)``
whose column j is x * zeta^j, and dividing by the previous pivot is
multiplying by its adjugate and dividing exactly by its integer norm, both
from ``exactring._adjugate_norm`` (the product of the nontrivial Galois
conjugates, which ``norm`` and ``inverse`` share).  It shares no code with
the split-prime kernel it checks.
"""

from operator import mul

from cyclofourier.exactring import CycloElem, CycloRing, _adjugate_norm


def _mult_rows(x: list[int], ring: CycloRing) -> list[tuple[int, ...]]:
    """Rows of the integer matrix of multiplication by x mod Phi_M.

    Column j is x * zeta^j: the previous column shifted up one power, with
    the overflow coefficient folded back through the monic modulus tail.
    """
    tail = ring._mod_tail
    col = list(x)
    cols = [col]
    for _ in range(ring.degree - 1):
        c = col[-1]
        col = [0] + col[:-1]
        if c:
            for j, mj in tail:
                col[j] -= mj * c
        cols.append(col)
    return list(zip(*cols))


def _vec_mul(a: list[int], b: list[int], ring: CycloRing) -> list[int]:
    return [sum(map(mul, row, b)) for row in _mult_rows(a, ring)]


def _vec_adjugate_norm(vec: list[int], ring: CycloRing) -> tuple[list[int], int]:
    """Product of the nontrivial conjugates of vec, and the integer norm."""
    adj, n = _adjugate_norm(CycloElem(ring, vec, 0))
    return list(adj.nums), n.nums[0]


def bareiss_vec(m: list[list[list[int]]], ring: CycloRing) -> list[int]:
    """The determinant's coefficient vector; m, a square matrix of vectors, is overwritten."""
    n = len(m)
    sign = 1
    prev_adj = [1] + [0] * (ring.degree - 1)
    prev_n0 = 1
    for k in range(n - 1):
        if not any(m[k][k]):
            for r in range(k + 1, n):
                if any(m[r][k]):
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return [0] * ring.degree
        pk = m[k][k]
        rowk = m[k]
        # (pk * a_ij - m_ik * a_kj) * adj / n0, with adj * prev pivot = n0 in Z
        top = _mult_rows(_vec_mul(prev_adj, pk, ring), ring)
        for i in range(k + 1, n):
            rowi = m[i]
            low = _mult_rows(_vec_mul(prev_adj, [-c for c in rowi[k]], ring), ring)
            both = [t + u for t, u in zip(top, low)]
            for j in range(k + 1, n):
                vec = [sum(map(mul, row, rowi[j] + rowk[j])) for row in both]
                if prev_n0 != 1:  # c % n0 and c // n0 for each c, mapped in C
                    if any(map(prev_n0.__rmod__, vec)):
                        raise ArithmeticError("Bareiss division was not exact")
                    vec = list(map(prev_n0.__rfloordiv__, vec))
                rowi[j] = vec
            rowi[k] = [0] * ring.degree
        prev_adj, prev_n0 = _vec_adjugate_norm(pk, ring)
        if prev_n0 == 0:
            raise ArithmeticError("zero pivot slipped through")
    last = m[n - 1][n - 1]
    return [-c for c in last] if sign < 0 else list(last)
