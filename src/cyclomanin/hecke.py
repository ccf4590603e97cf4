"""Merel's coset sets H_m and the Hecke action on Manin symbols.

(e|T_m)(x) = sum over delta in H_m of e(x*delta), with a term counted
as 0 whenever x*delta is non-primitive mod p^n (only possible when
p | m).  No coefficient twist enters this sum: the untwisted form is
what reproduces the eigenvalue l + chi(l) on the supported-at-infinity
subspace, which the tests pin down.  The closed-form T_2/T_3 sums and
the matrix of T_m on a span of symbols are in tests/oracles.py.
"""

from functools import lru_cache

import numpy as np

from .manin import ManinTable, image_keys


@lru_cache(maxsize=None)
def merel_set(m):
    """All integer matrices (a,b;c,d) with a>b>=0, d>c>=0, ad-bc=m.

    Returned as a tuple of (a,b,c,d) tuples in lexicographic order.
    The constraints force ad >= m and a+d <= m+1, which bounds the scan.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    found = set()
    for a in range(1, m + 1):
        dmin = -(-m // a)
        for d in range(max(1, dmin), m + 2 - a):
            bc = a * d - m
            if bc == 0:
                for c in range(d):
                    found.add((a, 0, c, d))
                for b in range(a):
                    found.add((a, b, 0, d))
            else:
                for b in range(1, min(a, bc + 1)):
                    if bc % b == 0 and bc // b < d:
                        found.add((a, b, bc // b, d))
    return tuple(sorted(found))


def _term_sum(e, terms):
    # sum of e(a*x + b*y, c*x + d*y) over (a, b, c, d) in terms; a
    # non-primitive image counts 0
    out = np.zeros_like(e.values)
    for mat in terms:
        tgt = e.index[image_keys(e.points, e.pn, mat)]
        ok = tgt >= 0
        out[ok] += e.values[tgt[ok]]
    return ManinTable(e.module, out % e.p)


def hecke_apply(e, m):
    """Merel's sum for T_m on a Manin table; kills non-primitive images."""
    # (x, y) times the row-vector matrix (a b; c d) is (a*x + c*y, b*x + d*y)
    return _term_sum(e, [(a, c, b, d) for a, b, c, d in merel_set(m)])


# Each (a, b, c, d) is the term e(a*x + b*y, c*x + d*y) of (e|T_q)(x,y);
# cyclok2 builds its T_2/T_3 relation families from these same terms.
CLOSED_FORMS = {
    2: [(1, 0, 0, 2), (2, 0, 0, 1), (1, 1, 0, 2), (2, 0, 1, 1)],
    3: [(1, 0, 0, 3), (3, 0, 0, 1), (1, 1, 0, 3), (3, 0, 1, 1),
        (1, -1, 0, 3), (3, 0, 1, -1)],
}
