"""Merel's coset sets H_m and the Hecke action on Manin symbols.

(e|T_m)(x) = sum over delta in H_m of e(x*delta), with a term counted
as 0 whenever x*delta is non-primitive mod p^n (only possible when
p | m).  No coefficient twist enters this sum: the untwisted form is
what reproduces the eigenvalue l + chi(l) on the supported-at-infinity
subspace, which the tests pin down.
"""

from functools import lru_cache

import numpy as np

from .exactlin import coords_in_rowspace, inv_mod_matrix, matmul_mod, rref_mod
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


def hecke_closed_form(e, q):
    """The short T_2/T_3 formulas:

    (e|T_2)(x,y) = e(x,2y) + e(2x,y) + e(x+y,2y) + e(2x,x+y)
    (e|T_3)(x,y) = e(x,3y) + e(3x,y) + e(x+y,3y) + e(3x,x+y)
                   + e(x-y,3y) + e(3x,x-y)

    Terms with a non-primitive argument count 0 (never happens for
    q != p since the maps are invertible mod p^n).  Agrees with
    hecke_apply on every validated symbol.
    """
    if q not in CLOSED_FORMS:
        raise ValueError("closed forms exist for q in {2, 3} only")
    return _term_sum(e, CLOSED_FORMS[q])


def hecke_matrix(tables, m):
    """Matrix of T_m on the span of the given validated tables.

    Row i holds the coordinates of T_m(tables[i]) over the tables,
    solved exactly; raises if the span is not T_m-stable.
    """
    p = tables[0].p
    basis = np.stack([t.values.ravel() for t in tables])
    rref, piv = rref_mod(basis, p)
    if len(piv) != len(tables):
        raise ValueError("tables must be linearly independent")
    base_coeff, ok = coords_in_rowspace(rref, piv, basis, p)
    if not ok.all():
        raise RuntimeError("tables must lie in their own row space")
    # change of basis: basis = base_coeff @ rref
    images = np.stack([hecke_apply(t, m).values.ravel() for t in tables])
    img_coeff, ok = coords_in_rowspace(rref, piv, images, p)
    if not ok.all():
        raise ValueError(f"span is not stable under T_{m}")
    # solve X @ base_coeff = img_coeff over F_p
    return matmul_mod(img_coeff, inv_mod_matrix(base_coeff, p), p)
