"""Manin symbols for Gamma_0(p^n) with nebentype coefficients.

A symbol is a table of values on the primitive row vectors X_n mod p^n
subject to the three Manin relations

    (1)  e(lam*x) = chi(lam) e(x)      for units lam,
    (2)  e(x,y) + e(y,-x) = 0,
    (3)  e(x,y) + e(y,-x-y) + e(-x-y,x) = 0.

Coefficients live in a finite-dimensional F_p module M; the nebentype
chi acts through explicit matrices, so everything reduces to exact
linear algebra mod p.

Relation (1) is certified in one pass over X_n, not one per unit.  Let G
generate (Z/p^n)^x (exactlin.primitive_root) and A = chi(G).  If
(a) e(Gx) = A e(x) at every point x and (b) chi(G^k) = A^k for
0 <= k < phi(p^n), induction on k gives e(G^k x) = A e(G^(k-1) x) =
A^k e(x) = chi(G^k) e(x), and every unit is some G^k.  Check (a) is one
permutation of X_n and one product; (b) multiplies dim x dim matrices.
Only a table that fails the certificate is scanned unit by unit, which
names the first offending (x, y, lam), or finds none when chi is not
multiplicative but (1) still holds, as on the zero table.

The small coefficient modules (trivial, power character, group algebra),
the dense relation space and the boundary-symbol basis that the tests
build symbols from are reference code in tests/oracles.py.
"""

import math
from functools import lru_cache

import numpy as np

from .exactlin import as_fp, matmul_mod, primitive_root, unit_group


@lru_cache(maxsize=None)
def enumerate_X(p, n):
    """Primitive pairs (x,y) mod p^n in lexicographic order.

    Returns (points, index): points is an (N,2) array; index maps
    x*p^n + y to the row of (x,y), with -1 at non-primitive slots.
    Cached per (p, n), so both arrays are read-only.
    """
    pn = p**n
    xs, ys = np.divmod(np.arange(pn * pn), pn)
    keep = (xs % p != 0) | (ys % p != 0)
    points = np.stack([xs[keep], ys[keep]], axis=1).astype(np.int64)
    index = np.full(pn * pn, -1, dtype=np.int64)
    index[points[:, 0] * pn + points[:, 1]] = np.arange(len(points))
    points.flags.writeable = index.flags.writeable = False
    return points, index


class CoeffModule:
    """Finite-dimensional F_p module with a unit-group (nebentype) action.

    The action is given by matrices G(lam) on coordinate columns with
    G(lam*mu) = G(lam) @ G(mu); relation (1) reads
    values[lam*x] = G(lam) @ values[x].
    """

    def __init__(self, p, n, dim, act, name):
        self.p = p
        self.n = n
        self.pn = p**n
        self.dim = dim
        self.name = name
        self._act = act
        self._cache = {}

    def act(self, lam):
        lam = int(lam) % self.pn
        if math.gcd(lam, self.p) != 1:
            raise ValueError(f"{lam} is not a unit mod {self.pn}")
        got = self._cache.get(lam)
        if got is None:
            got = as_fp(self._act(lam), self.p).reshape(self.dim, self.dim)
            got.flags.writeable = False       # every later act(lam) returns it
            self._cache[lam] = got
        return got

    def __repr__(self):
        return f"CoeffModule({self.name}, p={self.p}, n={self.n}, dim={self.dim})"


def image_keys(points, pn, mat):
    """Grid keys u*pn + v of (u, v) = (a*x + b*y, c*x + d*y) mod pn, for
    the rows (x, y) of points and mat = (a, b, c, d)."""
    a, b, c, d = mat
    xs, ys = points[:, 0], points[:, 1]
    return (a * xs + b * ys) % pn * pn + (c * xs + d * ys) % pn


def _perm(points, index, pn, mat):
    # row permutation of X induced by (x, y) -> image under mat mod pn
    tgt = index[image_keys(points, pn, mat)]
    if (tgt < 0).any():
        raise ValueError(f"{mat} does not permute the primitive pairs mod {pn}")
    return tgt


class ManinTable:
    """Values of a map X_n -> M."""

    def __init__(self, module, values):
        self.module = module
        self.p = module.p
        self.n = module.n
        self.pn = module.pn
        self.points, self.index = enumerate_X(self.p, self.n)
        self.values = as_fp(values, self.p).reshape(len(self.points), module.dim)

    def _units_certified(self):
        # checks (a) and (b) of the module docstring; True proves relation (1)
        p, pn, act = self.p, self.pn, self.module.act
        g = primitive_root(p, self.n)
        a = act(g)
        image = self.values[_perm(self.points, self.index, pn, (g, 0, 0, g))]
        if (image != matmul_mod(a, self.values.T, p).T).any():
            return False
        lam, power, order = 1, np.eye(self.module.dim, dtype=np.int64), 0
        while True:
            if not np.array_equal(act(lam), power):
                return False
            lam, power, order = lam * g % pn, matmul_mod(power, a, p), order + 1
            if lam == 1:   # G^order = 1: G generates iff order = phi(p^n)
                return order == pn - pn // p

    def relation_checks(self):
        """Map relation name -> None (holds) or the first offending point.

        Relation (1) holds when the certificate of the module docstring
        does: e(Gx) = A e(x) at every x and chi(G^k) = A^k for every k give
        e(G^k x) = chi(G^k) e(x) by induction on k.  Only a failed
        certificate runs the scan of one pass per unit lam, whose first
        failing (x, y, lam), or None, is the answer.
        """
        p, pn = self.p, self.pn
        pts, idx, vals = self.points, self.index, self.values
        out = {}
        bad = None
        for lam in [] if self._units_certified() else unit_group(pn):
            perm1 = _perm(pts, idx, pn, (lam, 0, 0, lam))
            acted = matmul_mod(self.module.act(lam), vals.T, p).T
            miss = np.nonzero(((vals[perm1] - acted) % p).any(axis=1))[0]
            if len(miss):
                bad = (int(pts[miss[0]][0]), int(pts[miss[0]][1]), int(lam))
                break
        out["unit-diagonal"] = bad
        perm2 = _perm(pts, idx, pn, (0, 1, -1, 0))
        miss = np.nonzero(((vals + vals[perm2]) % p).any(axis=1))[0]
        out["two-term"] = tuple(map(int, pts[miss[0]])) if len(miss) else None
        g1 = _perm(pts, idx, pn, (0, 1, -1, -1))
        g2 = _perm(pts, idx, pn, (-1, -1, 1, 0))
        miss = np.nonzero(((vals + vals[g1] + vals[g2]) % p).any(axis=1))[0]
        out["three-term"] = tuple(map(int, pts[miss[0]])) if len(miss) else None
        return out

    def validate(self):
        """Check relations (1)-(3) at every point; raise on the first failure."""
        for name, bad in self.relation_checks().items():
            if bad is not None:
                raise ValueError(f"{name} relation fails at {bad}")
        return self


def is_supported_at_infty(e):
    """True iff e vanishes at every (x,y) with x*y != 0 in Z/p^n."""
    off_axis = (e.points[:, 0] * e.points[:, 1]) % e.pn != 0
    return not e.values[off_axis].any()
