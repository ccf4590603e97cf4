"""Manin symbols for Gamma_0(p^n) with nebentype coefficients.

A symbol is a table of values on the primitive row vectors X_n mod p^n
subject to the three Manin relations

    (1)  e(lam*x) = chi(lam) e(x)      for units lam,
    (2)  e(x,y) + e(y,-x) = 0,
    (3)  e(x,y) + e(y,-x-y) + e(-x-y,x) = 0.

Coefficients live in a finite-dimensional F_p module M; the nebentype
chi acts through explicit matrices, so everything reduces to exact
linear algebra mod p.

Relation (1) is certified without a pass per unit.  With h the generator
of exactlin.unit_logs and A = chi(h), (a) e(hx) = A e(x) at every point
x and (b) chi(h^k) = A^k for 0 <= k < phi(p^n) give e(h^k x) = chi(h^k)
e(x) by induction on k, and every unit is some h^k.  Both read x[next] =
x @ A^T: (a) over the values, next the permutation of X_n by h; (b) over
the module's table of every chi(h^k)^T, next one unit on, with chi(1) =
I.  Each takes one product per _SLICE_CELLS entries, never copying the
phi(p^n) dim^2 table.  Only a failing table is scanned unit by unit, to
name the first offending (x, y, lam), or none when chi is not
multiplicative but (1) holds, as on the zero table.

The small coefficient modules (trivial, power character, group algebra),
the dense relation space and the boundary-symbol basis that the tests
build symbols from are reference code in tests/oracles.py.
"""

from functools import lru_cache

import numpy as np

from .exactlin import as_fp, matmul_mod, unit_group, unit_logs

_SLICE_CELLS = 2**17   # entries of x @ A^T per certificate slice: small beside the table


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

    table[e] = chi(h^e)^T mod p, so relation (1) reads values[h^e x] =
    values[x] @ table[e], h and log_h from exactlin.unit_logs; act(lam) =
    chi(lam) is a view of table[log_h(lam)].
    """

    def __init__(self, p, n, table, name):
        self.p = p
        self.n = n
        self.pn = p**n
        self.table = np.ascontiguousarray(table, dtype=np.int64)
        self.table.flags.writeable = False
        self.dim = self.table.shape[1]
        self.name = name

    def act(self, lam):
        lam = int(lam) % self.pn
        if lam % self.p == 0:
            raise ValueError(f"{lam} is not a unit mod {self.pn}")
        return self.table[unit_logs(self.p, self.n)[1][lam]].T

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
        table, dim, p = self.module.table, self.module.dim, self.p
        h = int(unit_logs(p, self.n)[0][1])
        flat = table.reshape(len(table) * dim, dim)    # a view: row k dim + r is table[k][r]
        checks = ((self.values, _perm(self.points, self.index, self.pn, (h, 0, 0, h))),
                  (flat, np.arange(dim, len(flat))))
        rows = max(1, _SLICE_CELLS // max(1, dim))
        return np.array_equal(table[0], np.eye(dim)) and all(
            np.array_equal(x[nxt[s:s + rows]], matmul_mod(x[s:len(nxt)][:rows], table[1], p))
            for x, nxt in checks for s in range(0, len(nxt), rows))

    def relation_checks(self):
        """Map relation name -> None (holds) or the first offending point.

        Relation (1) holds if the module docstring's certificate does; else
        the scan of one pass per unit lam gives its first failing (x, y, lam) or None.
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
