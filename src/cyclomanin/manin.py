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
"""

import math
from functools import lru_cache

import numpy as np

from .exactlin import as_fp, kernel_mod, matmul_mod, primitive_root, unit_group


@lru_cache(maxsize=None)
def enumerate_X(p, n):
    """Primitive pairs (x,y) mod p^n in lexicographic order.

    Returns (points, index): points is an (N,2) array; index maps
    x*p^n + y to the row of (x,y), with -1 at non-primitive slots.
    """
    pn = p**n
    xs, ys = np.divmod(np.arange(pn * pn), pn)
    keep = (xs % p != 0) | (ys % p != 0)
    points = np.stack([xs[keep], ys[keep]], axis=1).astype(np.int64)
    index = np.full(pn * pn, -1, dtype=np.int64)
    index[points[:, 0] * pn + points[:, 1]] = np.arange(len(points))
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
            self._cache[lam] = got
        return got

    def __repr__(self):
        return f"CoeffModule({self.name}, p={self.p}, n={self.n}, dim={self.dim})"


def trivial_coeffs(p, n=1):
    return CoeffModule(p, n, 1, lambda lam: np.array([[1]]), "trivial")


def power_character_coeffs(p, n, j):
    """One-dimensional module where lam acts by lam^j mod p.

    These are exactly the F_p^x-valued nebentypes: every such character
    factors through (Z/p)^x since F_p^x has no p-torsion.
    """
    jj = j % (p - 1)
    return CoeffModule(p, n, 1, lambda lam: np.array([[pow(lam % p, jj, p)]]),
                       f"omega^{jj}")


def group_algebra_coeffs(p, n=1):
    """The group algebra F_p[(Z/p^n)^x] with sigma_lam permuting the basis.

    This realizes the Artin nebentype: chi(lam) = sigma_lam acting by
    multiplication on the group algebra.
    """
    pn = p**n
    units = [int(u) for u in unit_group(pn)]
    pos = {u: i for i, u in enumerate(units)}
    dim = len(units)

    def act(lam):
        g = np.zeros((dim, dim), dtype=np.int64)
        for u in units:
            g[pos[lam * u % pn], pos[u]] = 1
        return g

    return CoeffModule(p, n, dim, act, "group-algebra")


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
        values = as_fp(values, self.p).reshape(len(self.points), module.dim)
        self.values = values

    def value(self, x, y):
        i = self.index[(int(x) % self.pn) * self.pn + (int(y) % self.pn)]
        if i < 0:
            raise KeyError(f"({x},{y}) is not primitive mod {self.pn}")
        return self.values[i]

    def __add__(self, other):
        if self.module is not other.module:
            raise ValueError("tables over different coefficient modules")
        return ManinTable(self.module, (self.values + other.values) % self.p)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return ManinTable(self.module, self.values * (int(c) % self.p) % self.p)

    def __eq__(self, other):
        return (self.module.p, self.module.n, self.module.dim) == \
               (other.module.p, other.module.n, other.module.dim) and \
               np.array_equal(self.values, other.values)

    def is_zero(self):
        return not self.values.any()

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


def manin_relation_space(module):
    """Matrix whose kernel is the space of M-valued Manin symbols.

    Unknowns are the stacked coefficient vectors over enumerate_X order
    (point i occupies columns i*dim .. (i+1)*dim-1); row blocks follow
    relations (1), (2), (3) in that order.  Intended for small p^n; the
    big symbols are validated pointwise instead.
    """
    p, pn, d = module.p, module.pn, module.dim
    points, index = enumerate_X(p, module.n)
    npts = len(points)
    at = np.arange(npts)

    def block(terms):
        # one relation per point i: the sum over terms of mat at point perm[i]
        out = np.zeros((npts, d, npts, d), dtype=np.int64)
        for mat, perm in terms:
            out[at, :, perm, :] += mat
        return out.reshape(npts * d, npts * d) % p

    eye = np.eye(d, dtype=np.int64)
    rows = [block([(eye, _perm(points, index, pn, (lam, 0, 0, lam))),
                   (-module.act(lam), at)]) for lam in unit_group(pn)]
    rows.append(block([(eye, at), (eye, _perm(points, index, pn, (0, 1, -1, 0)))]))
    rows.append(block([(eye, at), (eye, _perm(points, index, pn, (0, 1, -1, -1))),
                       (eye, _perm(points, index, pn, (-1, -1, 1, 0)))]))
    return np.vstack(rows)


def table_from_flat(module, flat):
    """Rebuild a ManinTable from a stacked coefficient vector (kernel row)."""
    points, _ = enumerate_X(module.p, module.n)
    return ManinTable(module, np.asarray(flat, dtype=np.int64).reshape(len(points), module.dim))


def symbols_supported_at_infty(module):
    """Basis of the supported-at-infinity symbols, built directly.

    A boundary symbol is determined by m = e(1,0): e(x,0) = chi(x)m,
    e(0,y) = -chi(y)m, zero off the axes; relation e(-x) = e(x) forces m
    to be fixed by chi(-1), so the basis runs over that fixed space.
    """
    p, pn, d = module.p, module.pn, module.dim
    points, _ = enumerate_X(p, module.n)
    fixed = kernel_mod(module.act(pn - 1) - np.eye(d, dtype=np.int64), p)
    out = []
    xs, ys = points[:, 0], points[:, 1]
    for m in fixed:
        vals = np.zeros((len(points), d), dtype=np.int64)
        for i in np.nonzero(ys == 0)[0]:
            vals[i] = matmul_mod(module.act(xs[i]), m, p)
        for i in np.nonzero(xs == 0)[0]:
            vals[i] = (-matmul_mod(module.act(ys[i]), m, p)) % p
        out.append(ManinTable(module, vals).validate())
    return out
