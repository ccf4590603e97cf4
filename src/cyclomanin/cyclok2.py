"""A finitely presented stand-in for the p-part of Milnor K_2 of Z[zeta_{p^n}, 1/p].

Generators are pairs (x,y) with x,y nonzero mod p^n, standing for the
Steinberg symbols {1 - z^x, 1 - z^y} with z a primitive p^n-th root of
unity.  The relation families, all consequences of Steinberg identities
on cyclotomic p-units (working mod p with p odd, so 2-torsion dies):

  F1  e(x,y) + e(y,x) = 0                      antisymmetry
  F2  e(-x,y) = e(x,y),  e(x,-y) = e(x,y)      1-z^{-x} = -z^{-x}(1-z^x)
  F3  e(y,y) = 0                               diagonal
  F4  e(x,y) - e(x+y,y) - e(x,x+y) = 0         x+y != 0
  F5  (e|T_2)(x,y) = 2 e(x,y) + e(2x,2y)       x+y != 0
  F6  (e|T_3)(x,y) = 3 e(x,y) + e(3x,3y)       x+y, x-y != 0
  F7  e(p^k u, y) = sum of e(beta, y) over units beta = u mod p^{n-k}
                                               n > 1 only, left slot

F5 and F6 are the Hecke eigenvalue identity e|T_q = (q + sigma_q) e, with
e|T_q expanded through the closed-form terms of hecke.CLOSED_FORMS
(Merel's coset data).  Each F4-F6 row is imposed wherever all of its
slots are nonzero mod p^n, which gives the conditions listed.

Only these relations are imposed; the module is therefore a cover of
the actual symbol subgroup, which is the safe direction for verifying
identities proved from these relations alone.

The quotient is built in two stages: F1+F2+F3 are an orbit/sign
canonicalization (computed combinatorially), then F4-F7 are row-reduced
in canonical-class coordinates.  Tests check this against a monolithic
row reduction of the full generator-level relation matrix.
"""

from functools import lru_cache

import numpy as np

from .exactlin import (as_fp, check_prime, inv_mod, kernel_mod, matmul_mod,
                       omega_pow, primitive_root, rref_mod)
from .hecke import CLOSED_FORMS, hecke_apply
from .manin import CoeffModule, ManinTable, enumerate_X, is_supported_at_infty
from .reports import CheckReport

ALL_FLAGS = ("F1", "F2", "F3", "F4", "F5", "F6", "F7")


def _hecke_terms(q):
    """(e|T_q)(x,y) - q e(x,y) - e(qx,qy): the T_q eigenvalue identity."""
    return ([(1, m) for m in CLOSED_FORMS[q]]
            + [(-q, (1, 0, 0, 1)), (-1, (q, 0, 0, q))])


# family -> [(coeff, (a, b, c, d))], each the term coeff * e(a*x + b*y, c*x + d*y)
_RELATION_TERMS = {
    "F4": [(1, (1, 0, 0, 1)), (-1, (1, 1, 0, 1)), (-1, (1, 0, 1, 1))],
    "F5": _hecke_terms(2),
    "F6": _hecke_terms(3),
}


def _f7_rows(pn, p, n):
    """F7 term lists: (x, y, [beta...]) with e(x,y) = sum e(beta,y)."""
    out = []
    for x in range(1, pn):
        if x % p != 0:
            continue
        k = 0
        xx = x
        while xx % p == 0:
            xx //= p
            k += 1
        step = p ** (n - k)
        betas = [(xx + t * step) % pn for t in range(p ** k)]
        for y in range(1, pn):
            out.append((x, y, betas))
    return out


class CycloModule:
    """The presented module M_{p,n} with its quotient structure.

    Attributes of note: `gens` lists the (x,y) generator pairs in lex
    order; `reduce_matrix` maps generator index to quotient coordinates;
    `dim` is the quotient dimension; `basis_pairs` lists the generator
    pair representing each quotient basis vector.
    """

    def __init__(self, p, n=1, flags=None):
        check_prime(p, least=5)
        if n < 1:
            raise ValueError("need n >= 1")
        flags = frozenset(flags if flags is not None else ALL_FLAGS)
        if not flags >= {"F1", "F2", "F3", "F4"}:
            raise ValueError("relation families F1-F4 are always required")
        self.p, self.n, self.pn = p, n, p**n
        self.flags = flags
        pn = self.pn
        xs, ys = np.divmod(np.arange(pn * pn), pn)
        keep = (xs != 0) & (ys != 0)
        self.gens = np.stack([xs[keep], ys[keep]], axis=1).astype(np.int64)
        self.gen_index = np.full(pn * pn, -1, dtype=np.int64)
        self.gen_index[self.gens[:, 0] * pn + self.gens[:, 1]] = np.arange(len(self.gens))
        self._canonicalize()
        self._reduce()
        self._gal_cache = {}

    # -- stage 1: F1/F2/F3 as an orbit-with-sign canonicalization -----

    def _canonicalize(self):
        pn = self.pn
        x, y = self.gens[:, 0], self.gens[:, 1]
        zero = ((x + y) % pn == 0) | (x == y)
        same = np.stack([a * pn + b for a, b in
                         [(x, y), (pn - x, y), (x, pn - y), (pn - x, pn - y)]]).min(axis=0)
        swap = np.stack([a * pn + b for a, b in
                         [(y, x), (pn - y, x), (y, pn - x), (pn - y, pn - x)]]).min(axis=0)
        rep = np.minimum(same, swap)
        sign = np.where(same <= swap, 1, -1)
        rep[zero] = -1
        sign[zero] = 0
        live = np.unique(rep[rep >= 0])
        clsmap = {int(r): i for i, r in enumerate(live)}
        self.class_reps = np.stack([live // pn, live % pn], axis=1)
        self.n_classes = len(live)
        self.class_of_gen = np.array([clsmap.get(int(r), -1) for r in rep], dtype=np.int64)
        self.sign_of_gen = sign.astype(np.int64)

    def _class_rows(self):
        """Stack the enabled F4-F7 relation rows in canonical-class coordinates.

        An F4-F6 row is imposed at every generator (x,y) where all of its
        slots are nonzero mod p^n.
        """
        p, pn, n = self.p, self.pn, self.n
        x, y = self.gens[:, 0], self.gens[:, 1]
        blocks = []
        for name, terms in _RELATION_TERMS.items():
            if name not in self.flags:
                continue
            slots = [((a * x + b * y) % pn, (c * x + d * y) % pn)
                     for _, (a, b, c, d) in terms]
            mask = np.logical_and.reduce([(u != 0) & (v != 0) for u, v in slots])
            ridx = np.arange(int(mask.sum()))
            rows = np.zeros((len(ridx), self.n_classes), dtype=np.int64)
            for (coeff, _), (u, v) in zip(terms, slots):
                g = self.gen_index[u[mask] * pn + v[mask]]
                cls = self.class_of_gen[g]
                ok = cls >= 0
                np.add.at(rows, (ridx[ok], cls[ok]), coeff * self.sign_of_gen[g[ok]])
            rows %= p
            blocks.append(rows)
        if "F7" in self.flags and n > 1:
            rows = []
            for xc, yc, betas in _f7_rows(pn, p, n):
                row = np.zeros(self.n_classes, dtype=np.int64)
                g = self.gen_index[xc * pn + yc]
                if self.class_of_gen[g] >= 0:
                    row[self.class_of_gen[g]] += self.sign_of_gen[g]
                for b in betas:
                    gb = self.gen_index[b * pn + yc]
                    if self.class_of_gen[gb] >= 0:
                        row[self.class_of_gen[gb]] -= self.sign_of_gen[gb]
                rows.append(row % p)
            if rows:
                blocks.append(np.stack(rows))
        if not blocks:
            return np.zeros((0, self.n_classes), dtype=np.int64)
        return np.vstack(blocks)

    # -- stage 2: row-reduce in class coordinates ----------------------

    def _reduce(self):
        p = self.p
        rows = self._class_rows()
        rref, pivots = rref_mod(rows, p)
        piv_set = set(pivots)
        free = [c for c in range(self.n_classes) if c not in piv_set]
        self.dim = len(free)
        class_to_quot = np.zeros((self.n_classes, self.dim), dtype=np.int64)
        for i, f in enumerate(free):
            class_to_quot[f, i] = 1
        for j, c in enumerate(pivots):
            class_to_quot[c] = (-rref[j, free]) % p
        self.class_to_quot = class_to_quot
        self.basis_pairs = self.class_reps[free]
        # generator -> quotient coordinates (zero rows for killed classes)
        rm = np.zeros((len(self.gens), self.dim), dtype=np.int64)
        ok = self.class_of_gen >= 0
        rm[ok] = class_to_quot[self.class_of_gen[ok]] * self.sign_of_gen[ok, None] % p
        self.reduce_matrix = rm

    # -- public API ----------------------------------------------------

    def gen_coords(self, x, y):
        """Quotient coordinates of the symbol {1-z^x, 1-z^y} (zero if a slot is 0)."""
        x, y = int(x) % self.pn, int(y) % self.pn
        if x == 0 or y == 0:
            return np.zeros(self.dim, dtype=np.int64)
        return self.reduce_matrix[self.gen_index[x * self.pn + y]]

    def galois_matrix(self, lam):
        """Matrix of sigma_lam on the quotient (diagonal scaling of slots)."""
        lam = int(lam) % self.pn
        got = self._gal_cache.get(lam)
        if got is None:
            cols = [self.gen_coords(lam * a, lam * b) for a, b in self.basis_pairs]
            got = np.stack(cols, axis=1) if self.dim else np.zeros((0, 0), dtype=np.int64)
            self._gal_cache[lam] = got
        return got

    def __repr__(self):
        return f"CycloModule(p={self.p}, n={self.n}, dim={self.dim})"


@lru_cache(maxsize=None)
def build_cyclo_module(p, n=1, flags=ALL_FLAGS):
    """Build (and cache) M_{p,n} with the given relation families enabled."""
    return CycloModule(p, n, flags)


class SymbolClass:
    """An element of a CycloModule quotient."""

    def __init__(self, module, coords):
        self.module = module
        self.coords = as_fp(coords, module.p).reshape(module.dim)

    def is_zero(self):
        return not self.coords.any()

    def __add__(self, other):
        assert self.module is other.module
        return SymbolClass(self.module, (self.coords + other.coords) % self.module.p)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return SymbolClass(self.module, (-self.coords) % self.module.p)

    def __eq__(self, other):
        return self.module is other.module and np.array_equal(self.coords, other.coords)

    def __repr__(self):
        return f"SymbolClass({self.coords.tolist()})"


def symbol_class(module, x, y):
    """The class of {1-z^x, 1-z^y}; zero when x = 0 or y = 0."""
    return SymbolClass(module, module.gen_coords(x, y))


def quotient_coeffs(module):
    """The quotient as a Manin coefficient module with the Artin-type action."""
    return CoeffModule(module.p, module.n, module.dim, module.galois_matrix,
                       f"cyclo(p={module.p},n={module.n})")


def e_table(module):
    """The raw table (x,y) -> class{1-z^x, 1-z^y} over X_n, unvalidated."""
    points, _ = enumerate_X(module.p, module.n)
    pn = module.pn
    vals = np.zeros((len(points), module.dim), dtype=np.int64)
    both = (points[:, 0] != 0) & (points[:, 1] != 0)
    vals[both] = module.reduce_matrix[
        module.gen_index[points[both, 0] * pn + points[both, 1]]]
    return ManinTable(quotient_coeffs(module), vals)


def e_manin(module):
    """The Manin symbol e(x,y) = class{1-z^x, 1-z^y} over X_n, validated."""
    return e_table(module).validate()


def verify_hecke_eigenvalue(module, qs=(2, 3)):
    """Check (e|T_q)(x,y) = (q + sigma_q) e(x,y) at every point with xy != 0.

    The Hecke deviation is therefore supported at infinity, which is
    recorded as a second check per q.
    """
    for q in qs:
        check_prime(q, name="Hecke index q")
        if q == module.p:
            raise ValueError(f"Hecke index q = {q} must differ from p")
    rep = CheckReport("verify-hecke", {"p": module.p, "n": module.n})
    e = e_manin(module)
    pn = module.pn
    off_axis = (e.points[:, 0] * e.points[:, 1]) % pn != 0
    for q in qs:
        te = hecke_apply(e, q)
        chi_q = module.galois_matrix(q)
        expect = (q * e.values + matmul_mod(e.values, chi_q.T, module.p)) % module.p
        diff = (te.values - expect) % module.p
        ok = not diff[off_axis].any()
        rep.add(f"T_{q} eigenvalue q + sigma_q off the axes", ok,
                f"checked {int(off_axis.sum())} points")
        dtab = ManinTable(e.module, diff)
        rep.add(f"T_{q} deviation supported at infinity", is_supported_at_infty(dtab))
    return rep


def eigen_projector(module, j):
    """Idempotent projecting to the omega^(1-j) eigencomponent (n = 1 only)."""
    if module.n != 1:
        raise ValueError("eigen projectors need n = 1")
    p = module.p
    acc = np.zeros((module.dim, module.dim), dtype=np.int64)
    for a in range(1, p):
        acc = (acc + omega_pow(a, j - 1, p) * module.galois_matrix(a)) % p
    return acc * inv_mod(p - 1, p) % p


def xi_class(module, i, k):
    """xi_i = sum over unit pairs of a^{k-i-1} b^{i-1} {1-z^a, 1-z^b} (n = 1)."""
    if module.n != 1:
        raise ValueError("xi classes are defined at n = 1")
    p = module.p
    a = np.arange(1, p, dtype=np.int64)
    wa = np.array([omega_pow(v, k - i - 1, p) for v in a])
    wb = np.array([omega_pow(v, i - 1, p) for v in a])
    # generator grid is exactly (a,b) for units a,b at n=1, lex order
    coeff = np.outer(wa, wb).ravel() % p
    coords = matmul_mod(coeff[None, :], module.reduce_matrix, p)[0]
    return SymbolClass(module, coords)


def rho_basis(module, k):
    """Basis of functionals rho with rho(sigma_a m) = a^{2-k} rho(m) (n = 1).

    Computed as the left eigenspace of a generator of the Galois action;
    each row is checked against every sigma_a.  Functionals vanish on
    the other eigencomponents automatically.
    """
    if module.n != 1:
        raise ValueError("rho functionals need n = 1")
    p = module.p
    g = primitive_root(p)
    target = omega_pow(g, 2 - k, p)
    mat = module.galois_matrix(g)
    rows = kernel_mod(mat.T - target * np.eye(module.dim, dtype=np.int64), p)
    for a in range(2, p):
        want = omega_pow(a, 2 - k, p)
        got = matmul_mod(rows, module.galois_matrix(a), p)
        if not np.array_equal(got, rows * want % p):
            raise RuntimeError(f"sigma_{a} does not act by {a}^(2-k) on the eigenspace")
    return rows
