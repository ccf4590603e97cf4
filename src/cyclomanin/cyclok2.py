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
slots are nonzero mod p^n, which gives the conditions listed.  F7 is
generated as term lists too, one family per k = v_p(x) < n, imposed at
the pairs (u, y) with u a unit below p^(n-k).

Only these relations are imposed; the module is therefore a cover of
the actual symbol subgroup, which is the safe direction for verifying
identities proved from these relations alone.

The quotient is built in two stages: F1+F2+F3 are an orbit/sign
canonicalization (computed combinatorially), then the F4-F7 rows are
written into one array in canonical-class coordinates and row-reduced.
Tests check this against a monolithic row reduction of the full
generator-level relation matrix.
"""

import os
from functools import lru_cache

import numpy as np

from .exactlin import (as_fp, check_prime, inv_mod, kernel_mod, matmul_mod,
                       omega_pow, primitive_root, quotient_map, rref_mod)
from .hecke import CLOSED_FORMS, hecke_apply
from .manin import CoeffModule, ManinTable, enumerate_X, image_keys
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


def _f7_families(p, n, gens):
    """F7 as (terms, rows_at), one family per k = v_p(x) < n.

    For x = p^k u the row is e(x, y) - sum e(beta, y) over the units
    beta = u mod p^(n-k).  It is imposed at the pairs (u, y) of gens with
    u a unit below p^(n-k); beta is written u (1 + s p^(n-k)) for s < p^k,
    so that every term is a matrix.
    """
    u = gens[:, 0]
    return [([(1, (p**k, 0, 0, 1))]
             + [(-1, (1 + s * p ** (n - k), 0, 0, 1)) for s in range(p**k)],
             gens[(u % p != 0) & (u < p ** (n - k))])
            for k in range(1, n)]


def _check_dense_size(p, n, flags):
    # the F4-F7 matrix has about (p^n - 1)^2 / 8 class columns and a row per
    # generator for each F4-F6 family; twice its size covers the peak, which
    # adds rref_mod's working blocks and the term lookups to the matrix
    pn = p**n
    rows = (pn - 1) ** 2 * len(flags & {"F4", "F5", "F6"})
    rows += (p ** (n - 1) - 1) * (pn - 1) if "F7" in flags else 0
    need = 2 * 8 * rows * ((pn - 1) ** 2 // 8)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(f"p^n = {pn} is too large: the dense relation matrix and "
                         f"its elimination need about {need / 2**30:,.1f} GiB, more "
                         f"than the {have / 2**30:,.1f} GiB of physical memory")


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
        _check_dense_size(p, n, flags)
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

    # -- stage 1: F1/F2/F3 as an orbit-with-sign canonicalization -----

    def _canonicalize(self):
        pn, gens = self.pn, self.gens
        zero = (gens.sum(axis=1) % pn == 0) | (gens[:, 0] == gens[:, 1])
        signs = [(s, t) for s in (1, -1) for t in (1, -1)]
        same = np.min([image_keys(gens, pn, (s, 0, 0, t)) for s, t in signs], axis=0)
        swap = np.min([image_keys(gens, pn, (0, s, t, 0)) for s, t in signs], axis=0)
        rep = np.minimum(same, swap)
        sign = np.where(same <= swap, 1, -1)
        rep[zero] = -1
        sign[zero] = 0
        live = np.unique(rep[rep >= 0])
        self.class_reps = np.stack([live // pn, live % pn], axis=1)
        self.n_classes = len(live)
        self.class_of_gen = np.where(rep >= 0, np.searchsorted(live, rep), -1)
        self.sign_of_gen = sign.astype(np.int64)

    def _class_rows(self):
        """The enabled F4-F7 relation rows in canonical-class coordinates,
        written into one array; entries are not reduced mod p.

        Each family is imposed at its generators (all of them for F4-F6)
        wherever all of its slots are nonzero mod p^n, i.e. wherever every
        term's gen_index lookup is >= 0.
        """
        p, pn, n = self.p, self.pn, self.n
        families = [(terms, self.gens) for name, terms in _RELATION_TERMS.items()
                    if name in self.flags]
        if "F7" in self.flags:
            families += _f7_families(p, n, self.gens)
        imposed = []    # per family, (coeff, gen index) per term at its rows
        for terms, at in families:
            lookups = [self.gen_index[image_keys(at, pn, mat)] for _, mat in terms]
            mask = np.logical_and.reduce([g >= 0 for g in lookups])
            imposed.append([(coeff, g[mask]) for (coeff, _), g in zip(terms, lookups)])
        counts = [len(terms[0][1]) for terms in imposed]
        rows = np.zeros((sum(counts), self.n_classes), dtype=np.int64)
        for terms, start, count in zip(imposed, np.cumsum([0] + counts), counts):
            ridx = np.arange(start, start + count)
            for coeff, g in terms:
                cls = self.class_of_gen[g]
                ok = cls >= 0
                np.add.at(rows, (ridx[ok], cls[ok]), coeff * self.sign_of_gen[g[ok]])
        return rows

    # -- stage 2: row-reduce in class coordinates ----------------------

    def _reduce(self):
        p = self.p
        rref, pivots = rref_mod(self._class_rows(), p)
        free, self.class_to_quot = quotient_map(rref, pivots, self.n_classes, p)
        self.dim = len(free)
        self.basis_pairs = self.class_reps[free]
        # generator -> quotient coordinates (zero rows for killed classes)
        rm = np.zeros((len(self.gens), self.dim), dtype=np.int64)
        ok = self.class_of_gen >= 0
        rm[ok] = self.class_to_quot[self.class_of_gen[ok]] * self.sign_of_gen[ok, None] % p
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
        if lam % self.p == 0:
            raise ValueError(f"lambda = {lam} is not a unit mod {self.pn}")
        keys = image_keys(self.basis_pairs, self.pn, (lam, 0, 0, lam))
        return self.reduce_matrix[self.gen_index[keys]].T

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
        if self.module is not other.module:
            raise ValueError("classes of different modules")
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
    g = module.gen_index[points[:, 0] * module.pn + points[:, 1]]   # -1 on the axes
    return ManinTable(quotient_coeffs(module),
                      np.where(g[:, None] >= 0, module.reduce_matrix[g], 0))


def e_manin(module):
    """The Manin symbol e(x,y) = class{1-z^x, 1-z^y} over X_n, validated."""
    return e_table(module).validate()


def verify_hecke_eigenvalue(module, qs=(2, 3)):
    """Check (e|T_q)(x,y) = (q + sigma_q) e(x,y) at every point with xy != 0.

    Each q gets a second entry, that the Hecke deviation is supported at
    infinity.  It restates the first: vanishing off the axes is what
    supported at infinity means, so both entries report the same result.
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
        rep.add(f"T_{q} deviation supported at infinity", ok)
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
