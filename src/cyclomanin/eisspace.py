"""Level-one weight-k mod-p modular symbols and Eisenstein eigenspaces.

A level-one symbol with V_{k-2} coefficients is a single dual vector v
killed by 1+S and 1+U+U^2 (S order 4, U order 3).  On V_{k-2}, S is the
signed reversal lambda_i -> (-1)^i lambda_{k-2-i}, so ker(1+S) is written
down and only 1+U+U^2 is eliminated on it, applied to the basis rows by
one lvalues.act_rows call over U^T and (U^2)^T.  Boundary symbols
lam - lam|S come from the Gamma_infty-invariant functionals, whose
closed form needs no elimination either.  The parabolic quotient
carries conjugation and Hecke operators, whose simultaneous eigenspace
with T_q-eigenvalue 1+q^(k-1) detects the Eisenstein congruences of
irregular pairs.  The Hecke operators act on the level-one basis rows
alone, by lvalues.act_rows over Merel's coset set, and reach the
quotient in level coordinates; no (k-1)^2 Hecke matrix is formed.
"""

from functools import lru_cache

import numpy as np

from .exactlin import (check_memory, check_prime, check_weight, coords_in_rowspace,
                       kernel_mod, matmul_mod, quotient_map, rref_mod)
from .hecke import merel_set
from .lvalues import act_rows, gamma_infty_invariants


def _setup_bytes(k):
    """About the peak bytes of the level-one pipeline at weight k: it holds
    about 16 int64 blocks of (k - 1)^2 entries, the operators on V_{k-2}
    and the products and eliminations that combine them."""
    return 8 * 16 * (k - 1) ** 2


def level1_space(k, p):
    """Basis rows of {v in V_{k-2} : v + v|S = 0, v + v|U + v|U^2 = 0}.

    With r = k - 2 even, S acts as the signed reversal lambda_i ->
    (-1)^i lambda_{r-i}, so ker(1+S) needs no elimination: it is
    parametrised by v_i for i < r/2, with v_{r-i} = -(-1)^i v_i, and by
    v_{r/2} when r/2 is odd (it is 0 when r/2 is even).  Only 1+U+U^2 is
    eliminated, as an about r/2 x (r+1) system on the rows of that basis.
    v|sigma is act_rows(v, [sigma^T]), so with U = (0 -1; 1 -1) and
    U^2 = (-1 1; -1 0) the rows v|U + v|U^2 are one act_rows call over
    U^T = (0 1; -1 -1) and (U^2)^T = (-1 -1; 1 0), in one chunk or two.
    Any basis of the space may come back; callers read it through
    rref_mod or its row count.

    A k whose pipeline would exceed physical memory (_setup_bytes) raises
    ValueError before anything is allocated.
    """
    check_weight(k, p)
    check_memory(_setup_bytes(k), f"k = {k}", "the level-one (k - 1)^2 blocks")
    r = k - 2
    half = r // 2
    free = np.arange(half + half % 2)         # v_i for i < r/2, and v_{r/2} if r/2 is odd
    mirror, sign = r - free[:half], np.where(free[:half] % 2, 1, p - 1)
    basis = np.zeros((len(free), r + 1), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[np.arange(half), mirror] = sign
    system = (basis + act_rows(basis, [(0, 1, -1, -1), (-1, -1, 1, 0)], r, p)) % p
    coeff = kernel_mod(system.T.copy(), p)  # C order: the elimination walks rows
    out = np.zeros((coeff.shape[0], r + 1), dtype=np.int64)
    out[:, free] = coeff
    out[:, mirror] = coeff[:, :half] * sign % p
    return out


@lru_cache(maxsize=8)
def hecke_matrix_dual(m, r, p):
    """Matrix of T_m on level-one coordinates at weight r + 2: row i holds
    the coordinates of lref[i]|T_m over the level rref lref of _quotient_setup.

    Cached per (m, r, p), so the array is read-only.

    On V_r, v|T_m is the sum over H_m of v|delta^T.  The coset family H_m
    is stated for the row-vector symbol action; the dual action here reads
    polynomials through the adjugate, which is the S-conjugated
    presentation, and S delta S^-1 = adj(delta^T).  In row form v|delta^T
    is act_rows(v, [delta]), so the image rows are one act_rows call
    over H_m: exactly the conjugated family, the one that preserves the
    level-one relations.
    """
    lref, lpiv = _quotient_setup(r + 2, p)[:2]
    out = _level_coords(act_rows(lref, merel_set(m), r, p), lref, lpiv, p)
    out.flags.writeable = False
    return out


def conj_matrix(r, p):
    """Complex conjugation on V_r, realized by iota = (-1 0; 0 1): iota
    negates x, and the lambda basis reverses the monomials, so it acts as
    the diagonal of signs (-1)^(r-i) at lambda_i, written down here."""
    return np.diag(np.where((r - np.arange(r + 1)) % 2, p - 1, 1))


def boundary_space(k, p):
    """Basis rows of the boundary subspace of level1_space, in rref.

    Spanned by lam - lam|S over the Gamma_infty-invariant lam.  At even
    r = k - 2, S acts as lambda_i -> (-1)^i lambda_{r-i}, and the invariants
    are supported on the even indices p - 1 and r, where that sign is 1:
    each row is lam minus its reversal, with no matrix formed.
    _quotient_setup checks that they lie in the level-one space.
    """
    check_weight(k, p)
    inv = gamma_infty_invariants(k - 2, p)
    return rref_mod((inv - inv[:, ::-1]) % p, p)[0]


@lru_cache(maxsize=8)
def _quotient_setup(k, p):
    """Shared scaffolding: level coords, boundary rows inside them, quotient map.

    Returns (level_rref, level_pivots, quot, free, dims).  For a level
    coordinate column vector xi, the parabolic-quotient coordinates are
    quot.T @ xi; `free` lists the level coordinates acting as the section.
    Cached per (k, p), so eis_eigenspace and eis_eigenvector build it
    once; the arrays are read-only and the pivots a tuple.
    """
    level = level1_space(k, p)
    lref, lpiv = rref_mod(level, p)
    nl = lref.shape[0]
    bnd = boundary_space(k, p)
    bcoords, ok = coords_in_rowspace(lref, lpiv, bnd, p)
    if not ok.all():
        raise RuntimeError("boundary space must lie in the level-one space")
    bref, bpiv = rref_mod(bcoords, p)
    free, quot = quotient_map(bref, bpiv, nl, p)
    for arr in (lref, quot, free):
        arr.flags.writeable = False
    return lref, tuple(lpiv), quot, free, (nl, len(bpiv), len(free))


def _level_coords(image, lref, lpiv, p):
    """Coordinates over lref of the rows lref|op of an operator; raises
    unless the operator preserves the level-one relation space."""
    coords, ok = coords_in_rowspace(lref, lpiv, image, p)
    if not ok.all():
        raise RuntimeError("operator must preserve the level-one relation space")
    return coords


class EisReport:
    """Dimension report for one (p, k, S) Eisenstein eigenspace computation."""

    def __init__(self, p, k, primes, dim_total, dim_boundary,
                 dim_plus_eisenstein, eigenvalues):
        self.p = p
        self.k = k
        self.primes = tuple(primes)
        self.dim_total = dim_total
        self.dim_boundary = dim_boundary
        self.dim_parabolic = dim_total - dim_boundary
        self.dim_plus_eisenstein = dim_plus_eisenstein
        self.eigenvalues = eigenvalues

    def to_dict(self):
        return {
            "p": self.p, "k": self.k, "S": list(self.primes),
            "dims": {
                "total": self.dim_total,
                "boundary": self.dim_boundary,
                "parabolic": self.dim_parabolic,
                "plus_eisenstein": self.dim_plus_eisenstein,
            },
            "eigenvalues": {str(q): int(v) for q, v in self.eigenvalues.items()},
        }


def _eisenstein_space(p, k, primes):
    """Rows of the conjugation-fixed parabolic space with T_q = 1 + q^(k-1).

    Returns (space, tmats, eigenvalues, dims): tmats[q] is T_q on the
    parabolic quotient and dims is (level, boundary, parabolic).
    """
    check_prime(p, least=5)
    for q in primes:
        check_prime(q, name="Hecke prime q")
    r = k - 2
    lref, lpiv, quot, free, dims = _quotient_setup(k, p)
    eye = np.eye(dims[2], dtype=np.int64)
    conj = _level_coords(lref * np.diag(conj_matrix(r, p)) % p, lref, lpiv, p)
    conj_q = _quotient_op(conj, quot, free, p)
    if not np.array_equal(matmul_mod(conj_q, conj_q, p), eye):
        raise RuntimeError("conjugation must be an involution on the quotient")
    space = _intersect_eigen(eye, conj_q, 1, p)
    tmats, eigenvalues = {}, {}
    for q in primes:
        eigenvalues[q] = (1 + pow(q, k - 1, p)) % p
        tmats[q] = _quotient_op(hecke_matrix_dual(q, r, p), quot, free, p)
        space = _intersect_eigen(space, tmats[q], eigenvalues[q], p)
    return space, tmats, eigenvalues, dims


def eis_eigenspace(p, k, primes=(2,)):
    """Dimensions of H+_{k,eis,S}: conjugation-fixed parabolic classes with
    T_q eigenvalue 1 + q^(k-1) for q in S."""
    for q in primes:
        check_prime(q, name="Hecke prime q")
        if q % p == 0:
            raise ValueError("Hecke primes must be away from p")
    space, _, eigenvalues, (nl, nb, _) = _eisenstein_space(p, k, primes)
    return EisReport(p, k, primes, nl, nb, space.shape[0], eigenvalues)


def _quotient_op(on_level, quot, free, p):
    """Push an operator in level coordinates down to the parabolic quotient.

    Level coordinates transform by on_level.T (column form); the section
    embeds quotient coordinates at the free positions; quot.T projects back.
    """
    return matmul_mod(quot.T, on_level.T[:, free], p)


def _intersect_eigen(space_rows, op, ev, p):
    """Rows spanning {v in row space : op v = ev v}."""
    if space_rows.shape[0] == 0:
        return space_rows
    diff = (matmul_mod(space_rows, op.T, p) - ev * space_rows) % p
    coeff = kernel_mod(diff.T, p)     # combinations of the rows that die
    return matmul_mod(coeff, space_rows, p)


def eis_eigenvector(p, k, primes=(2,)):
    """A basis of the Eisenstein eigenspace in parabolic coordinates, with
    the quotient Hecke matrices for eigenvalue verification."""
    space, tmats, _, _ = _eisenstein_space(p, k, primes)
    return space, tmats
