"""Weight-r polynomial modules, their duals, and mod-p special L-values.

W_r is homogeneous degree-r polynomials in X, Y over F_p with the
right action (F|s)(X,Y) = F((X,Y)s') through the adjugate s' of s.
V_r is its dual, coordinatized in the basis {lambda_i} dual to
{(-1)^i X^{r-i} Y^i}.  The L-value of a boundary symbol attached to
an invariant functional, and the L-values attached to a functional
rho on the cyclotomic symbol module, are both plain finite sums here.
"""

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cyclok2 import build_cyclo_module, rho_basis, xi_class
from .exactlin import (check_int64_sums, check_prime, check_weight, int64_terms,
                       inv_mod, kernel_mod, matmul_mod, power_table)
from .reports import CheckReport

S = (0, -1, 1, 0)     # order-4 rotation
T = (1, 1, 0, 1)      # upper unipotent generator of Gamma_infty


@lru_cache(maxsize=4)
def binom_table(n, p):
    """Pascal triangle mod p, shape (n+1, n+1); no factorials.

    Cached per (n, p), so the array is read-only.
    """
    c = np.zeros((n + 1, n + 1), dtype=np.int64)
    c[:, 0] = 1
    for i in range(1, n + 1):
        c[i, 1:i + 1] = (c[i - 1, :i] + c[i - 1, 1:i + 1]) % p
    c.flags.writeable = False
    return c


def _first_column(pow_a, pow_c, r, p):
    # U[i, j] = C(j, i) a^i c^(j-i): column j is (aX + cY)^j Y^(r-j)
    padded = np.concatenate([np.zeros(r, dtype=np.int64), pow_c])
    out = binom_table(r, p).T * sliding_window_view(padded, r + 1)[::-1]
    out %= p
    out *= pow_a[:, None]
    out %= p
    return out


def poly_act_matrix(sigma, r, p):
    """Matrix A with coeffs(F|sigma) = A @ coeffs(F), for a prime p.

    Coordinates are coefficients of X^j Y^(r-j), j = 0..r.  The image of
    X^j Y^(r-j) is (alpha X + gamma Y)^j (beta X + delta Y)^(r-j), where
    (alpha, beta, gamma, delta) = (d, -b, -c, a) is the adjugate.  With
    alpha invertible, the substitution factors into the upper triangular
    first-column map X^j Y^(r-j) -> (alpha X + gamma Y)^j Y^(r-j) times
    the lower triangular shear X^j Y^(r-j) -> X^j (beta' X + delta' Y)^(r-j),
    beta' = beta/alpha and delta' = delta - gamma beta/alpha; the shear
    is the first-column map of (delta', beta') with X and Y exchanged.
    When alpha = 0, exchanging X and Y on the source side (a column
    reversal) brings beta to its place, and on the target side (a row
    reversal) gamma; the zero matrix acts as F -> F(0, 0).

    Accepts exactly the p at which r//2 + 1 products of residues sum
    below 2^62, and raises ValueError at larger p.  The product's inner
    sums have r + 1 terms, so where those could reach 2^62 they are
    taken in two halves of at most r//2 + 1 terms, each reduced mod p.
    """
    check_int64_sums(r // 2 + 1, p)
    a, b, c, d = sigma
    alpha, beta, gamma, delta = d % p, -b % p, -c % p, a % p
    swap_source = not alpha and (beta or not gamma)
    if swap_source:
        alpha, beta, gamma, delta = beta, alpha, delta, gamma
    swap_target = not alpha
    if swap_target:
        alpha, beta, gamma, delta = gamma, delta, alpha, beta
    if not alpha:
        return np.full((r + 1, r + 1), int(r == 0), dtype=np.int64)
    beta = beta * inv_mod(alpha, p) % p
    delta = (delta - gamma * beta) % p
    pa, pc, pd, pb = power_table([alpha, gamma, delta, beta], r, p)
    first = _first_column(pa, pc, r, p)
    shear = _first_column(pd, pb, r, p)[::-1, ::-1]
    if r + 1 <= int64_terms(p):
        out = matmul_mod(first, shear, p)
    else:
        h = r // 2 + 1
        out = (matmul_mod(first[:, :h], shear[:h], p)
               + matmul_mod(first[:, h:], shear[h:], p)) % p
    return out[::-1 if swap_target else 1, ::-1 if swap_source else 1]


class PolyVec:
    """Element of W_r: coefficients of X^i Y^(r-i), i = 0..r."""

    def __init__(self, r, coeffs, p):
        coeffs = np.asarray(coeffs, dtype=np.int64) % p
        if coeffs.shape != (r + 1,):
            raise ValueError(f"need {r + 1} coefficients, got shape {coeffs.shape}")
        self.r = r
        self.p = p
        self.coeffs = coeffs

    def act(self, sigma):
        mat = poly_act_matrix(sigma, self.r, self.p)
        return PolyVec(self.r, matmul_mod(mat, self.coeffs, self.p), self.p)

    def __eq__(self, other):
        return (self.r == other.r and self.p == other.p
                and np.array_equal(self.coeffs, other.coeffs))


def dual_act_matrix(sigma, r, p):
    """Matrix B with coords(lam|sigma) = B @ coords(lam) in the lambda basis.

    (lam|sigma)(m) = lam(m|sigma'), so B is the lambda-basis transpose
    of the W_r action of sigma'.  The lambda basis reverses the monomials
    and signs them by (-1)^i, which conjugates sigma' = adj(sigma) to the
    transpose of sigma: B is the W_r matrix of sigma^T, transposed.
    """
    a, b, c, d = sigma
    return poly_act_matrix((a, c, b, d), r, p).T


class DualVec:
    """Element of V_r in the basis {lambda_i} dual to {(-1)^i X^(r-i) Y^i}."""

    def __init__(self, r, coords, p):
        coords = np.asarray(coords, dtype=np.int64) % p
        if coords.shape != (r + 1,):
            raise ValueError(f"need {r + 1} coordinates, got shape {coords.shape}")
        self.r = r
        self.p = p
        self.coords = coords

    def act(self, sigma):
        mat = dual_act_matrix(sigma, self.r, self.p)
        return DualVec(self.r, matmul_mod(mat, self.coords, self.p), self.p)

    def __eq__(self, other):
        return (self.r == other.r and self.p == other.p
                and np.array_equal(self.coords, other.coords))


def lambda_basis_vec(r, i, p):
    coords = np.zeros(r + 1, dtype=np.int64)
    coords[i] = 1
    return DualVec(r, coords, p)


def pairing(lam, f):
    """Canonical pairing V_r x W_r -> F_p."""
    if (lam.r, lam.p) != (f.r, f.p):
        raise ValueError("pairing needs the same weight and prime on both sides")
    r, p = lam.r, lam.p
    i = np.arange(r + 1)
    signs = np.where(i % 2, p - 1, 1)
    return int((lam.coords * signs * f.coeffs[r - i]).sum() % p)


def perfect_pairing(f, g):
    """The M_2^+(Z)-equivariant pairing on W_r; needs r! invertible (r < p)."""
    if (f.r, f.p) != (g.r, g.p):
        raise ValueError("pairing needs the same weight and prime on both sides")
    r, p = f.r, f.p
    if r >= p:
        raise ValueError("perfect pairing needs r < p (r! invertible)")
    bt = binom_table(r, p)
    i = np.arange(r + 1)
    signs = np.where(i % 2, p - 1, 1)
    inv_binom = np.array([inv_mod(bt[r, j], p) for j in range(r + 1)], dtype=np.int64)
    return int((f.coeffs * inv_binom * signs * g.coeffs[r - i]).sum() % p)


def gamma_infty_invariants(r, p):
    """Basis of V_r^{Gamma_infty}: the fixed space of the dual T-action.

    Dimension 1 (spanned by lambda_r) for r < p, and 2 (lambda_r and
    lambda_{p-1}) for p <= r < 2p.
    """
    if r >= 2 * p:
        raise ValueError("invariants computed only for r < 2p")
    mat = dual_act_matrix(T, r, p)
    mat[np.arange(r + 1), np.arange(r + 1)] -= 1
    basis = kernel_mod(mat % p, p)
    return [DualVec(r, row, p) for row in basis]


def boundary_lambda(lam):
    """Universal L-value of the boundary symbol attached to invariant lam.

    Lambda(phi) = lam - lam|S; its lambda_i coordinate is L(phi, i+1).
    """
    if not lam == lam.act(T):
        raise ValueError("lam is not Gamma_infty-invariant")
    out = (lam.coords - lam.act(S).coords) % lam.p
    return DualVec(lam.r, out, lam.p)


def tp_fixed_point(r, p):
    """Check lambda_r | ((p,0;0,1) + sum_j (1,j;0,p)) = lambda_r in V_r(F_p).

    This is the fixed-point equation a boundary symbol with phi|T_p = phi
    satisfies; over F_p it forces L-values to vanish at all 0 < i < r.
    """
    lam = lambda_basis_vec(r, r, p)
    total = lam.act((p, 0, 0, 1)).coords.copy()
    for j in range(p):
        total = (total + lam.act((1, j, 0, p)).coords) % p
    return np.array_equal(total, lam.coords)


class LValueVector:
    """Special L-values L(psi, j) for j = 1..k-1, with excluded markers.

    values[j] is the scalar (-1)^(j-1) * sum y^(j-1) x^(k-1-j) rho(class(x,y));
    arguments with (j-1) = 0 or k-2 mod p-1 are not well-defined on the
    parabolic quotient and land in excluded instead.
    """

    def __init__(self, k, p, values, excluded):
        self.k = k
        self.p = p
        self.values = values
        self.excluded = excluded
        if set(values) | excluded != set(range(1, k)) or set(values) & excluded:
            raise ValueError("values and excluded must partition 1..k-1")

    def to_dict(self):
        out = {str(j): ("excluded" if j in self.excluded else int(self.values[j]))
               for j in range(1, self.k)}
        return out


def l_values_from_rho(module, rho, k):
    """L-values of the weight-k symbol obtained from rho on the module.

    rho is a functional on the quotient (a row of rho_basis).  The value
    at argument i+1 is (-1)^i sum_{x,y units} y^i x^(k-2-i) rho(class(x,y)).
    """
    p = module.p
    if module.n != 1:
        raise ValueError("L-value sums are defined at level one")
    check_weight(k, p)
    rho = np.asarray(rho, dtype=np.int64) % p
    if rho.shape != (module.dim,):
        raise ValueError(f"rho must have shape ({module.dim},), got {rho.shape}")
    # rho(class(x,y)) over the unit grid, via the generator reducer; at
    # n = 1 the generators are the unit pairs (x, y) in lex order
    grid = matmul_mod(module.reduce_matrix, rho, p)  # one scalar per generator
    powers = power_table(np.arange(1, p), k - 2, p)  # powers[u - 1, e] = u^e
    vals = {}
    excluded = set()
    for i in range(k - 1):
        j = i + 1
        if i % (p - 1) == 0 or i % (p - 1) == (k - 2) % (p - 1):
            excluded.add(j)
            continue
        weights = np.outer(powers[:, k - 2 - i], powers[:, i]).ravel() % p
        total = int((weights * grid).sum() % p)
        if i % 2:
            total = (p - total) % p
        vals[j] = total
    return LValueVector(k, p, vals, excluded)


def twist_eigenvalue_identity(q, k, p):
    """q^(k-2) (q + q^(2-k)) = 1 + q^(k-1) in F_p."""
    lhs = pow(q, k - 2, p) * (q + pow(q, (2 - k) % (p - 1), p)) % p
    rhs = (1 + pow(q, k - 1, p)) % p
    return lhs == rhs


def lvalue_identity_report(p, k, module=None):
    """Check L(psi,i) = rho(xi_i) for odd i and 0 for even i, per functional.

    Runs over every rho in rho_basis of the symbol module at (p, 1); also
    re-derives the twist bookkeeping q^(k-2)(q+q^(2-k)) = 1+q^(k-1).
    """
    check_prime(p, least=5)
    check_weight(k, p)
    if module is None:
        module = build_cyclo_module(p, 1)
    report = CheckReport("verify-lvalues", {"p": p, "k": k})
    rhos = rho_basis(module, k)
    report.add("functional-count", True, {"count": int(rhos.shape[0])})
    for idx, rho in enumerate(rhos):
        lv = l_values_from_rho(module, rho, k)
        table = {}
        ok_odd = True
        for i in range(3, k - 2, 2):
            if i in lv.excluded:
                table[i] = "excluded"
                continue
            want = int(matmul_mod(xi_class(module, i, k).coords, rho, p))
            got = lv.values[i]
            table[i] = got
            ok_odd = ok_odd and got == want
        report.add("odd-values-match-xi[rho%d]" % idx, ok_odd,
                   {str(i): v for i, v in table.items()})
        evens = {i: lv.values[i] for i in range(2, k - 1, 2)
                 if i not in lv.excluded}
        report.add("even-values-zero[rho%d]" % idx,
                   all(v == 0 for v in evens.values()),
                   {str(i): v for i, v in evens.items()})
    for q in (2, 3):
        report.add("twist-eigenvalue-q%d" % q,
                   twist_eigenvalue_identity(q, k, p), {})
    return report
