"""Weight-r polynomial modules, their duals, and mod-p special L-values.

W_r is homogeneous degree-r polynomials in X, Y over F_p with the
right action (F|s)(X,Y) = F((X,Y)s') through the adjugate s' of s.
V_r is its dual, coordinatized in the basis {lambda_i} dual to
{(-1)^i X^{r-i} Y^i}; vectors of both are plain residue arrays.  Each
substitution is a product of two triangular factors, and act_rows
applies a sum of them to a block of rows through the Pascal matrix,
without any (r+1)^2 matrix.  It is the one weight-r action here: the
level-one relations 1+U+U^2 and each Hecke operator reach their rows
through one call of it, which takes the diagonal scalings of all its
sigmas from one power table and walks them in chunks.  The Gamma_infty
invariants have a closed form and are written down, not eliminated.
The L-values of a functional rho on M_{p,1} are summed along the x = 1
row, the xi_i that verify-lvalues pairs rho with down the y = 1 column,
both after one P_k (cyclok2.weight_sums).  The p^2-key sums, the whole
action matrices, the pairings, the boundary L-values lam - lam|S, the
T_p fixed-point check and the elimination the invariants replace are in
tests/oracles.py.
"""

from functools import lru_cache

import numpy as np

from .cyclok2 import build_cyclo_module, rho_basis, weight_sums
from .exactlin import (check_int64_sums, check_prime, check_weight, int64_terms,
                       inv_mod, matmul_mod, omega_pow, power_table)
from .reports import CheckReport

_ACT_CELLS = 2**14  # stacked entries a chunk of act_rows may hold below (r+1)^2


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


def _substitution(sigma, p):
    """The two triangular factors of sigma's substitution, and its swaps.

    The image of X^j Y^(r-j) is (alpha X + gamma Y)^j (beta X + delta Y)^(r-j),
    where (alpha, beta, gamma, delta) = (d, -b, -c, a) is the adjugate.  With
    alpha invertible, the substitution factors into the upper triangular
    first-column map U(alpha, gamma): X^j Y^(r-j) -> (alpha X + gamma Y)^j Y^(r-j)
    times the lower triangular shear X^j Y^(r-j) -> X^j (beta' X + delta' Y)^(r-j),
    beta' = beta/alpha and delta' = delta - gamma beta/alpha; the shear is
    J U(delta', beta') J, J the reversal that exchanges X and Y.  When
    alpha = 0, exchanging X and Y on the source side (a column reversal)
    brings beta to its place, and on the target side (a row reversal)
    gamma.  Only sigma = 0 mod p leaves alpha = 0; its factors U(0, 0) and
    J U(0, 0) J multiply to F -> F(0, 0).

    Returns (alpha, gamma, delta', beta', swap_source, swap_target).
    """
    a, b, c, d = sigma
    alpha, beta, gamma, delta = d % p, -b % p, -c % p, a % p
    swap_source = alpha == 0 and (beta != 0 or gamma == 0)
    if swap_source:
        alpha, beta, gamma, delta = beta, alpha, delta, gamma
    swap_target = not alpha
    if swap_target:
        alpha, beta, gamma, delta = gamma, delta, alpha, beta
    if alpha:
        beta = beta * inv_mod(alpha, p) % p
        delta = (delta - gamma * beta) % p
    return alpha, gamma, delta, beta, swap_source, swap_target


def _matmul_halves(a, b, r, p):
    """a @ b mod p over r + 1 inner terms.  Where those sums could reach
    2^62 they are taken in two halves of at most r//2 + 1 terms, each
    reduced mod p, so this is exact wherever check_int64_sums(r//2 + 1, p)
    passes."""
    if r + 1 <= int64_terms(p):
        return matmul_mod(a, b, p)
    h = r // 2 + 1
    out = matmul_mod(a[..., :h], b[:h], p)
    out += matmul_mod(a[..., h:], b[h:], p)
    out %= p
    return out


def _times_factor(block, scale, powers_c, live, pascal, r, p):
    # block[s] @ U(a_s, c_s) mod p for a (B, n, r + 1) block, by the
    # factorisation of U stated in act_rows, scaling block in place: scale[s]
    # holds the powers of a_s/c_s (of a_s where c_s = 0), powers_c[s] those of
    # c_s, live[s] says c_s != 0, and pascal is P; all four come reversed for
    # J U J
    block *= scale[:, None]
    block %= p
    if not live.any():
        return block
    part = block if live.all() else block[live]
    prod = _matmul_halves(part.reshape(-1, r + 1), pascal, r, p).reshape(part.shape)
    prod *= powers_c[live, None]
    prod %= p
    if part is block:
        return prod
    block[live] = prod
    return block


def act_rows(rows, sigmas, r, p):
    """Coefficients of the sum over sigmas of F|sigma, for each row F, mod p.

    A row holds the coefficients of a form F in W_r, that of X^j Y^(r-j)
    at j = 0..r, and F|sigma is the substitution F((X,Y)sigma') of the
    module docstring.  Forms no (r+1)^2 action matrix: each triangular
    factor U(a, c) of _substitution is D(a^i c^-i) P D(c^j) when c != 0,
    with P the cached Pascal matrix binom_table(r, p).T and D diagonal,
    and D(a^i) when c = 0, so a block of rows costs two diagonal scalings
    and one product with P per factor.  The four diagonals of every sigma
    come from one power_table call.  The sigmas go in chunks whose
    stacked rows hold at most max((r+1)^2, _ACT_CELLS) entries, or one
    sigma where the rows hold more; a chunk costs one product with P a
    factor.  Its block is one np.where of the rows and their reversal,
    taken where sigma swaps the target, and is scaled and reduced in
    place; the sigmas that swap the source are sorted last, so their
    reversal is that of one sum a chunk.

    Accepts exactly the p at which r//2 + 1 products of residues sum
    below 2^62, and raises ValueError at larger p.
    """
    check_int64_sums(r // 2 + 1, p)
    rows = np.asarray(rows, dtype=np.int64) % p
    subs = np.array([_substitution(s, p) for s in sigmas], dtype=np.int64).reshape(-1, 6)
    subs = subs[np.argsort(subs[:, 4], kind="stable")]
    # the factors U(alpha, gamma) and U(delta', beta'): powers[s] holds the
    # powers of alpha/gamma, delta'/beta', gamma and beta' (a 0 divisor read as 1)
    a, c = subs[:, [0, 2]], subs[:, [1, 3]]
    inv_c = np.array([inv_mod(x, p) if x else 1 for x in c.ravel()], dtype=np.int64)
    powers = power_table(np.hstack([a * inv_c.reshape(c.shape) % p, c]), r, p)
    out = np.zeros_like(rows)
    chunk = max(1, max((r + 1) ** 2, _ACT_CELLS) // max(rows.size, 1))
    pascal = binom_table(r, p).T
    for at in range(0, len(subs), chunk):
        s = slice(at, at + chunk)
        block = np.where(subs[s, 5, None, None], rows[:, ::-1], rows)
        block = _times_factor(block, powers[s, 0], powers[s, 2], c[s, 0] != 0, pascal, r, p)
        block = _times_factor(block, powers[s, 1, ::-1], powers[s, 3, ::-1], c[s, 1] != 0,
                              pascal[::-1, ::-1], r, p)
        kept = np.count_nonzero(subs[s, 4] == 0)
        out += block[:kept].sum(axis=0)
        out += block[kept:].sum(axis=0)[:, ::-1]
        out %= p
    return out


def dual_act_matrix(sigma, r, p):
    """Matrix B with coords(lam|sigma) = B @ coords(lam) in the lambda basis.

    (lam|sigma)(m) = lam(m|sigma'), so B is the lambda-basis transpose
    of the W_r action of sigma'.  The lambda basis reverses the monomials
    and signs them by (-1)^i, which conjugates sigma' = adj(sigma) to the
    transpose of sigma: B is the W_r matrix of sigma^T, transposed, which
    is act_rows of the identity.  In row form, v|sigma is act_rows(v,
    [sigma^T]).
    """
    a, b, c, d = sigma
    return act_rows(np.eye(r + 1, dtype=np.int64), [(a, c, b, d)], r, p).T


def gamma_infty_invariants(r, p):
    """Basis rows of V_r^{Gamma_infty}, in lambda coordinates: the fixed
    space of the dual T-action, T = (1 1; 0 1).

    Dimension 1 (spanned by lambda_r) for r < p, and 2 for p <= r < 2p:
    spanned by lambda_{p-1} and lambda_r for r < 2p - 1, and at r = 2p - 1
    by lambda_{p-1} + lambda_{2p-2} and lambda_{2p-1}, where lambda_{p-1}
    alone is not invariant.  These rows are returned as stated, with no
    elimination: the j-th coordinate of lam|T - lam is the sum over m < j
    of (-1)^(j-m) C(j, m) lam_m, and by Lucas' theorem C(j, p - 1) = 0 mod p
    for p <= j <= 2p - 2, while C(2p-1, p-1) = 1 and C(2p-1, 2p-2) = -1.
    """
    if r >= 2 * p:
        raise ValueError("invariants computed only for r < 2p")
    if r < p:
        supports = [[r]]
    else:
        supports = [[p - 1, 2 * p - 2] if r == 2 * p - 1 else [p - 1], [r]]
    out = np.zeros((len(supports), r + 1), dtype=np.int64)
    for row, support in zip(out, supports):
        row[support] = 1
    return out


class LValueVector:
    """Special L-values L(psi, j) for j = 1..k-1, with excluded markers.

    values[j] is (-1)^(j-1) sum y^(j-1) x^(k-1-j) rho(class(x,y)) over unit
    pairs, read off the x = 1 row; arguments with (j-1) = 0 or k-2 mod p-1
    are not well-defined on the parabolic quotient and land in excluded.
    """

    def __init__(self, k, p, values, excluded):
        self.k, self.p, self.values, self.excluded = k, p, values, excluded
        if set(values) | excluded != set(range(1, k)) or set(values) & excluded:
            raise ValueError("values and excluded must partition 1..k-1")

    def to_dict(self):
        return {str(j): ("excluded" if j in self.excluded else int(self.values[j]))
                for j in range(1, self.k)}


def _l_value_vectors(row, rhos, p):
    # one LValueVector per functional in rhos, from the row block of weight_sums
    k = len(row) + 1
    i = np.arange(k - 1)
    sums = matmul_mod(row, rhos.T, p) * ((-1) ** i)[:, None] % p
    excluded = (i % (p - 1) == 0) | (i % (p - 1) == (k - 2) % (p - 1))
    return [LValueVector(k, p, {j + 1: int(v[j]) for j in np.flatnonzero(~excluded)},
                         {int(j) + 1 for j in np.flatnonzero(excluded)}) for v in sums.T]


def l_values_from_rho(module, rhos, k):
    """L-values of the weight-k symbols obtained from a block of functionals.

    Each row rho of rhos is a functional on the quotient (rows of
    rho_basis, say), and gives one LValueVector.  The value at argument
    i+1 is (-1)^i sum_{x,y units} y^i x^(k-2-i) rho(class(x,y)).  With
    y = tx that is (-1)^i rho(row[i]), row[i] = P_k sum_t t^i class(1,t)
    along the x = 1 row (cyclok2.weight_sums): one product for all i and
    every rho, after one P_k.
    """
    rhos = np.asarray(rhos, dtype=np.int64) % module.p
    if rhos.ndim != 2 or rhos.shape[1] != module.dim:
        raise ValueError(f"rhos must have shape (r, {module.dim}), got {rhos.shape}")
    return _l_value_vectors(weight_sums(module, k)[0], rhos, module.p)


def twist_eigenvalue_identity(q, k, p):
    """q^(k-2) (q + q^(2-k)) = 1 + q^(k-1) in F_p."""
    return pow(q, k - 2, p) * (q + omega_pow(q, 2 - k, p)) % p == (1 + pow(q, k - 1, p)) % p


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
    # one P_k for both sides: paired[i - 1, idx] = rho_idx(xi_i), summed down
    # the y = 1 column, and the L-values along the x = 1 row
    row, column = weight_sums(module, k)
    paired = matmul_mod(column, rhos.T, p)
    for idx, vector in enumerate(_l_value_vectors(row, rhos, p)):
        lv = vector.to_dict()
        odd = {str(i): lv[str(i)] for i in range(3, k - 2, 2)}
        ok = all(v == "excluded" or v == paired[int(i) - 1, idx] for i, v in odd.items())
        report.add("odd-values-match-xi[rho%d]" % idx, ok, odd)
        evens = {str(i): lv[str(i)] for i in range(2, k - 1, 2) if lv[str(i)] != "excluded"}
        report.add("even-values-zero[rho%d]" % idx, all(v == 0 for v in evens.values()), evens)
    for q in (2, 3):
        report.add("twist-eigenvalue-q%d" % q, twist_eigenvalue_identity(q, k, p), {})
    return report
