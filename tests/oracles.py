"""Reference code the tests check the package against; no verifier path runs it.

The F1-F3 symbol classes as the least of eight images; a module's
symbol coordinates at any integers and at every key; coefficient
modules, the Manin relation space and boundary symbols; the closed-form
and matrix Hecke operators; eigenprojectors of M_{p,1}; the xi classes
and L-values of M_{p,1} summed over all p^2 keys, and its
eigenfunctionals checked one sigma_a at a time; the orbits of the
classes under a unit group, found by walking every class around its
orbit; the certificate of the Manin unit relation by a walk over every
unit; the weight-r pairings and boundary L-values, on residue arrays
with r and p passed explicitly (W_r in coefficients of X^i Y^(r-i), V_r
in lambda coordinates); the
whole W_r and V_r action matrices, built apart from lvalues.act_rows;
the Gamma_infty invariants, boundary rows and level-one space by
elimination over full V_r matrices; the level-one Hecke operators summed
as full V_r matrices; the plus-Eisenstein space cut down one operator at
a time (eisenstein_space_by_steps); the level-one q-expansions; and the
irregular weights by Voronoi's congruence one numpy step per weight
(irregular_weights_by_steps).
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from cyclomanin.cyclok2 import _class_sign
from cyclomanin.eisspace import _quotient_setup, conj_matrix, hecke_matrix_dual
from cyclomanin.exactlin import (as_fp, bernoulli_over_k_mod, check_int64_sums,
                                 check_prime, check_weight, coords_in_rowspace, inv_mod,
                                 kernel_mod, matmul_mod, omega_pow, power_table, primitive_root,
                                 rref_mod, unit_group, unit_logs)
from cyclomanin.hecke import CLOSED_FORMS, _term_sum, hecke_apply, merel_set
from cyclomanin.lvalues import LValueVector, _matmul_halves, _substitution, binom_table
from cyclomanin.manin import CoeffModule, ManinTable, _perm, enumerate_X, image_keys

S = (0, -1, 1, 0)     # order-4 rotation
T = (1, 1, 0, 1)      # upper unipotent generator of Gamma_infty
U = (0, -1, 1, -1)    # order-3 generator, S T^-1


def canonical_classes(keys, pn):
    """F1-F3 by search: (rep, sign) of the symbol at each key x*pn + y.

    rep is the least key among the eight images (+-x, +-y) and (+-y, +-x),
    and sign is -1 when a swapped image is the least; rep = -1 and
    sign = 0 where the symbol dies, at a zero slot or at y = +-x.
    """
    pairs = np.stack(np.divmod(np.asarray(keys, dtype=np.int64), pn), axis=1)
    x, y = pairs.T
    dead = (x == 0) | (y == 0) | ((x + y) % pn == 0) | (x == y)
    signs = [(s, t) for s in (1, -1) for t in (1, -1)]
    same = np.min([image_keys(pairs, pn, (s, 0, 0, t)) for s, t in signs], axis=0)
    swap = np.min([image_keys(pairs, pn, (0, s, t, 0)) for s, t in signs], axis=0)
    rep = np.where(dead, -1, np.minimum(same, swap))
    sign = np.where(dead, 0, np.where(same <= swap, 1, -1))
    return rep, sign


def canonical_class_index(pn):
    """(class_reps, cls, sign) over every key x*pn + y: the classes as
    pairs, numbered in the order of their least keys, and each key's class
    (-1 where the symbol dies) and sign."""
    rep, sign = canonical_classes(np.arange(pn * pn), pn)
    live = np.unique(rep[rep >= 0])
    cls = np.where(rep >= 0, np.searchsorted(live, rep), -1)
    return np.stack(np.divmod(live, pn), axis=1), cls, sign


def symbol_coords(module, x, y):
    """module.coords at any integers or arrays x, y, reduced mod p^n first;
    one row of dim at scalars."""
    x, y = np.broadcast_arrays(np.asarray(x) % module.pn, np.asarray(y) % module.pn)
    return module.coords(x.ravel(), y.ravel()).reshape(*x.shape, module.dim)


def key_coords(module):
    """module.coords at every key x*p^n + y, one row each, in key order."""
    return module.coords(*np.divmod(np.arange(module.pn ** 2), module.pn))


def coeffs_by_action(p, n, dim, act, name):
    """CoeffModule whose unit lam acts by the dim x dim matrix act(lam)."""
    hpow, _ = unit_logs(p, n)
    return CoeffModule(p, n, np.stack([as_fp(act(int(lam)), p).reshape(dim, dim).T
                                       for lam in hpow]), name)


def trivial_coeffs(p, n=1):
    return coeffs_by_action(p, n, 1, lambda lam: np.array([[1]]), "trivial")


def power_character_coeffs(p, n, j):
    """One-dimensional module where lam acts by lam^j mod p.

    These are exactly the F_p^x-valued nebentypes: every such character
    factors through (Z/p)^x since F_p^x has no p-torsion.
    """
    jj = j % (p - 1)
    return coeffs_by_action(p, n, 1, lambda lam: np.array([[pow(lam % p, jj, p)]]),
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

    return coeffs_by_action(p, n, dim, act, "group-algebra")


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


def units_certified_by_walk(tab):
    """The certificate of relation (1) for the ManinTable tab, checks (a) and
    (b) of the manin module docstring, by a walk over every unit: one
    module.act call and one dim x dim product each.  True proves (1)."""
    p, pn, act = tab.p, tab.pn, tab.module.act
    g = primitive_root(p, tab.n)
    a = act(g)
    image = tab.values[_perm(tab.points, tab.index, pn, (g, 0, 0, g))]
    if (image != matmul_mod(a, tab.values.T, p).T).any():
        return False
    lam, power, order = 1, np.eye(tab.module.dim, dtype=np.int64), 0
    while True:
        if not np.array_equal(act(lam), power):
            return False
        lam, power, order = lam * g % pn, matmul_mod(power, a, p), order + 1
        if lam == 1:   # G^order = 1: G generates iff order = phi(p^n)
            return order == pn - pn // p


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


def inv_mod_matrix(a, p):
    """Inverse of a square matrix over F_p; raises ValueError if singular."""
    d = a.shape[0]
    if a.shape != (d, d):
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    aug, piv = rref_mod(np.hstack([a % p, np.eye(d, dtype=np.int64)]), p)
    if piv != list(range(d)):
        raise ValueError("matrix not invertible")
    return aug[:, d:]


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


def eigen_projector(module, j):
    """Idempotent projecting to the omega^(1-j) eigencomponent (n = 1 only)."""
    if module.n != 1:
        raise ValueError("eigen projectors need n = 1")
    p = module.p
    acc = np.zeros((module.dim, module.dim), dtype=np.int64)
    for a in range(1, p):
        acc = (acc + omega_pow(a, j - 1, p) * module.galois_matrix(a)) % p
    return acc * inv_mod(p - 1, p) % p


def xi_class_by_grid(module, i, k):
    """Quotient coordinates of xi_i = sum over unit pairs of
    a^{k-i-1} b^{i-1} {1-z^a, 1-z^b} (n = 1)."""
    if module.n != 1:
        raise ValueError("xi classes are defined at n = 1")
    p = module.p
    # over the p x p keys (a, b); the rows of the axes are zero
    e = np.array([k - i - 1, i - 1]) % (p - 1)
    wa, wb = power_table(np.arange(p), int(e.max()), p)[:, e].T
    coeff = np.outer(wa, wb).ravel() % p
    return matmul_mod(coeff[None, :], key_coords(module), p)[0]


def l_values_by_grid(module, rho, k):
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
    # rho(class(x,y)) over the p x p keys x*p + y; the rows of the axes are zero
    grid = matmul_mod(key_coords(module), rho, p)
    powers = power_table(np.arange(p), k - 2, p)  # powers[u, e] = u^e
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


def rho_basis_by_loop(module, k):
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


def orbits_by_walk(module, h, steps, start=None):
    """The classes as orbits of sigma_h, a signed permutation.

    Returns (least, step, sign, length, stab), per class c: h^step[c]
    maps c to sign[c] least[c], the least class of its orbit, and
    h^length[c] maps c to stab[c] c.  h^steps = -1 fixes every class,
    so `steps` steps close every orbit.  Every class is walked, or only
    the classes `start`, each array then holding one entry per start.
    """
    h_cls, h_sign = _class_sign(module.pn, *(h * module.class_reps.T % module.pn))
    idx = np.arange(module.n_classes) if start is None else start
    cur, sign = idx.copy(), np.ones_like(idx)
    least, step, least_sign = idx.copy(), np.zeros_like(idx), sign.copy()
    length, stab = np.zeros_like(idx), sign.copy()
    for e in range(1, steps + 1):
        sign = sign * h_sign[cur]
        cur = h_cls[cur]
        lower = cur < least
        least[lower], step[lower], least_sign[lower] = cur[lower], e, sign[lower]
        home = (cur == idx) & (length == 0)
        length[home], stab[home] = e, sign[home]
    return least, step, least_sign, length, stab

def _weight_r(r, p, *vecs):
    # the vectors as residues of W_r or V_r, each with r + 1 coordinates
    vecs = [np.asarray(v, dtype=np.int64) % p for v in vecs]
    if any(v.shape != (r + 1,) for v in vecs):
        raise ValueError(f"need {r + 1} coordinates, got {[v.shape for v in vecs]}")
    return vecs


def _first_column(pow_a, pow_c, r, p):
    # U[i, j] = C(j, i) a^i c^(j-i): column j is (aX + cY)^j Y^(r-j)
    padded = np.concatenate([np.zeros(r, dtype=np.int64), pow_c])
    out = binom_table(r, p).T.astype(np.int64) * sliding_window_view(padded, r + 1)[::-1]
    out %= p
    out *= pow_a[:, None]
    out %= p
    return out


def poly_act_matrix(sigma, r, p):
    """Matrix A with coeffs(F|sigma) = A @ coeffs(F), for a prime p.

    Coordinates are coefficients of X^j Y^(r-j), j = 0..r.  A is the
    product of the two triangular factors of lvalues._substitution, each
    built whole, reversed in its rows and columns as the swaps say.

    Accepts exactly the p at which r//2 + 1 products of residues sum
    below 2^62, and raises ValueError at larger p.
    """
    check_int64_sums(r // 2 + 1, p)
    alpha, gamma, delta, beta, swap_source, swap_target = _substitution(sigma, p)
    pa, pc, pd, pb = power_table([alpha, gamma, delta, beta], r, p)
    first = _first_column(pa, pc, r, p)
    shear = _first_column(pd, pb, r, p)[::-1, ::-1]
    out = _matmul_halves(first, shear, r, p)
    return out[::-1 if swap_target else 1, ::-1 if swap_source else 1]


def dual_act_matrix(sigma, r, p):
    """Matrix B with coords(lam|sigma) = B @ coords(lam) in the lambda basis:
    the W_r matrix of sigma^T, transposed (see lvalues.dual_act_matrix),
    built whole by poly_act_matrix."""
    a, b, c, d = sigma
    return poly_act_matrix((a, c, b, d), r, p).T


def pairing(lam, f, r, p):
    """Canonical pairing V_r x W_r -> F_p."""
    lam, f = _weight_r(r, p, lam, f)
    i = np.arange(r + 1)
    return int((lam * np.where(i % 2, p - 1, 1) * f[r - i]).sum() % p)


def perfect_pairing(f, g, r, p):
    """The M_2^+(Z)-equivariant pairing on W_r; needs r! invertible (r < p)."""
    f, g = _weight_r(r, p, f, g)
    if r >= p:
        raise ValueError("perfect pairing needs r < p (r! invertible)")
    bt = binom_table(r, p).astype(np.int64)
    i = np.arange(r + 1)
    signs = np.where(i % 2, p - 1, 1)
    inv_binom = np.array([inv_mod(bt[r, j], p) for j in range(r + 1)], dtype=np.int64)
    return int((f * inv_binom * signs * g[r - i]).sum() % p)


def boundary_lambda(lam, r, p):
    """Universal L-value of the boundary symbol attached to invariant lam.

    Lambda(phi) = lam - lam|S; its lambda_i coordinate is L(phi, i+1).
    """
    (lam,) = _weight_r(r, p, lam)
    if not np.array_equal(matmul_mod(dual_act_matrix(T, r, p), lam, p), lam):
        raise ValueError("lam is not Gamma_infty-invariant")
    return (lam - matmul_mod(dual_act_matrix(S, r, p), lam, p)) % p


def tp_fixed_point(r, p):
    """Check lambda_r | ((p,0;0,1) + sum_j (1,j;0,p)) = lambda_r in V_r(F_p).

    This is the fixed-point equation a boundary symbol with phi|T_p = phi
    satisfies; over F_p it forces L-values to vanish at all 0 < i < r.
    """
    lam = np.eye(r + 1, dtype=np.int64)[r]
    sigmas = [(p, 0, 0, 1)] + [(1, j, 0, p) for j in range(p)]
    total = sum(matmul_mod(dual_act_matrix(s, r, p), lam, p) for s in sigmas) % p
    return np.array_equal(total, lam)


def gamma_infty_kernel(r, p):
    """V_r^{Gamma_infty} as the kernel of dual_act_matrix(T) - 1, the
    elimination that lvalues.gamma_infty_invariants states in closed form."""
    if r >= 2 * p:
        raise ValueError("invariants computed only for r < 2p")
    mat = dual_act_matrix(T, r, p)
    mat[np.arange(r + 1), np.arange(r + 1)] -= 1
    return kernel_mod(mat % p, p)


def boundary_by_product(k, p):
    """rref of lam - lam|S over the Gamma_infty kernel, with S applied as
    its full dual_act_matrix."""
    check_weight(k, p)
    inv = gamma_infty_kernel(k - 2, p)
    return rref_mod((inv - matmul_mod(inv, dual_act_matrix(S, k - 2, p).T, p)) % p, p)[0]


def level1_by_kernel(k, p):
    """Kernel of 1+S stacked on 1+U+U^2, both as full V_{k-2} matrices."""
    check_weight(k, p)
    r = k - 2
    eye = np.eye(r + 1, dtype=np.int64)
    bs = dual_act_matrix(S, r, p)
    bu = dual_act_matrix(U, r, p)
    stacked = np.vstack([(bs + eye) % p, (matmul_mod(bu, bu, p) + bu + eye) % p])
    return kernel_mod(stacked, p)


def hecke_dual_sum(m, r, p):
    """Matrix of T_m on V_r coordinates: v -> sum over H_m of v|delta^T,
    summed as one full (r+1)^2 dual_act_matrix per delta in H_m."""
    return sum(dual_act_matrix((a, c, b, d), r, p) for a, b, c, d in merel_set(m)) % p


def op_on_level(mat, lref, lpiv, p):
    """Restrict an operator matrix on V_r to the coordinates over the level
    rref lref (rows act); raises if it does not preserve their span."""
    coords, ok = coords_in_rowspace(lref, lpiv, matmul_mod(lref, mat.T, p), p)
    if not ok.all():
        raise ValueError("operator must preserve the level-one relation space")
    return coords


def eisenstein_space_by_steps(p, k, primes):
    """(space, tmats) of eisspace.eis_eigenvector, one operator at a time:
    the +1 eigenspace of conjugation, brought to the parabolic quotient
    from the whole conj_matrix and checked to be an involution there, then
    cut down by one eigenspace intersection per q in primes."""
    lref, lpiv, quot, free, (_, _, npar) = _quotient_setup(k, p)

    def on_quotient(on_level):
        # level coordinates map by the transpose; quot.T projects the section
        return matmul_mod(quot.T, on_level.T[:, free], p)

    def intersect(rows, op, ev):
        # the combinations of the rows that op - ev kills
        if not len(rows):
            return rows
        diff = (matmul_mod(rows, op.T, p) - ev * rows) % p
        return matmul_mod(kernel_mod(diff.T, p), rows, p)

    eye = np.eye(npar, dtype=np.int64)
    conj = on_quotient(op_on_level(conj_matrix(k - 2, p), lref, lpiv, p))
    if not np.array_equal(matmul_mod(conj, conj, p), eye):
        raise ValueError("conjugation must be an involution on the quotient")
    space, tmats = intersect(eye, conj, 1), {}
    for q in primes:
        tmats[q] = on_quotient(hecke_matrix_dual(q, k - 2, p))
        space = intersect(space, tmats[q], (1 + pow(q, k - 1, p)) % p)
    return space, tmats


def eisenstein_q_coeffs(k, p, nmax):
    """First coefficients of G_k and s_{2, omega^(2-k)} mod p.

    Returns (g, s): g[0] = -B_k/(2k), g[n] = sigma_{k-1}(n); s[0] = 0,
    s[n] = sum_{d | n} omega^(2-k)(n/d) * d, with omega vanishing at
    multiples of p.
    """
    g = np.zeros(nmax + 1, dtype=np.int64)
    s = np.zeros(nmax + 1, dtype=np.int64)
    if k % (p - 1) == 0:
        raise ValueError("constant term has a Bernoulli pole at this weight")
    g[0] = (-bernoulli_over_k_mod(k, p) * inv_mod(2, p)) % p
    e = (2 - k) % (p - 1)
    for nn in range(1, nmax + 1):
        tg = ts = 0
        for d in range(1, nn + 1):
            if nn % d == 0:
                tg += pow(d, k - 1, p)
                m = nn // d
                if m % p:
                    ts += pow(m, e, p) * d
        g[nn] = tg % p
        s[nn] = ts % p
    return g, s


def irregular_weights_by_steps(p):
    """exactlin.irregular_weights one weight at a time: with w = floor(g x / p)
    fixed, each even k is one dot product w @ x^(k-1) over all p - 1 units,
    and the next power is one multiplication by x^2."""
    check_prime(p, least=3)
    g = primitive_root(p)
    check_int64_sums(g - 1, p)
    x = np.arange(1, p, dtype=np.int64)
    w = g * x // p
    x2 = x * x % p
    cur = x                # x^(k-1) at k = 2
    weights = []
    for k in range(2, p - 2, 2):
        if int(w @ cur) % p == 0:
            weights.append(k)
        cur = cur * x2 % p
    return weights
