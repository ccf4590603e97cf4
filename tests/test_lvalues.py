"""Weight-r modules, pairings, and the special-value identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclomanin import cli, lvalues
from cyclomanin.cyclok2 import (ALL_FLAGS, CycloModule, build_cyclo_module, rho_basis,
                                weight_projector, weight_sums, xi_class)
from cyclomanin.exactlin import check_int64_sums, matmul_mod, rref_mod
from cyclomanin.hecke import merel_set
from cyclomanin.lvalues import (act_rows, dual_act_matrix, gamma_infty_invariants,
                                l_values_from_rho, lvalue_identity_report,
                                twist_eigenvalue_identity)
from oracles import (S, T, boundary_lambda, eigen_projector, gamma_infty_kernel,
                     l_values_by_grid, pairing, perfect_pairing, poly_act_matrix,
                     rho_basis_by_loop, tp_fixed_point, xi_class_by_grid)

mats = st.tuples(*(st.integers(-6, 6) for _ in range(4)))


def mat_mul(s, t):
    a, b, c, d = s
    e, f, g, h = t
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


@settings(max_examples=60, deadline=None)
@given(mats, mats, st.sampled_from([(3, 5), (6, 13), (1, 7)]))
def test_poly_action_is_a_right_action(s, t, rp):
    r, p = rp
    lhs = poly_act_matrix(mat_mul(s, t), r, p)
    rhs = poly_act_matrix(t, r, p) @ poly_act_matrix(s, r, p) % p
    assert np.array_equal(lhs, rhs)
    assert np.array_equal(poly_act_matrix((1, 0, 0, 1), r, p),
                          np.eye(r + 1, dtype=np.int64))


@settings(max_examples=60, deadline=None)
@given(mats, mats, st.sampled_from([(3, 5), (6, 13), (1, 7)]))
def test_dual_action_is_a_right_action(s, t, rp):
    r, p = rp
    lhs = dual_act_matrix(mat_mul(s, t), r, p)
    rhs = dual_act_matrix(t, r, p) @ dual_act_matrix(s, r, p) % p
    assert np.array_equal(lhs, rhs)


def exact_poly_act(sigma, r, p):
    """poly_act_matrix by expanding (dX - cY)^j (-bX + aY)^(r-j) in Python ints."""
    a, b, c, d = sigma
    cols = []
    for j in range(r + 1):
        poly = [1]       # poly[i] is the coefficient of X^i
        for x_co, y_co in [(d, -c)] * j + [(-b, a)] * (r - j):
            poly = [(poly[i - 1] * x_co if i else 0)
                    + (poly[i] * y_co if i < len(poly) else 0)
                    for i in range(len(poly) + 1)]
        cols.append([v % p for v in poly])
    return [list(row) for row in zip(*cols)]


def test_poly_action_is_exact_or_refused_at_large_p():
    sigma, r = (3, 5, 7, 12), 10
    p = 100000007
    assert poly_act_matrix(sigma, r, p).tolist() == exact_poly_act(sigma, r, p)
    got = act_rows(np.eye(r + 1, dtype=np.int64), [sigma], r, p).tolist()
    assert got == exact_poly_act(sigma, r, p)
    with pytest.raises(ValueError, match="too large"):
        poly_act_matrix(sigma, r, 2147483647)
    with pytest.raises(ValueError, match="too large"):
        act_rows(np.eye(r + 1, dtype=np.int64), [sigma], r, 2147483647)


def test_poly_action_is_exact_where_the_factored_sum_is_split():
    # (r + 1)(p - 1)^2 >= 2^62 here, so the r + 1 term sums run in halves
    # of r//2 + 1 terms, the length the accepted domain was set by
    p, r = 1000000007, 4
    for sigma in ((3, 5, 7, 12), (0, 1, -1, 0), (2, p - 1, 5, 0)):
        assert poly_act_matrix(sigma, r, p).tolist() == exact_poly_act(sigma, r, p)
        got = act_rows(np.eye(r + 1, dtype=np.int64), [sigma], r, p).tolist()
        assert got == exact_poly_act(sigma, r, p), sigma


@pytest.mark.parametrize("p", (5, 7))
def test_poly_action_at_degenerate_matrices(p):
    # the factorisation divides by alpha = d; these zero alpha, beta = -b,
    # gamma = -c, several at once, all four, or only the determinant
    sigmas = [(3, 5, 2, 0), (3, 5, 2, p), (3, 0, 2, 5), (3, 5, 0, 4),
              (3, 0, 2, 0), (3, 5, 0, 0), (0, 5, 2, 0), (3, 0, 0, p),
              (0, 0, 0, 0), (p, 0, 0, 2 * p), (2, 4, 1, 2), (p, 0, 0, 1)]
    sigmas += [(1, j, 0, p) for j in range(p)]      # the terms of tp_fixed_point
    for r in (0, 1, p - 1, p, 2 * p - 4):
        for sigma in sigmas:
            got = poly_act_matrix(sigma, r, p).tolist()
            assert got == exact_poly_act(sigma, r, p), (sigma, r)
            got = act_rows(np.eye(r + 1, dtype=np.int64), [sigma], r, p).tolist()
            assert got == exact_poly_act(sigma, r, p), (sigma, r)


def summed_action(rows, sigmas, r, p, act=poly_act_matrix):
    """rows @ (sum of act(sigma, r, p) over sigmas) mod p, in Python ints."""
    total = np.zeros((r + 1, r + 1), dtype=object)
    for sigma in sigmas:
        total = total + np.array(act(sigma, r, p), dtype=object)
    return (np.asarray(rows, dtype=object) @ total % p).astype(np.int64)


def random_rows(n, r, p, seed=0):
    return np.random.default_rng(seed).integers(0, p, (n, r + 1))


@settings(max_examples=80, deadline=None)
@given(st.lists(mats, max_size=8),
       st.sampled_from([(0, 5), (1, 7), (3, 5), (6, 13), (12, 7), (30, 37)]),
       st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_act_rows_matches_the_summed_matrices(sigmas, rp, n, seed):
    r, p = rp
    rows = random_rows(n, r, p, seed)
    assert np.array_equal(act_rows(rows, sigmas, r, p), summed_action(rows, sigmas, r, p))


def test_act_rows_where_p_divides_the_determinant():
    # T_7 at p = 7, as the level_one case (7, 4) reaches it with S = (2,3,5,7);
    # the terms (7, 0, 0, 1) and (1, 0, 0, 7) act through one swap each
    for r in (0, 1, 2, 5, 12):
        rows = random_rows(4, r, 7)
        want = summed_action(rows, merel_set(7), r, 7)
        assert np.array_equal(act_rows(rows, merel_set(7), r, 7), want), r
        assert np.array_equal(want, summed_action(rows, merel_set(7), r, 7, exact_poly_act))


def test_act_rows_at_the_zero_matrix_and_weight_zero():
    p = 13
    zeros = [(0, 0, 0, 0), (p, 0, 0, 2 * p)]
    for r in (1, 2, 6):
        rows = random_rows(3, r, p)
        assert not act_rows(rows, zeros, r, p).any()
        assert np.array_equal(act_rows(rows, zeros + [(1, 0, 0, 1)], r, p), rows)
    # on constants every sigma, the zero matrix too, acts as the identity
    rows = random_rows(3, 0, p)
    sigmas = zeros + [(2, 1, 1, 1), (0, 1, -1, 0), (5, 0, 0, 0)]
    assert np.array_equal(act_rows(rows, sigmas, 0, p), len(sigmas) * rows % p)
    assert act_rows(np.zeros((0, 5), dtype=np.int64), sigmas, 4, p).shape == (0, 5)
    assert not act_rows(rows, [], 0, p).any()


@pytest.mark.parametrize("m", (4, 6))
def test_act_rows_at_composite_hecke_indices(m):
    # the Merel sets that test_hecke_preserves_level_space_and_commutes uses;
    # 3 rows of weight 10 put several Merel matrices in one chunk
    for r, p in ((10, 37), (30, 37), (5, 13)):
        rows = random_rows(3, r, p, m)
        want = summed_action(rows, merel_set(m), r, p)
        assert np.array_equal(act_rows(rows, merel_set(m), r, p), want), (r, p)


# alpha = d = 0 with b != 0 (the source swap) and with b = 0 (the target
# swap), gamma = -c = 0, the zero matrix, the identity and a generic sigma
CHUNK_SIGMAS = [(1, 2, 3, 0), (2, 0, 3, 0), (2, 5, 0, 3), (0, 0, 0, 0), (1, 0, 0, 1),
                (3, 1, 4, 2)]


def count_factors(monkeypatch):
    """A list that act_rows appends to once per triangular factor, so twice
    for each chunk of sigmas."""
    calls, factor = [], lvalues._times_factor

    def counted(*args):
        calls.append(None)
        return factor(*args)

    monkeypatch.setattr(lvalues, "_times_factor", counted)
    return calls


@pytest.mark.parametrize("p, r, sigmas", [
    (7, 0, CHUNK_SIGMAS), (7, 11, CHUNK_SIGMAS), (7, 0, merel_set(7)), (7, 11, merel_set(7)),
    (131, 126, CHUNK_SIGMAS), (131, 127, CHUNK_SIGMAS), (131, 128, CHUNK_SIGMAS)])
def test_act_rows_at_chunk_boundaries(monkeypatch, p, r, sigmas):
    # r + 2 rows hold more than (r+1)^2 entries, so a budget below one
    # sigma's rows takes the sigmas one at a time; r = 2p - 3 is the largest
    # weight at p = 7, where p divides the determinant of T_7's terms.  The
    # rows come unreduced, far from [0, p), for act_rows to reduce
    rows = random_rows(r + 2, r, p, r)
    want = summed_action(rows, sigmas, r, p)
    rows += p * np.random.default_rng(r).integers(-2**50, 2**50, rows.shape)
    factors = count_factors(monkeypatch)
    count = len(sigmas)
    for budget, chunks in ((count * rows.size, 1), (0, count), ((count - 1) * rows.size, 2)):
        monkeypatch.setattr(lvalues, "_ACT_CELLS", budget)
        factors.clear()
        assert np.array_equal(act_rows(rows, sigmas, r, p), want), budget
        assert len(factors) == 2 * chunks, budget


def test_act_rows_chunks_hold_the_square_or_the_budget(monkeypatch):
    # one row: a chunk takes max((r+1)^2, 2^14) // (r + 1) sigmas, 129 at
    # r = 126, 128 at r = 127, where the two bounds meet, and 129 at r = 128
    sigmas = CHUNK_SIGMAS * 21 + CHUNK_SIGMAS[:3]
    factors = count_factors(monkeypatch)
    for r, chunks in ((126, 1), (127, 2), (128, 1)):
        rows = random_rows(1, r, 131, r)
        want = (21 * summed_action(rows, CHUNK_SIGMAS, r, 131)
                + summed_action(rows, CHUNK_SIGMAS[:3], r, 131)) % 131
        factors.clear()
        assert np.array_equal(act_rows(rows, sigmas, r, 131), want), r
        assert len(factors) == 2 * chunks, r


@pytest.mark.parametrize("p", (1000000007, 2147483647, 3037000493))
def test_act_rows_is_exact_or_refused_at_large_p(p):
    # accepted exactly where poly_act_matrix is: r//2 + 1 products summing
    # below 2^62; where r + 1 of them could not, the Pascal products split
    sigmas = list(merel_set(6)) + [(3, 5, 7, 12), (0, 1, -1, 0), (2, p - 1, 5, 0),
                                   (0, 0, 0, 0)]
    for r in range(10):
        rows = random_rows(3, r, p, r)
        try:
            check_int64_sums(r // 2 + 1, p)
        except ValueError:
            with pytest.raises(ValueError, match="too large"):
                act_rows(rows, sigmas, r, p)
            continue
        want = summed_action(rows, sigmas, r, p, exact_poly_act)
        assert np.array_equal(act_rows(rows, sigmas, r, p), want), r


def test_weight_one_action_by_hand():
    # F = aX + bY, sigma = (1,1,0,1): (X,Y) -> (X, -X+Y) via the adjugate,
    # so F|sigma = aX + b(Y-X); coordinates are (Y-coeff, X-coeff)
    p = 11
    f = [3, 4]                       # 4X + 3Y
    got = matmul_mod(poly_act_matrix((1, 1, 0, 1), 1, p), f, p)
    assert got.tolist() == [3, (4 - 3) % p]
    got = matmul_mod(act_rows(np.eye(2, dtype=np.int64), [(1, 1, 0, 1)], 1, p), f, p)
    assert got.tolist() == [3, (4 - 3) % p]


def test_pairing_is_dual_to_the_signed_monomials():
    r, p = 6, 13
    for i in range(r + 1):
        for j in range(r + 1):
            mono = np.zeros(r + 1, dtype=np.int64)
            mono[r - j] = (-1) ** j % p
            want = 1 if i == j else 0
            assert pairing(np.eye(r + 1, dtype=np.int64)[i], mono, r, p) == want


@settings(max_examples=40, deadline=None)
@given(mats, st.data())
def test_pairing_scales_by_det_power(sigma, data):
    r, p = 4, 13
    det = (sigma[0] * sigma[3] - sigma[1] * sigma[2]) % p
    coords = data.draw(st.lists(st.integers(0, p - 1), min_size=r + 1,
                                max_size=r + 1))
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=r + 1,
                                max_size=r + 1))
    lhs = pairing(matmul_mod(dual_act_matrix(sigma, r, p), coords, p),
                  matmul_mod(poly_act_matrix(sigma, r, p), coeffs, p), r, p)
    assert lhs == pow(det, r, p) * pairing(coords, coeffs, r, p) % p


def test_perfect_pairing_equivariance_and_symmetry():
    rng = np.random.default_rng(7)
    r, p = 6, 13
    for sigma, det in (((1, 0, 0, 2), 2), ((2, 1, 1, 1), 1), ((1, 1, 0, 3), 3)):
        for _ in range(8):
            f, g = rng.integers(0, p, (2, r + 1))
            act = poly_act_matrix(sigma, r, p)
            lhs = perfect_pairing(matmul_mod(act, f, p), matmul_mod(act, g, p), r, p)
            assert lhs == pow(det, r, p) * perfect_pairing(f, g, r, p) % p
            assert perfect_pairing(f, g, r, p) == \
                pow(-1, r, p) * perfect_pairing(g, f, r, p) % p


def test_perfect_pairing_needs_small_weight():
    f = np.ones(14, dtype=np.int64)
    with pytest.raises(ValueError):
        perfect_pairing(f, f, 13, 13)


def adjugate(sigma):
    """(d, -b, -c, a), the oracle for the substitution poly_act_matrix makes."""
    a, b, c, d = sigma
    return (d, -b, -c, a)


def test_adjugate_inverts_up_to_det():
    # on W_r, sigma adj(sigma) = det(sigma) I acts by det(sigma)^r, so the
    # two actions compose to that scalar whichever way the action reads
    for sigma in ((1, 2, 3, 4), (2, 0, 0, 2), (1, 1, 0, 1), (0, -1, 1, 0),
                  (0, 2, 3, 0), (3, 5, 6, 10), (0, 0, 0, 0), (-4, 7, 2, -9)):
        a, b, c, d = sigma
        det = a * d - b * c
        assert mat_mul(sigma, adjugate(sigma)) == (det, 0, 0, det)
        for r, p in ((0, 5), (1, 7), (4, 7), (6, 13), (12, 13), (30, 101)):
            got = matmul_mod(poly_act_matrix(adjugate(sigma), r, p),
                             poly_act_matrix(sigma, r, p), p)
            want = pow(det, r, p) * np.eye(r + 1, dtype=np.int64)
            assert np.array_equal(got, want), (sigma, r, p)


@pytest.mark.parametrize("r,p,dim", ((2, 5, 1), (4, 7, 1), (6, 5, 2),
                                     (8, 5, 2), (12, 7, 2), (12, 13, 1),
                                     (30, 37, 1)))
def test_invariant_dimensions(r, p, dim):
    inv = gamma_infty_invariants(r, p)
    assert len(inv) == dim
    for lam in inv:
        assert np.array_equal(matmul_mod(dual_act_matrix(T, r, p), lam, p), lam)


def test_invariants_span_the_expected_lambdas():
    # the rref of the invariants, as {coordinate: value} per row: lambda_r
    # below p, then lambda_(p-1) and lambda_r, except at r = 2p - 1, where
    # lambda_(p-1) alone is not invariant
    for p in (5, 7, 11, 13):
        for r in range(2 * p):
            if r < p:
                want = [{r: 1}]
            elif r < 2 * p - 1:
                want = [{p - 1: 1}, {r: 1}]
            else:
                want = [{p - 1: 1, 2 * p - 2: 1}, {r: 1}]
            ref, _ = rref_mod(gamma_infty_invariants(r, p), p)
            got = [{int(i): int(row[i]) for i in np.flatnonzero(row)} for row in ref]
            assert got == want, (p, r)
    with pytest.raises(ValueError):
        gamma_infty_invariants(10, 5)


@pytest.mark.parametrize("p", (5, 7, 11, 13, 37))
def test_invariants_equal_the_kernel_of_t_minus_one(p):
    # the closed form against the elimination it stands for, array for
    # array rather than span for span, at every r < 2p, odd r included
    for r in range(2 * p):
        got, want = gamma_infty_invariants(r, p), gamma_infty_kernel(r, p)
        assert got.dtype == want.dtype and np.array_equal(got, want), (p, r)


@pytest.mark.parametrize("p", (5, 7, 11, 13, 37))
def test_s_acts_as_the_signed_reversal(p):
    # coords(lambda_i|S) = (-1)^i lambda_(r-i): boundary_space and
    # level1_space use this in place of S's matrix
    for r in range(0, 2 * p, 2):
        want = np.zeros((r + 1, r + 1), dtype=np.int64)
        for i in range(r + 1):
            want[r - i, i] = (-1) ** i % p
        assert np.array_equal(dual_act_matrix(S, r, p), want), (p, r)


def test_boundary_lvalues_are_plus_minus_one_at_the_ends():
    for r, p in ((8, 5), (10, 7), (30, 37)):
        out = boundary_lambda(np.eye(r + 1, dtype=np.int64)[r], r, p)
        want = np.zeros(r + 1, dtype=np.int64)
        want[0], want[r] = p - 1, 1
        assert np.array_equal(out, want)


def test_boundary_lambda_rejects_non_invariants():
    with pytest.raises(ValueError):
        boundary_lambda(np.eye(5, dtype=np.int64)[1], 4, 7)


def test_tp_fixed_point_holds_mod_p():
    for r, p in ((4, 5), (6, 5), (10, 7), (12, 7), (30, 37)):
        assert tp_fixed_point(r, p)


def test_twist_bookkeeping_identity():
    for p in (5, 7, 13, 37):
        for k in range(2, 2 * p, 2):
            for q in (2, 3):
                if q % p:
                    assert twist_eigenvalue_identity(q, k, p)


def frozen_lvalues_37_32():
    module = build_cyclo_module(37)
    rho = rho_basis(module, 32)[0]
    return module, rho, l_values_from_rho(module, [rho], 32)[0]


def test_lvalues_frozen_vector():
    # derived once from rho(xi_i) through the pairing identity and pinned
    _, _, lv = frozen_lvalues_37_32()
    assert sorted(lv.excluded) == [1, 31]
    assert [lv.values[i] for i in range(3, 30, 2)] == \
        [14, 0, 8, 29, 16, 11, 24, 13, 26, 21, 8, 29, 0, 23]
    assert all(lv.values[i] == 0 for i in range(2, 31, 2))


def test_lvalues_match_xi_pairing_directly():
    module, rho, lv = frozen_lvalues_37_32()
    for i in range(3, 30, 2):
        want = int(xi_class(module, i, 32) @ rho % 37)
        assert lv.values[i] == want


def test_lvalues_reflection_antisymmetry():
    _, _, lv = frozen_lvalues_37_32()
    for i in range(3, 30, 2):
        assert lv.values[32 - i] == -lv.values[i] % 37


def test_lvalue_vector_serialization():
    _, _, lv = frozen_lvalues_37_32()
    d = lv.to_dict()
    assert set(d) == {str(j) for j in range(1, 32)}
    assert d["1"] == d["31"] == "excluded"
    assert d["3"] == 14


def functionals(module, k, seed):
    """Each rho_basis row, and two random functionals, which at dim > 1 are
    in general eigenfunctionals of no sigma_a."""
    rng = np.random.default_rng(seed)
    return list(rho_basis(module, k)) + list(rng.integers(0, module.p, (2, module.dim)))


def check_weight_sums(module, k, seed):
    """The x = 1 row and y = 1 column sums against the p^2-key grid sums, at every i."""
    row, xi = weight_sums(module, k)
    assert row.shape == xi.shape == (k - 1, module.dim)
    for i in range(1, k):
        want = xi_class_by_grid(module, i, k)
        assert np.array_equal(xi[i - 1], want), (module, k, i)
        assert np.array_equal(xi_class(module, i, k), want), (module, k, i)
    rhos = functionals(module, k, seed)
    for rho, got in zip(rhos, l_values_from_rho(module, rhos, k), strict=True):
        want = l_values_by_grid(module, rho, k)
        assert (got.values, got.excluded) == (want.values, want.excluded), (module, k)


@pytest.mark.parametrize("flags", (ALL_FLAGS, ("F1", "F2", "F3", "F4")))
def test_weight_sums_match_the_key_grid_at_every_weight_of_37(flags):
    # full flags (dim 1) and F1-F4 (dim 57, where sigma_a has many eigenvalues)
    module = build_cyclo_module(37, 1, flags)
    for k in range(2, 74, 2):
        check_weight_sums(module, k, k)


@pytest.mark.parametrize("p,k", ((73, 20), (139, 70), (157, 62), (211, 106)))
def test_weight_sums_match_the_key_grid_at_larger_primes(p, k):
    # 139 and 211 at the weights of their extra lines, 157 at an irregular
    # pair with a second line at k = 110, 73 at a weight with no functional
    check_weight_sums(build_cyclo_module(p), k, p)


@pytest.mark.parametrize("p,flags", ((37, ALL_FLAGS), (37, ("F1", "F2", "F3", "F4")),
                                     (73, ALL_FLAGS), (157, ALL_FLAGS), (211, ALL_FLAGS)))
def test_rho_basis_matches_the_check_one_sigma_at_a_time(p, flags):
    module = build_cyclo_module(p, 1, flags)
    for k in range(2, 2 * p, 2):
        assert np.array_equal(rho_basis(module, k), rho_basis_by_loop(module, k)), (p, k)


def test_weight_projector_is_minus_the_eigenprojector():
    # sum over a of a^(k-2) sigma_a is (p - 1) = -1 times the idempotent onto
    # the component where sigma_a acts by a^(2-k)
    module = build_cyclo_module(37, 1, ("F1", "F2", "F3", "F4"))
    for k in range(2, 74, 2):
        proj = weight_projector(module, k)
        assert np.array_equal(proj, -eigen_projector(module, k - 1) % 37), k
        assert np.array_equal(matmul_mod(proj, proj, 37), -proj % 37), k


def test_lvalue_identity_report_is_non_vacuous_at_37_32():
    rep = lvalue_identity_report(37, 32)
    assert rep.all_pass
    by_name = {c["name"]: c for c in rep.checks}
    assert by_name["functional-count"]["details"] == {"count": 1}
    assert "odd-values-match-xi[rho0]" in by_name
    assert "even-values-zero[rho0]" in by_name


@pytest.mark.parametrize("flags,count", ((ALL_FLAGS, 1), (("F1", "F2", "F3", "F4"), 3)))
def test_one_sigma_gather_for_rho_basis_and_one_for_p_k(monkeypatch, capsys, flags, count):
    # rho_basis gathers sigma_a at all 36 units, and weight_sums once more for
    # P_k, which serves every functional: the count does not grow with r
    module = build_cyclo_module(37, 1, flags)
    gathers = []
    rows = CycloModule.galois_rows
    monkeypatch.setattr(CycloModule, "galois_rows",
                        lambda self, lams: gathers.append(len(lams)) or rows(self, lams))
    rep = lvalue_identity_report(37, 32, module=module)
    assert rep.all_pass and rep.checks[0]["details"] == {"count": count}
    assert gathers == [36, 36]
    if flags == ALL_FLAGS:
        gathers.clear()
        assert cli.main(["lvalues", "--p", "37", "--k", "32"]) == 0
        capsys.readouterr()
        assert gathers == [36, 36]


def test_lvalue_identity_report_vacuous_case():
    # no functional at (5, 4), so no L-value is compared: that is a failure
    rep = lvalue_identity_report(5, 4)
    assert not rep.all_pass
    by_name = {c["name"]: c for c in rep.checks}
    assert by_name["functional-count"]["details"] == {"count": 0}
    assert [c["name"] for c in rep.checks if not c["pass"]] == ["functional-count"]


def test_lvalue_argument_validation():
    module = build_cyclo_module(37)
    rho = rho_basis(module, 32)[0]
    for bad_k in (3, 0, 74, 100):
        with pytest.raises(ValueError):
            l_values_from_rho(module, [rho], bad_k)
    # one functional is a block of one row
    for bad in (rho, np.zeros((1, module.dim + 1), dtype=np.int64)):
        with pytest.raises(ValueError, match="rhos must have shape"):
            l_values_from_rho(module, bad, 32)
    deep = build_cyclo_module(5, 2)
    with pytest.raises(ValueError):
        l_values_from_rho(deep, np.zeros((1, deep.dim), dtype=np.int64), 4)
    for bad in ((3, 4), (5, 5), (5, 20)):
        with pytest.raises(ValueError):
            lvalue_identity_report(*bad)


def test_s_and_t_generate_expected_relations():
    # S^2 = -1 and (ST)^3 = -1 in SL_2(Z); on W_r both act by (-1)^r
    r, p = 5, 11
    s2 = poly_act_matrix(mat_mul(S, S), r, p)
    st_ = mat_mul(S, T)
    st3 = poly_act_matrix(mat_mul(mat_mul(st_, st_), st_), r, p)
    want = pow(-1, r, p) * np.eye(r + 1, dtype=np.int64) % p
    assert np.array_equal(s2, want)
    assert np.array_equal(st3, want)
