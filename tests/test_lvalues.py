"""Weight-r modules, pairings, and the special-value identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclomanin.cyclok2 import build_cyclo_module, rho_basis, xi_class
from cyclomanin.exactlin import coords_in_rowspace, matmul_mod, rref_mod
from cyclomanin.lvalues import (DualVec, PolyVec, S, T,
                                boundary_lambda, dual_act_matrix,
                                gamma_infty_invariants, l_values_from_rho,
                                lambda_basis_vec, lvalue_identity_report,
                                pairing, perfect_pairing, poly_act_matrix,
                                tp_fixed_point, twist_eigenvalue_identity)

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
    with pytest.raises(ValueError, match="too large"):
        poly_act_matrix(sigma, r, 2147483647)


def test_poly_action_is_exact_where_the_factored_sum_is_split():
    # (r + 1)(p - 1)^2 >= 2^62 here, so the r + 1 term sums run in halves
    # of r//2 + 1 terms, the length the accepted domain was set by
    p, r = 1000000007, 4
    for sigma in ((3, 5, 7, 12), (0, 1, -1, 0), (2, p - 1, 5, 0)):
        assert poly_act_matrix(sigma, r, p).tolist() == exact_poly_act(sigma, r, p)


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


def test_weight_one_action_by_hand():
    # F = aX + bY, sigma = (1,1,0,1): (X,Y) -> (X, -X+Y) via the adjugate,
    # so F|sigma = aX + b(Y-X); coordinates are (Y-coeff, X-coeff)
    p = 11
    f = PolyVec(1, [3, 4], p)        # 4X + 3Y
    got = f.act((1, 1, 0, 1))
    assert got.coeffs.tolist() == [3, (4 - 3) % p]


def test_pairing_is_dual_to_the_signed_monomials():
    r, p = 6, 13
    for i in range(r + 1):
        for j in range(r + 1):
            mono = np.zeros(r + 1, dtype=np.int64)
            mono[r - j] = (-1) ** j % p
            f = PolyVec(r, mono, p)
            want = 1 if i == j else 0
            assert pairing(lambda_basis_vec(r, i, p), f) == want


@settings(max_examples=40, deadline=None)
@given(mats, st.data())
def test_pairing_scales_by_det_power(sigma, data):
    r, p = 4, 13
    det = (sigma[0] * sigma[3] - sigma[1] * sigma[2]) % p
    coords = data.draw(st.lists(st.integers(0, p - 1), min_size=r + 1,
                                max_size=r + 1))
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=r + 1,
                                max_size=r + 1))
    lam = DualVec(r, coords, p)
    f = PolyVec(r, coeffs, p)
    lhs = pairing(lam.act(sigma), f.act(sigma))
    assert lhs == pow(det, r, p) * pairing(lam, f) % p


def test_perfect_pairing_equivariance_and_symmetry():
    rng = np.random.default_rng(7)
    r, p = 6, 13
    for sigma, det in (((1, 0, 0, 2), 2), ((2, 1, 1, 1), 1), ((1, 1, 0, 3), 3)):
        for _ in range(8):
            f = PolyVec(r, rng.integers(0, p, r + 1), p)
            g = PolyVec(r, rng.integers(0, p, r + 1), p)
            lhs = perfect_pairing(f.act(sigma), g.act(sigma))
            assert lhs == pow(det, r, p) * perfect_pairing(f, g) % p
            assert perfect_pairing(f, g) == \
                pow(-1, r, p) * perfect_pairing(g, f) % p


def test_perfect_pairing_needs_small_weight():
    f = PolyVec(13, np.ones(14, dtype=np.int64), 13)
    with pytest.raises(ValueError):
        perfect_pairing(f, f)


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
        assert lam.act(T) == lam


def test_invariants_span_the_expected_lambdas():
    for r, p in ((6, 5), (12, 7)):
        rows = np.stack([lam.coords for lam in gamma_infty_invariants(r, p)])
        ref, piv = rref_mod(rows, p)
        for i in (r, p - 1):
            _, ok = coords_in_rowspace(ref, piv, lambda_basis_vec(r, i, p).coords, p)
            assert ok.all()
    with pytest.raises(ValueError):
        gamma_infty_invariants(10, 5)


def test_boundary_lvalues_are_plus_minus_one_at_the_ends():
    for r, p in ((8, 5), (10, 7), (30, 37)):
        out = boundary_lambda(lambda_basis_vec(r, r, p))
        want = np.zeros(r + 1, dtype=np.int64)
        want[0], want[r] = p - 1, 1
        assert np.array_equal(out.coords, want)


def test_boundary_lambda_rejects_non_invariants():
    with pytest.raises(ValueError):
        boundary_lambda(lambda_basis_vec(4, 1, 7))


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
    return module, rho, l_values_from_rho(module, rho, 32)


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
        want = int(xi_class(module, i, 32).coords @ rho % 37)
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


def test_lvalue_identity_report_is_non_vacuous_at_37_32():
    rep = lvalue_identity_report(37, 32)
    assert rep.all_pass
    by_name = {c["name"]: c for c in rep.checks}
    assert by_name["functional-count"]["details"] == {"count": 1}
    assert "odd-values-match-xi[rho0]" in by_name
    assert "even-values-zero[rho0]" in by_name


def test_lvalue_identity_report_vacuous_case():
    rep = lvalue_identity_report(5, 4)
    assert rep.all_pass
    by_name = {c["name"]: c for c in rep.checks}
    assert by_name["functional-count"]["details"] == {"count": 0}


def test_lvalue_argument_validation():
    module = build_cyclo_module(37)
    rho = rho_basis(module, 32)[0]
    for bad_k in (3, 0, 74, 100):
        with pytest.raises(ValueError):
            l_values_from_rho(module, rho, bad_k)
    deep = build_cyclo_module(5, 2)
    with pytest.raises(ValueError):
        l_values_from_rho(deep, np.zeros(deep.dim, dtype=np.int64), 4)
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
