"""Level-one symbol spaces, parabolic quotients, Eisenstein eigenspaces."""

import tracemalloc

import numpy as np
import pytest

from cyclomanin import eisspace
from cyclomanin.eisspace import (_quotient_setup, boundary_space, conj_matrix,
                                 eis_eigenspace, eis_eigenvector, hecke_matrix_dual,
                                 level1_space)
from cyclomanin.exactlin import rref_mod
from cyclomanin.lvalues import dual_act_matrix
from oracles import (boundary_by_product, eisenstein_q_coeffs, hecke_dual_sum,
                     level1_by_kernel, op_on_level)


def test_level1_dimensions_match_classical_multiplicities():
    # dim = 2 dim S_k + 1 for these weights (no mod-37 degeneration)
    assert level1_space(4, 37).shape[0] == 1
    assert level1_space(12, 37).shape[0] == 3
    assert level1_space(32, 37).shape[0] == 5


@pytest.mark.parametrize("p", (5, 7, 11, 13, 37))
def test_closed_forms_match_the_eliminations(p):
    # boundary_space and the rref of level1_space, byte for byte, against
    # the kernels of the full S, U and T matrices at every even weight
    for k in range(2, 2 * p, 2):
        got, want = boundary_space(k, p), boundary_by_product(k, p)
        assert got.dtype == want.dtype and np.array_equal(got, want), (p, k)
        got, want = rref_mod(level1_space(k, p), p), rref_mod(level1_by_kernel(k, p), p)
        assert got[1] == want[1] and np.array_equal(got[0], want[0]), (p, k)


@pytest.mark.parametrize("p,k", ((211, 106), (691, 346), (1009, 1006)))
def test_level1_space_matches_the_full_kernel_at_large_weights(p, k):
    # level1_space applies 1+U+U^2 through act_rows; the oracle eliminates
    # 1+S and 1+U+U^2 as whole V_r matrices, at weights past p/2
    got, want = rref_mod(level1_space(k, p), p), rref_mod(level1_by_kernel(k, p), p)
    assert got[1] == want[1] and np.array_equal(got[0], want[0])


def test_level1_input_validation():
    for bad in (3, 1, 7):
        with pytest.raises(ValueError):
            level1_space(bad, 37)
    with pytest.raises(ValueError):
        level1_space(10, 5)   # k = 2p


def test_level_one_size_estimate_covers_the_measured_peak():
    # the guard refuses a weight on this estimate, so it must not undercount;
    # the caches are cleared so that the pipeline allocates all it needs
    eisspace._quotient_setup.cache_clear()
    eisspace.hecke_matrix_dual.cache_clear()
    tracemalloc.start()
    try:
        eis_eigenspace(691, 346)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert eisspace._setup_bytes(346) >= peak


def test_level1_weight_two_is_empty():
    assert level1_space(2, 7).shape[0] == 0


def test_conj_is_an_involution():
    for r, p in ((10, 37), (2, 5), (16, 17)):
        c = conj_matrix(r, p)
        assert np.array_equal(c @ c % p, np.eye(r + 1, dtype=np.int64))


@pytest.mark.parametrize("p", (5, 7, 11, 13, 37))
def test_conj_is_the_dual_action_of_iota(p):
    # the written-down diagonal against the whole dual_act_matrix, at every
    # r < 2p, odd r included
    for r in range(2 * p):
        got, want = conj_matrix(r, p), dual_act_matrix((-1, 0, 0, 1), r, p)
        assert got.dtype == want.dtype and np.array_equal(got, want), (p, r)


def test_hecke_preserves_level_space_and_commutes():
    p, k = 37, 12
    r = k - 2
    lref, lpiv = rref_mod(level1_space(k, p), p)
    assert np.array_equal(lref, _quotient_setup(k, p)[0])
    mats = {}
    for m in (2, 3, 4, 5, 6, 7):
        mats[m] = hecke_matrix_dual(m, r, p)
        assert np.array_equal(mats[m], op_on_level(hecke_dual_sum(m, r, p), lref, lpiv, p))
    for a, b in ((2, 3), (2, 5), (3, 7), (5, 6)):
        assert np.array_equal(mats[a] @ mats[b] % p, mats[b] @ mats[a] % p)


@pytest.mark.parametrize("p,k", ((7, 4), (37, 32), (691, 346)))
def test_hecke_on_level_coordinates_matches_the_full_matrix_sum(p, k):
    # hecke_matrix_dual acts on the level rows through act_rows; the oracle
    # sums one full (k-1)^2 matrix per Merel matrix and restricts the sum.
    # At (7, 4), T_7 has terms with p | det, as the level_one workload has
    lref, lpiv = _quotient_setup(k, p)[:2]
    for m in (2, 3, 5, 7):
        want = op_on_level(hecke_dual_sum(m, k - 2, p), lref, lpiv, p)
        assert np.array_equal(hecke_matrix_dual(m, k - 2, p), want), m


def test_weight_twelve_spectrum_is_tau_and_boundary():
    # on the 3-dim level space T_2 has eigenvalues tau(2) = -24 (twice,
    # plus and minus cuspidal) and 1 + 2^11 on the boundary line; T_3 has
    # tau(3) = 252 and 1 + 3^11 (all mod 37).  The boundary is exactly the
    # Eisenstein part at a regular weight, so the parabolic quotient sees
    # the scalar tau(q), and the plus-Eisenstein space is empty.
    p, k = 37, 12
    lref, lpiv = rref_mod(level1_space(k, p), p)
    space, tmats = eis_eigenvector(p, k, primes=(2, 3))
    assert space.shape[0] == 0
    for q, cusp in ((2, -24), (3, 252)):
        lv = hecke_matrix_dual(q, k - 2, p)
        assert np.array_equal(lv, op_on_level(hecke_dual_sum(q, k - 2, p), lref, lpiv, p))
        eye = np.eye(lv.shape[0], dtype=np.int64)
        eis = (1 + pow(q, k - 1, p)) % p
        assert not np.array_equal(lv, lv[0, 0] * eye % p)
        assert not ((lv - cusp * eye) @ (lv - eis * eye) % p).any()
        quot_eye = np.eye(tmats[q].shape[0], dtype=np.int64)
        assert np.array_equal(tmats[q], cusp % p * quot_eye % p)


def test_boundary_dimension_tracks_the_invariants():
    assert boundary_space(12, 37).shape[0] == 1
    assert boundary_space(60, 37).shape[0] == 2   # p <= k-2 < 2p


def test_eis_report_contents_at_37_32():
    rep = eis_eigenspace(37, 32, primes=(2, 3))
    d = rep.to_dict()
    assert d["dims"] == {"total": 5, "boundary": 1, "parabolic": 4,
                         "plus_eisenstein": 1}
    assert d["eigenvalues"] == {"2": 23, "3": 31}
    assert d["S"] == [2, 3]


def test_eis_dimension_is_stable_under_more_primes():
    one = eis_eigenspace(37, 32, primes=(2,)).dim_plus_eisenstein
    two = eis_eigenspace(37, 32, primes=(2, 3)).dim_plus_eisenstein
    assert one == two == 1


@pytest.mark.parametrize("p,k,primes,dim", (
    (59, 30, (2,), 1), (59, 30, (2, 3), 0),
    (139, 70, (2, 3), 1), (139, 70, (2, 3, 5), 0)))
def test_small_hecke_sets_over_count_at_regular_pairs(p, k, primes, dim):
    # (59, 30) and (139, 70) are regular; a small S leaves a spurious line
    # that a larger S removes, so eis-dim with the default S = {2} fails there
    assert eis_eigenspace(p, k, primes).dim_plus_eisenstein == dim


def test_level_one_lines_at_691():
    # 691 is irregular at k = 12 and 200 only; at k = 346 = (p + 1)/2,
    # S = (2, 3) leaves two lines, and T_5, T_7 remove them
    rep = eis_eigenspace(691, 346, primes=(2, 3))
    assert (rep.dim_total, rep.dim_boundary, rep.dim_plus_eisenstein) == (57, 1, 2)
    space, _ = eis_eigenvector(691, 346, primes=(2, 3, 5, 7))
    assert space.shape[0] == 0


def test_level_one_setup_is_built_once_per_weight(monkeypatch):
    calls = []

    def counting(k, p):
        calls.append((k, p))
        return level1_space(k, p)

    monkeypatch.setattr(eisspace, "level1_space", counting)
    _quotient_setup.cache_clear()
    eis_eigenspace(37, 32, primes=(2, 3))
    eis_eigenvector(37, 32, primes=(2, 3, 5, 7))
    eis_eigenspace(37, 32, primes=(2,))
    assert calls == [(32, 37)]
    lref, lpiv, quot, free, _ = _quotient_setup(32, 37)
    assert isinstance(lpiv, tuple)
    for arr in (lref, quot, free, hecke_matrix_dual(2, 30, 37)):
        with pytest.raises(ValueError):
            arr.flat[0] = 0


def test_regular_pair_has_no_eisenstein_classes():
    rep = eis_eigenspace(7, 4, primes=(2, 3))
    assert rep.dim_plus_eisenstein == 0


def test_eigenvector_satisfies_all_stated_eigenvalues():
    space, tmats = eis_eigenvector(37, 32, primes=(2, 3, 5, 7))
    assert space.shape[0] == 1
    v = space[0]
    for q, t in tmats.items():
        ev = (1 + pow(q, 31, 37)) % 37
        assert np.array_equal(v @ t.T % 37, ev * v % 37)


def test_eis_rejects_bad_hecke_primes():
    with pytest.raises(ValueError):
        eis_eigenspace(7, 4, primes=(7,))
    with pytest.raises(ValueError):
        eis_eigenspace(7, 4, primes=(2, 14))


def test_eisenstein_q_expansion_identities():
    g, s = eisenstein_q_coeffs(32, 37, 12)
    assert g[0] == 0                      # p | B_k/k at an irregular pair
    assert s[0] == 0 and s[1] == 1
    assert s[:8].tolist() == [0, 1, 29, 29, 10, 16, 27, 33]
    for q in (2, 3, 5, 7, 11):
        assert g[q] == (1 + pow(q, 31, 37)) % 37
        assert pow(q, 30, 37) * s[q] % 37 == g[q]
    assert g[6] == g[2] * g[3] % 37       # sigma_(k-1) is multiplicative


def test_eisenstein_constant_term_pole():
    with pytest.raises(ValueError):
        eisenstein_q_coeffs(36, 37, 3)
    with pytest.raises(ValueError):
        eisenstein_q_coeffs(12, 13, 3)


def test_regular_weight_constant_term_is_nonzero():
    g, _ = eisenstein_q_coeffs(12, 37, 2)
    assert g[0] != 0
    assert g[1] == 1
