"""Merel coset sets and the Hecke action on Manin tables."""

import numpy as np
import pytest

from cyclomanin.exactlin import inv_mod, kernel_mod, matmul_mod
from cyclomanin.hecke import hecke_apply, merel_set
from cyclomanin.manin import ManinTable, is_supported_at_infty
from oracles import (group_algebra_coeffs, hecke_closed_form, hecke_matrix,
                     manin_relation_space, power_character_coeffs,
                     symbols_supported_at_infty, table_from_flat, trivial_coeffs)


def test_merel_sets_2_and_3_are_the_known_lists():
    assert merel_set(2) == ((1, 0, 0, 2), (1, 0, 1, 2), (2, 0, 0, 1),
                            (2, 1, 0, 1))
    assert merel_set(3) == ((1, 0, 0, 3), (1, 0, 1, 3), (1, 0, 2, 3),
                            (2, 1, 1, 2), (3, 0, 0, 1), (3, 1, 0, 1),
                            (3, 2, 0, 1))


@pytest.mark.parametrize("m", range(1, 13))
def test_merel_set_shape_constraints(m):
    for a, b, c, d in merel_set(m):
        assert a * d - b * c == m
        assert a > b >= 0 and d > c >= 0


def test_merel_set_rejects_nonpositive():
    with pytest.raises(ValueError):
        merel_set(0)


def relation_kernel_tables(module):
    ker = kernel_mod(manin_relation_space(module), module.p)
    return [table_from_flat(module, row).validate() for row in ker]


MODULES_51 = (
    lambda: trivial_coeffs(5),
    lambda: power_character_coeffs(5, 1, 2),
    lambda: group_algebra_coeffs(5),
)
MODULES_71 = (
    lambda: trivial_coeffs(7),
    lambda: power_character_coeffs(7, 1, 2),
    lambda: power_character_coeffs(7, 1, 4),
)


@pytest.mark.parametrize("make", MODULES_51 + MODULES_71)
def test_closed_form_matches_merel_sum(make):
    module = make()
    tables = relation_kernel_tables(module)
    if not tables:
        pytest.skip("no symbols in this module")
    rng = np.random.default_rng(7)
    for _ in range(25):
        coeff = rng.integers(0, module.p, size=len(tables))
        tab = ManinTable(module, sum(c * t.values for c, t in zip(coeff, tables)))
        for q in (2, 3):
            assert np.array_equal(hecke_closed_form(tab, q).values, hecke_apply(tab, q).values)


def test_closed_form_rejects_other_primes():
    module = trivial_coeffs(5)
    tab = symbols_supported_at_infty(module)[0]
    with pytest.raises(ValueError):
        hecke_closed_form(tab, 5)


@pytest.mark.parametrize("make", MODULES_51 + MODULES_71)
def test_hecke_preserves_relations(make):
    module = make()
    for tab in relation_kernel_tables(module):
        for m in range(2, 11):
            hecke_apply(tab, m).validate()


@pytest.mark.parametrize("make", MODULES_51 + MODULES_71)
def test_t2_t3_commute_on_relation_space(make):
    module = make()
    tables = relation_kernel_tables(module)
    if not tables:
        pytest.skip("no symbols in this module")
    t2 = hecke_matrix(tables, 2)
    t3 = hecke_matrix(tables, 3)
    p = module.p
    assert np.array_equal(matmul_mod(t2, t3, p), matmul_mod(t3, t2, p))


def test_boundary_eigenvalue_l_plus_chi():
    # on the supported-at-infinity span, T_l acts by l + sigma_l for l != p
    for make, p in ((lambda: trivial_coeffs(5), 5),
                    (lambda: power_character_coeffs(5, 1, 2), 5),
                    (lambda: group_algebra_coeffs(5), 5),
                    (lambda: trivial_coeffs(5, 2), 5),
                    (lambda: power_character_coeffs(7, 1, 4), 7)):
        module = make()
        for tab in symbols_supported_at_infty(module):
            for ell in (2, 3, 5, 7):
                if ell == p:
                    continue
                got = hecke_apply(tab, ell)
                want_vals = (ell * tab.values
                             + matmul_mod(tab.values, module.act(ell).T, module.p)
                             ) % module.p
                assert np.array_equal(got.values, want_vals), (module.name, ell)


def test_tp_vanishes_for_even_nontrivial_character():
    for module in (power_character_coeffs(5, 1, 2),
                   power_character_coeffs(7, 1, 2),
                   power_character_coeffs(7, 1, 4),
                   power_character_coeffs(5, 2, 2)):
        for tab in symbols_supported_at_infty(module):
            assert not hecke_apply(tab, module.p).values.any()


def test_tp_vanishes_for_trivial_character_at_n2():
    module = trivial_coeffs(5, 2)
    for tab in symbols_supported_at_infty(module):
        assert not hecke_apply(tab, 5).values.any()


def test_tp_fixes_trivial_character_at_n1():
    # p - (p-1) surviving terms on the axes leave e itself, not 0
    module = trivial_coeffs(5)
    for tab in symbols_supported_at_infty(module):
        assert np.array_equal(hecke_apply(tab, 5).values, tab.values)


def test_tp_on_group_algebra_is_minus_norm():
    module = group_algebra_coeffs(5)
    norm = sum(module.act(a) for a in range(1, 5)) % 5
    for tab in symbols_supported_at_infty(module):
        got = hecke_apply(tab, 5)
        want = matmul_mod(tab.values, (-norm % 5).T, 5)
        assert np.array_equal(got.values, want)
        assert is_supported_at_infty(got)


def test_tp_image_leaves_boundary_at_n2_group_algebra():
    module = group_algebra_coeffs(5, 2)
    tabs = symbols_supported_at_infty(module)
    assert tabs, "the n=2 Artin module has boundary symbols"
    moved = [hecke_apply(tab, 5) for tab in tabs]
    for tab in moved:
        tab.validate()
    assert any(not is_supported_at_infty(tab) for tab in moved)


def _t2_eigen_scale(tab):
    """The scalar s with T_2 tab = s * tab, or None."""
    flat = tab.values.ravel()
    tflat = hecke_apply(tab, 2).values.ravel()
    i = int(np.nonzero(flat)[0][0])
    s = tflat[i] * inv_mod(int(flat[i]), tab.p) % tab.p
    return int(s) if np.array_equal(tflat, flat * s % tab.p) else None


def test_hecke_matrix_unstable_span_raises():
    # T_2 is not scalar on the group-algebra relation space at p = 5,
    # so some single table spans an unstable line
    module = group_algebra_coeffs(5)
    tables = relation_kernel_tables(module)
    scales = [_t2_eigen_scale(t) for t in tables]
    probe = None
    for tab, s in zip(tables, scales):
        if s is None:
            probe = tab
    if probe is None:
        assert len(set(scales)) >= 2
        a = next(t for t, s in zip(tables, scales) if s == scales[0])
        b = next(t for t, s in zip(tables, scales) if s != scales[0])
        probe = ManinTable(module, a.values + b.values)
    with pytest.raises(ValueError):
        hecke_matrix([probe], 2)
