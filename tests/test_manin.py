"""Manin tables, the unimodular section, and the relation space."""

import itertools

import numpy as np
import pytest

from cyclomanin.exactlin import kernel_mod, rref_mod, unit_group
from cyclomanin.manin import (ManinTable, enumerate_X, group_algebra_coeffs,
                              is_supported_at_infty, manin_relation_space,
                              power_character_coeffs, section_gamma,
                              symbols_supported_at_infty, table_from_flat,
                              trivial_coeffs, zero_table)


@pytest.mark.parametrize("p,n", ((5, 1), (7, 1), (13, 1), (5, 2)))
def test_enumerate_X_counts_primitive_vectors(p, n):
    points, index = enumerate_X(p, n)
    pn = p ** n
    # primitive pairs mod p^n: p^(2n) minus the p^(2n-2) pairs divisible by p
    assert len(points) == pn * pn - (pn // p) ** 2
    for x, y in points[:50]:
        assert index[x * pn + y] >= 0
    assert index[0] == -1


@pytest.mark.parametrize("p,n", ((5, 1), (7, 1), (5, 2)))
def test_section_is_unimodular_and_lifts(p, n):
    pn = p ** n
    points, _ = enumerate_X(p, n)
    for x, y in points:
        mat = section_gamma((x, y), p, n)
        (a, b), (c, d) = mat.tolist()
        assert a * d - b * c == 1
        assert (c - x) % pn == 0 and (d - y) % pn == 0
        assert c <= 1 or 0 <= a < c      # the minimal non-negative completion


def brute_relation_tables(module):
    """All tables over F_p satisfying the three relations, by enumeration."""
    points, _ = enumerate_X(module.p, module.n)
    assert module.dim == 1 and module.p ** len(points) < 10**5
    good = []
    for vals in itertools.product(range(module.p), repeat=len(points)):
        tab = ManinTable(module, np.array(vals, dtype=np.int64)[:, None])
        if all(v is None for v in tab.relation_checks().values()):
            good.append(vals)
    return good


def test_relation_space_matches_brute_force_p3():
    module = trivial_coeffs(3)
    ker = kernel_mod(manin_relation_space(module), 3)
    brute = brute_relation_tables(module)
    assert len(brute) == 3 ** ker.shape[0]
    for row in ker:
        assert tuple(int(v) for v in row) in brute


def test_kernel_members_validate_and_perturbations_fail():
    module = power_character_coeffs(5, 1, 2)
    mat = manin_relation_space(module)
    ker = kernel_mod(mat, 5)
    assert ker.shape[0] > 0
    rref, piv = rref_mod(ker, 5)
    for row in ker:
        table_from_flat(module, row).validate()
    bumped = ker[0].copy()
    bumped[0] = (bumped[0] + 1) % 5
    from cyclomanin.exactlin import coords_in_rowspace
    _, ok = coords_in_rowspace(rref, piv, bumped, 5)
    assert not ok
    with pytest.raises(ValueError):
        table_from_flat(module, bumped).validate()


def test_odd_character_kills_all_symbols():
    # chi(-1) = -1 makes e(x) = -e(x) pointwise, so only the zero symbol
    module = power_character_coeffs(5, 1, 1)
    ker = kernel_mod(manin_relation_space(module), 5)
    assert ker.shape[0] == 0


@pytest.mark.parametrize("make,p,n", (
    (lambda: trivial_coeffs(5), 5, 1),
    (lambda: power_character_coeffs(5, 1, 2), 5, 1),
    (lambda: group_algebra_coeffs(5), 5, 1),
    (lambda: trivial_coeffs(5, 2), 5, 2),
))
def test_supported_at_infty_basis(make, p, n):
    module = make()
    basis = symbols_supported_at_infty(module)
    fixed = kernel_mod(module.act(p ** n - 1) - np.eye(module.dim, dtype=np.int64), p)
    assert len(basis) == fixed.shape[0]
    for tab in basis:
        tab.validate()
        assert is_supported_at_infty(tab)
        assert not tab.is_zero()


def test_supported_at_infty_detector():
    module = trivial_coeffs(5)
    assert is_supported_at_infty(zero_table(module))
    points, _ = enumerate_X(5, 1)
    vals = np.zeros((len(points), 1), dtype=np.int64)
    vals[np.nonzero((points[:, 0] * points[:, 1]) % 5 != 0)[0][0]] = 1
    assert not is_supported_at_infty(ManinTable(module, vals))


def test_table_algebra_and_value_lookup():
    module = trivial_coeffs(5)
    basis = symbols_supported_at_infty(module)
    t = basis[0]
    assert (t + t - t) == t
    assert t.scale(3).values[5].tolist() == (3 * t.values[5] % 5).tolist()
    with pytest.raises(KeyError):
        # (0,5) is non-primitive mod 25
        ManinTable(trivial_coeffs(5, 2),
                   np.zeros((600, 1), dtype=np.int64)).value(0, 5)


def test_unit_diagonal_relation_uses_module_action():
    # scaling a point by a unit multiplies the value by the character
    module = power_character_coeffs(7, 1, 2)
    ker = kernel_mod(manin_relation_space(module), 7)
    tab = table_from_flat(module, ker[0]).validate()
    for lam in unit_group(7)[:3]:
        want = module.act(lam) @ tab.value(1, 3) % 7
        assert np.array_equal(tab.value(lam, 3 * lam), want)
