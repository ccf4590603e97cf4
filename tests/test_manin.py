"""Manin tables, their relations, and the relation space."""

import itertools

import numpy as np
import pytest

from cyclomanin import manin
from cyclomanin.cyclok2 import build_cyclo_module, e_table
from cyclomanin.exactlin import coords_in_rowspace, kernel_mod, rref_mod, unit_group
from cyclomanin.manin import (CoeffModule, ManinTable, enumerate_X, image_keys,
                              is_supported_at_infty)
from oracles import (coeffs_by_action, group_algebra_coeffs, manin_relation_space,
                     power_character_coeffs, symbols_supported_at_infty, table_from_flat,
                     trivial_coeffs, units_certified_by_walk)


@pytest.mark.parametrize("p,n", ((5, 1), (7, 1), (13, 1), (5, 2)))
def test_enumerate_X_counts_primitive_vectors(p, n):
    points, index = enumerate_X(p, n)
    pn = p ** n
    # primitive pairs mod p^n: p^(2n) minus the p^(2n-2) pairs divisible by p
    assert len(points) == pn * pn - (pn // p) ** 2
    for x, y in points[:50]:
        assert index[x * pn + y] >= 0
    assert index[0] == -1


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
    _, ok = coords_in_rowspace(rref, piv, bumped, 5)
    assert not ok.any()
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
        assert tab.values.any()


def test_supported_at_infty_detector():
    module = trivial_coeffs(5)
    points, _ = enumerate_X(5, 1)
    vals = np.zeros((len(points), 1), dtype=np.int64)
    assert is_supported_at_infty(ManinTable(module, vals))
    vals[np.nonzero((points[:, 0] * points[:, 1]) % 5 != 0)[0][0]] = 1
    assert not is_supported_at_infty(ManinTable(module, vals))


def test_table_algebra_and_value_lookup():
    module = trivial_coeffs(5)
    basis = symbols_supported_at_infty(module)
    t = basis[0]
    # tables add and scale through their value arrays, reduced on the way in
    assert np.array_equal(ManinTable(module, t.values + t.values - t.values).values, t.values)
    assert ManinTable(module, 3 * t.values).values[5].tolist() == \
        (3 * t.values[5] % 5).tolist()
    # (0,5) is non-primitive mod 25, so it has no row
    tab = ManinTable(trivial_coeffs(5, 2), np.zeros((600, 1), dtype=np.int64))
    assert tab.index[0 * 25 + 5] == -1


def test_unit_diagonal_relation_uses_module_action():
    # scaling a point by a unit multiplies the value by the character
    module = power_character_coeffs(7, 1, 2)
    ker = kernel_mod(manin_relation_space(module), 7)
    tab = table_from_flat(module, ker[0]).validate()
    for lam in unit_group(7)[:3]:
        want = module.act(lam) @ tab.values[tab.index[1 * 7 + 3]] % 7
        assert np.array_equal(tab.values[tab.index[lam * 7 + 3 * lam % 7]], want)


def scan_relation_checks(tab):
    """Relations (1)-(3) checked the slow way: one pass over X_n per unit.

    Each entry is None or the first failing point; for relation (1) that is
    the first (x, y, lam) in the order of lam, then of enumerate_X.
    """
    p, pn, vals = tab.p, tab.pn, tab.values
    points, index = enumerate_X(p, tab.n)

    def moved(mat):
        return vals[index[image_keys(points, pn, mat)]]

    def first(rows, *extra):
        miss = np.flatnonzero(rows.any(axis=1))
        return tuple(map(int, points[miss[0]])) + extra if len(miss) else None

    unit = None
    for lam in unit_group(pn):
        acted = (vals @ tab.module.act(lam).T) % p
        unit = first((moved((lam, 0, 0, lam)) - acted) % p, int(lam))
        if unit is not None:
            break
    return {"unit-diagonal": unit,
            "two-term": first((vals + moved((0, 1, -1, 0))) % p),
            "three-term": first((vals + moved((0, 1, -1, -1))
                                 + moved((-1, -1, 1, 0))) % p)}


def _kernel_tables(module):
    return [table_from_flat(module, row)
            for row in kernel_mod(manin_relation_space(module), module.p)]


def _bumped(tab, at):
    vals = tab.values.copy()
    vals[at % len(vals)] += 1
    return ManinTable(tab.module, vals)


def _certificate_matches_the_walk(tab):
    got = tab._units_certified()
    assert got == units_certified_by_walk(tab)
    return got


# Manin symbols over the trivial, a power-character and the group-algebra
# module.  The relation space of the group algebra at (5,2) has 12,000
# unknowns, so its symbols there are the ones supported at infinity.
SYMBOL_SOURCES = {
    "trivial-5-1": lambda: _kernel_tables(trivial_coeffs(5)),
    "trivial-7-1": lambda: _kernel_tables(trivial_coeffs(7)),
    "trivial-5-2": lambda: _kernel_tables(trivial_coeffs(5, 2)),
    "omega2-5-1": lambda: _kernel_tables(power_character_coeffs(5, 1, 2)),
    "omega4-7-1": lambda: _kernel_tables(power_character_coeffs(7, 1, 4)),
    "omega2-5-2": lambda: _kernel_tables(power_character_coeffs(5, 2, 2)),
    "group-5-1": lambda: _kernel_tables(group_algebra_coeffs(5)),
    "group-7-1": lambda: _kernel_tables(group_algebra_coeffs(7)),
    "group-5-2": lambda: symbols_supported_at_infty(group_algebra_coeffs(5, 2)),
}


@pytest.mark.parametrize("source", sorted(SYMBOL_SOURCES))
def test_relation_checks_match_the_unit_scan_on_symbols(source):
    tables = SYMBOL_SOURCES[source]()
    assert tables
    for i, tab in enumerate(tables):
        assert tab.relation_checks() == scan_relation_checks(tab)
        assert all(v is None for v in tab.relation_checks().values())
        for at in (0, 7 * i + 3, -1):
            bumped = _bumped(tab, at)
            got = bumped.relation_checks()
            assert got == scan_relation_checks(bumped)
            assert got["unit-diagonal"] is not None


@pytest.mark.parametrize("p,n,extra", (
    (7, 1, ()), (13, 1, ("F6",)), (37, 1, ("F5", "F7")),
    (5, 2, ()), (5, 2, ("F5",)), (7, 2, ("F6",)),
))
def test_relation_checks_match_the_unit_scan_on_cyclo_tables(p, n, extra):
    tab = e_table(build_cyclo_module(p, n, ("F1", "F2", "F3", "F4") + extra))
    assert tab.relation_checks() == scan_relation_checks(tab)
    for at in (0, 1, len(tab.values) // 2):
        bumped = _bumped(tab, at)
        assert bumped.relation_checks() == scan_relation_checks(bumped)


@pytest.mark.parametrize("act", (
    lambda lam: 2,                                   # act(1) != I
    lambda lam: 1 if lam % 5 in (1, 4) else 2,       # act(1) = I, not a character
    lambda lam: pow(lam, 2, 5) if lam != 3 else 1,   # omega^2 but at 3 = 2^3
))
@pytest.mark.parametrize("n", (1, 2))
def test_relation_checks_when_the_action_is_not_multiplicative(act, n):
    module = coeffs_by_action(5, n, 1, lambda lam: np.array([[act(lam)]]), "scalar")
    npts = len(enumerate_X(5, n)[0])
    zero = ManinTable(module, np.zeros((npts, 1), dtype=np.int64))
    assert zero.relation_checks() == scan_relation_checks(zero)
    assert all(v is None for v in zero.relation_checks().values())
    assert not _certificate_matches_the_walk(zero)
    rng = np.random.default_rng(n)
    # an omega^2 symbol meets e(2x) = act(2) e(x), 2 generating the units
    symbol = _kernel_tables(power_character_coeffs(5, n, 2))[0].values
    for vals in (np.ones((npts, 1)), rng.integers(0, 5, (npts, 1)), symbol):
        tab = ManinTable(module, vals)
        got = tab.relation_checks()
        assert got == scan_relation_checks(tab)
        assert got["unit-diagonal"] is not None
        assert not _certificate_matches_the_walk(tab)


@pytest.mark.parametrize("p", (37, 211))
def test_passing_table_gets_no_pass_per_unit(p, monkeypatch):
    # every pass over X_n maps it through image_keys, so a count that does
    # not grow with phi(p) means relation (1) was not scanned unit by unit
    tab = e_table(build_cyclo_module(p))
    calls = []

    def counted(*args):
        calls.append(args[-1])
        return image_keys(*args)

    monkeypatch.setattr(manin, "image_keys", counted)
    assert all(v is None for v in tab.relation_checks().values())
    assert len(calls) == 4


@pytest.mark.parametrize("cells", (manin._SLICE_CELLS, 7))
@pytest.mark.parametrize("source", sorted(SYMBOL_SOURCES))
def test_certificate_matches_the_walk_on_symbols(source, cells, monkeypatch):
    # 7 cells cut both checks into slices of one to seven rows
    monkeypatch.setattr(manin, "_SLICE_CELLS", cells)
    for i, tab in enumerate(SYMBOL_SOURCES[source]()):
        assert _certificate_matches_the_walk(tab)
        for at in (0, 7 * i + 3, -1):
            assert not _certificate_matches_the_walk(_bumped(tab, at))


def test_certificate_checks_chi_of_1():
    # chi(h) = B is singular, so chi(1) = T0 != I still meets the chain
    # chi(h^(k+1)) = chi(h^k) B: T0 B = B and B^2 = B.  On rows (c, c),
    # e(hx) = e(x) B holds too, but e(x) = chi(1) e(x) fails at lam = 1
    t0, b = np.array([[1, 0], [0, 0]]), np.array([[1, 1], [0, 0]])
    module = CoeffModule(5, 1, np.stack([t0, b, b, b]), "chi(1) != I")
    tab = ManinTable(module, np.ones((len(enumerate_X(5, 1)[0]), 2)))
    assert not _certificate_matches_the_walk(tab)
    got = tab.relation_checks()
    assert got == scan_relation_checks(tab) and got["unit-diagonal"][2] == 1


@pytest.mark.parametrize("p,dim", ((37, 57), (73, 222)))
def test_certificate_matches_the_walk_on_cyclo_tables(p, dim):
    tab = e_table(build_cyclo_module(p, 1, ("F1", "F2", "F3", "F4")))
    assert tab.module.dim == dim
    assert _certificate_matches_the_walk(tab)
    for at in (0, 1, len(tab.values) // 2, -1):
        assert not _certificate_matches_the_walk(_bumped(tab, at))


def _with_table_row(module, row, p):
    # the module with row `row` of its flattened table, row row % dim of
    # chi(h^k)^T at k = row // dim, moved by one in its first entry
    table = module.table.copy()
    table[row // module.dim, row % module.dim, 0] += 1
    return CoeffModule(p, module.n, table % p, "corrupted")


@pytest.mark.parametrize("p,cells,scan_units", ((37, 2**12, True), (73, None, False)))
def test_certificate_slice_boundaries(p, cells, scan_units, monkeypatch):
    # with the package's slices, at 73, dim 222, check (a) takes ten slices
    # of the 5,328 values and check (b) 27 of the 15,762 table rows it
    # multiplies; slices of 71 rows cut them into 20 and 29 at 37, dim 57.
    # One unit or one value row is corrupted at the first row of the second
    # slice, the first row that slice compares beyond its own, the first
    # row of the last slice, and the last row of all.  A failed certificate
    # scans to the corrupted unit, at 73 up to 72 products with the
    # 5,328 x 222 values, so only 37 compares that scan
    if cells:
        monkeypatch.setattr(manin, "_SLICE_CELLS", cells)
    tab = e_table(build_cyclo_module(p, 1, ("F1", "F2", "F3", "F4")))
    dim, npts, phi = tab.module.dim, len(tab.values), p - 1
    rows, count = manin._SLICE_CELLS // dim, (phi - 1) * dim    # rows (b) multiplies
    assert rows < npts and rows < count
    assert tab._units_certified()
    last = rows * ((count - 1) // rows)
    for row in (0, rows - 1, rows, rows + dim, last, (phi - 1) * dim, phi * dim - 1):
        bad = ManinTable(_with_table_row(tab.module, row, p), tab.values)
        assert not _certificate_matches_the_walk(bad), row
        if scan_units:
            got = bad.relation_checks()
            assert got == scan_relation_checks(bad) and got["unit-diagonal"] is not None, row
    for at in (rows - 1, rows, rows * ((npts - 1) // rows), npts - 1):
        bad = _bumped(tab, at)
        assert not _certificate_matches_the_walk(bad), at
        got = bad.relation_checks()
        assert got == scan_relation_checks(bad) and got["unit-diagonal"] is not None, at


@pytest.mark.parametrize("p", (5, 7, 11))
def test_certificate_at_dim_0(p):
    tab = e_table(build_cyclo_module(p, 2))
    assert tab.module.dim == 0 and tab.module.table.shape == (p * (p - 1), 0, 0)
    assert _certificate_matches_the_walk(tab)
    assert all(v is None for v in tab.relation_checks().values())
