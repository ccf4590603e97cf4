"""Exact mod-p linear algebra against brute-force and rational oracles."""

import math
from collections import Counter

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from cyclomanin import exactlin
from cyclomanin.exactlin import (_PANEL, _RREF_BLOCK, _SLACK, _bernoulli_table_mod,
                                 _panel_width, bernoulli_over_k_mod,
                                 check_int64_sums, check_prime,
                                 coords_in_rowspace, int64_terms, inv_mod,
                                 inv_mod_matrix, irregular_weights, is_irregular_pair,
                                 is_prime, kernel_mod, matmul_mod, omega_pow,
                                 power_table, primitive_root, quotient_map,
                                 rref_mod, stack_kernels, system_kernels,
                                 unit_group)


@st.composite
def matrix_mod_p(draw):
    p = draw(st.sampled_from((2, 3, 5, 13)))
    nr = draw(st.integers(1, 6))
    nc = draw(st.integers(1, 6))
    a = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=nc, max_size=nc),
                      min_size=nr, max_size=nr))
    return np.array(a, dtype=np.int64), p


@given(matrix_mod_p())
@settings(max_examples=200, deadline=None)
def test_rref_is_canonical(case):
    a, p = case
    rref, piv = rref_mod(a, p)
    assert rref.shape == (len(piv), a.shape[1])
    assert list(piv) == sorted(piv) and len(set(piv)) == len(piv)
    for i, c in enumerate(piv):
        col = rref[:, c]
        assert col[i] == 1 and not np.delete(col, i).any()
        assert not rref[i, :c].any()


@given(matrix_mod_p())
@settings(max_examples=200, deadline=None)
def test_rref_preserves_rowspace(case):
    a, p = case
    rref, piv = rref_mod(a, p)
    # original rows sit inside the rref rowspace and vice versa
    _, ok = coords_in_rowspace(rref, piv, a % p, p)
    assert ok.all()
    again, piv2 = rref_mod(np.vstack([a % p, rref]), p)
    assert np.array_equal(again, rref) and list(piv2) == list(piv)


@given(matrix_mod_p())
@settings(max_examples=200, deadline=None)
def test_kernel_rank_nullity(case):
    a, p = case
    ker = kernel_mod(a, p)
    rank = rref_mod(a, p)[0].shape[0]
    assert ker.shape == (a.shape[1] - rank, a.shape[1])
    assert not (matmul_mod(a, ker.T, p)).any()
    assert rref_mod(ker, p)[0].shape[0] == ker.shape[0]


@given(matrix_mod_p(), st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_coords_roundtrip(case, seed):
    a, p = case
    rref, piv = rref_mod(a, p)
    rng = np.random.default_rng(seed)
    coeff = rng.integers(0, p, size=(3, rref.shape[0]))
    v = matmul_mod(coeff, rref, p)
    got, ok = coords_in_rowspace(rref, piv, v, p)
    assert ok.all() and np.array_equal(got, coeff % p)


def test_rref_reads_unreduced_blocks_without_copying():
    # taller than two blocks, with pivots first appearing in later blocks
    p = 7
    rng = np.random.default_rng(11)
    a = rng.integers(-3 * p, 3 * p, size=(2 * _RREF_BLOCK + 100, 12))
    a[:_RREF_BLOCK, 10:] = 0
    a[:2 * _RREF_BLOCK, 11] = 0
    a[:, 4] = -a[:, 3]                # a dependent column keeps 4 free
    a[:3] = p * rng.integers(-3, 3, size=(3, 12))   # zero mod p, not as integers
    a[0, 0] = p
    before = a.copy()
    rref, piv = rref_mod(a, p)
    want, want_piv = rref_mod(a % p, p)
    assert np.array_equal(rref, want) and piv == want_piv
    assert 10 in piv and 11 in piv and 4 not in piv
    assert np.array_equal(kernel_mod(a, p), kernel_mod(a % p, p))
    assert np.array_equal(a, before)


def test_rref_and_kernel_of_empty_shapes():
    # no columns, no rows, or neither: nothing to pivot, and the kernel is
    # the whole space
    for m, n in ((3, 0), (0, 3), (0, 0)):
        rref, piv = rref_mod(np.zeros((m, n), dtype=np.int64), 7)
        assert rref.shape == (0, n) and piv == []
        assert np.array_equal(kernel_mod(np.zeros((m, n), dtype=np.int64), 7),
                              np.eye(n, dtype=np.int64))
    for ker in stack_kernels(np.zeros((2, 3, 0), dtype=np.int64), 7):
        assert ker.shape == (0, 0)


def test_coords_rejects_outside_vectors():
    # a single vector is one row: the return is (coeff, mask) either way
    rref, piv = rref_mod(np.array([[1, 0, 2]], dtype=np.int64), 5)
    coeff, ok = coords_in_rowspace(rref, piv, np.array([0, 1, 0]), 5)
    assert coeff.shape == (1, 1) and ok.tolist() == [False]
    coeff, ok = coords_in_rowspace(rref, piv, np.array([-2, 0, -4]), 5)
    assert coeff.tolist() == [[3]] and ok.tolist() == [True]


@pytest.mark.parametrize("p", (5, 7, 11, 37))
def test_power_table_matches_pow(p):
    bases = np.array([[0, 1, -1], [2, p - 2, 3 * p + 5]])
    # n = 2^m - 1, 2^m and 2^m + 1 end the doubling on and next to its steps
    for n in (0, 1, 2, 3, 15, 16, 17, 63, 64, 65, 2 * p):
        tab = power_table(bases, n, p)
        assert tab.shape == (2, 3, n + 1)
        for idx in np.ndindex(bases.shape):
            b = int(bases[idx])
            assert tab[idx].tolist() == [pow(b, e, p) for e in range(n + 1)]
        for b in (0, 3):
            assert power_table(b, n, p).tolist() == [pow(b, e, p) for e in range(n + 1)]


def loop_rref(a, p):
    """RREF by one elimination step per column: the oracle for rref_mod."""
    rows = np.mod(a, p)
    pivots = []
    for c in range(rows.shape[1]):
        r = len(pivots)
        nz = np.flatnonzero(rows[r:, c])
        if not nz.size:
            continue
        rows[[r, r + nz[0]]] = rows[[r + nz[0], r]]
        rows[r] = rows[r] * pow(int(rows[r, c]), -1, p) % p
        others = np.arange(len(rows)) != r
        rows[others] = (rows[others] - np.outer(rows[others, c], rows[r])) % p
        pivots.append(c)
    return rows[:len(pivots)], pivots


def panel_matrix(layout, m, n, p, rng):
    """An unreduced m x n matrix whose pivots fall only where `layout` says.

    Columns outside `new` are combinations of new columns to their left.
    """
    width = _panel_width(n, p) or n
    if layout == "zero":
        new = []
    elif layout == "random":
        new = list(range(n))
    elif layout == "empty-panel":      # nothing new in the second panel
        new = [c for c in range(n) if not width <= c < 2 * width]
    else:                               # "edges": either side of each panel edge
        new = sorted({c for e in range(width, n, width) for c in (e - 1, e)} | {0})
    new = np.array(new, dtype=np.int64)
    mix = rng.integers(-2, 3, size=(len(new), n)) * (new[:, None] < np.arange(n))
    mix[np.arange(len(new)), new] = 1
    base = rng.integers(-p, p, size=(m, len(new))) * (rng.random((m, len(new))) < 0.5)
    return base @ mix + p * rng.integers(-2, 3, size=(m, n))


@pytest.mark.parametrize("p", (2, 7, 1000000007))
@pytest.mark.parametrize("n", (_PANEL - 1, _PANEL, _PANEL + 1, 2 * _PANEL + 1))
@pytest.mark.parametrize("layout", ("random", "zero", "empty-panel", "edges"))
def test_rref_matches_the_column_loop(layout, n, p):
    rng = np.random.default_rng(n + p)
    for m in (n // 2, 3 * n):
        a = panel_matrix(layout, m, n, p, rng)
        before = a.copy()
        rref, piv = rref_mod(a, p)
        want, want_piv = loop_rref(a, p)
        assert piv == want_piv
        assert np.array_equal(rref, want)
        assert np.array_equal(a, before)


@pytest.mark.parametrize("p", (5, 1000000007, 3037000493))
def test_int64_terms_is_the_exact_bound(p):
    terms = int64_terms(p)
    assert terms * (p - 1) ** 2 < 2**62 <= (terms + 1) * (p - 1) ** 2
    check_int64_sums(terms, p)
    with pytest.raises(ValueError, match=f"p = {p} is too large"):
        check_int64_sums(terms + 1, p)


def test_panels_narrow_to_keep_the_update_exact():
    assert _panel_width(_PANEL, 7) == 0
    assert _panel_width(_PANEL + 1, 7) == math.isqrt(_PANEL + 1)
    assert _panel_width(10**6, 7) == _PANEL
    assert _panel_width(2 * _PANEL + 1, 1000000007) == 4   # 4 (p-1)^2 < 2^62
    assert _panel_width(2 * _PANEL + 1, 3037000493) == 0   # (p-1)^2 >= 2^62


def low_rank(rng, m, n, rank, p):
    """An unreduced m x n matrix of rank at most `rank` mod p."""
    return (rng.integers(-p, p, size=(m, rank)) @ rng.integers(0, p, size=(rank, n))
            + p * rng.integers(-2, 3, size=(m, n)))


@pytest.mark.parametrize("p", (2, 7, 1000000007))
def test_stack_kernels_match_kernel_mod(p):
    rng = np.random.default_rng(p % 1000)
    dims = []
    for m, n in ((1, 1), (5, 3), (3, 9), (40, _PANEL), (70, _PANEL + 5), (300, _PANEL)):
        # members of every rank, so they pivot in different rows and columns;
        # the last stack is tall enough for the update to take several slices
        ranks = sorted({0, 1, min(m, n) // 2, min(m, n)})
        stack = np.stack([low_rank(rng, m, n, r, p) for r in ranks * 2])
        got = stack_kernels(stack % p, p)
        for member, ker in zip(stack, got):
            assert np.array_equal(ker, kernel_mod(member, p))
            dims.append(len(ker))
    assert 0 in dims and max(dims) > 1


def coordinate_form(a, seed=0):
    """a as the triplets system_kernels takes: each nonzero entry split into
    two values that sum to it, in a shuffled order."""
    rng = np.random.default_rng(seed)
    r, c = np.nonzero(a)
    part = rng.integers(-3, 4, size=len(r))
    rows, cols = np.concatenate([r, r]), np.concatenate([c, c])
    vals = np.concatenate([part, a[r, c] - part])
    order = rng.permutation(len(rows))
    return rows[order], cols[order], vals[order], a.shape


def narrow_systems(rng, p):
    """Systems of every kind system_kernels sorts: tall ones, narrow and
    wide, which it folds, some with nonempty kernels, and short ones, which
    it hands to kernel_mod as they are."""
    systems = []
    for w in (1, 5, _PANEL, _PANEL + 5):
        for rank in (0, w // 2, w - 1, w):
            systems.append(low_rank(rng, 3 * w + _SLACK + 1, w, rank, p))
    systems.append(low_rank(rng, _SLACK + 3, 3, 2, p))        # not tall enough
    systems.append(low_rank(rng, _SLACK + 30, _PANEL + 20, 20, p))
    return systems


def is_tall(a):
    return len(a) > a.shape[1] + _SLACK


@pytest.mark.parametrize("p", (5, 101, 1000003, 1000000007))
def test_system_kernels_match_kernel_mod(p):
    systems = narrow_systems(np.random.default_rng(p), p)
    built = Counter()

    def build(key):
        built[key] += 1
        return coordinate_form(systems[key], key)

    got = system_kernels(build, range(len(systems)), p)
    assert sorted(got) == list(range(len(systems)))
    for key, a in enumerate(systems):
        ker = kernel_mod(a, p)
        assert np.array_equal(got[key], ker), key
        # a system is built again only to certify a nonempty kernel of its fold
        assert built[key] == 1 + (is_tall(a) and len(ker) > 0), key
    assert sum(len(k) > 0 for k in got.values()) >= 8


def test_system_kernels_fall_back_past_a_rank_deficient_compressor(monkeypatch):
    # a sketch with every row in one of 2 buckets folds A to rank at most 2:
    # the certificate A K^T = 0 must catch every system of rank above 2 and
    # hand it to kernel_mod, and the full-rank ones must not pass unchecked
    p = 101
    systems = narrow_systems(np.random.default_rng(7), p)
    want = [kernel_mod(a, p) for a in systems]
    draw = exactlin._sketch
    spy = exactlin.kernel_mod
    solved = []

    def two_buckets(m, w, p):
        bucket, mult = draw(m, w, p)
        return bucket % 2, mult

    def counting(a, p):
        solved.append(a.shape)
        return spy(a, p)

    monkeypatch.setattr(exactlin, "_sketch", two_buckets)
    monkeypatch.setattr(exactlin, "kernel_mod", counting)
    got = system_kernels(lambda key: coordinate_form(systems[key]), range(len(systems)), p)
    for key, ker in enumerate(want):
        assert np.array_equal(got[key], ker), key
    tall = [a for a in systems if is_tall(a)]
    refused = [a.shape for a in tall if a.shape[1] - len(kernel_mod(a, p)) > 2]
    assert len(refused) >= 7
    short = [a.shape for a in systems if not is_tall(a)]
    wide = [(w + _SLACK, w) for _, w in (a.shape for a in tall) if w > _PANEL]
    assert Counter(solved) == Counter(refused + short + wide)


def test_fold_sums_residues_exactly_or_refuses():
    p = 3037000493
    rows = np.zeros(1000, dtype=np.int64)
    vals = np.full(1000, -1, dtype=np.int64)         # each p - 1 once reduced
    assert exactlin._fold(rows, rows, vals, (2, 1), p).tolist() == [[p - 1000], [0]]
    # pages of np.zeros are never touched: the guard refuses before summing
    big = np.zeros(2**53 // (p - 1) + 1, dtype=np.int64)
    with pytest.raises(ValueError, match="float64 sums"):
        exactlin._fold(big, big, big, (1, 1), p)


def test_prime_check_matches_sympy():
    assert [n for n in range(-3, 200) if is_prime(n)] == \
        [n for n in range(-3, 200) if sympy.isprime(n)]
    check_prime(5, least=5)
    check_prime(3037000493)          # the largest prime with p^2 < 2^63
    for bad, least in ((4, 2), (9, 5), (3, 5), (1, 2), (-7, 2), (3037000507, 2)):
        with pytest.raises(ValueError):
            check_prime(bad, least=least)


def test_matmul_mod_int64_branch_and_bound():
    rng = np.random.default_rng(3)
    for p in (100000007, 2147483647):
        a = rng.integers(0, p, size=(2, 3))
        b = rng.integers(0, p, size=(3, 2))
        want = [[sum(int(a[i, t]) * int(b[t, j]) for t in range(3)) % p
                 for j in range(2)] for i in range(2)]
        if 3 * (p - 1) ** 2 < 2**62:
            assert matmul_mod(a, b, p).tolist() == want
        else:
            with pytest.raises(ValueError, match=f"p = {p} is too large"):
                matmul_mod(a, b, p)


def test_quotient_map_kills_the_row_space():
    a = np.array([[1, 2, 0, 3], [0, 0, 1, 4]])
    rref, piv = rref_mod(a, 5)
    free, q = quotient_map(rref, piv, 4, 5)
    assert free.tolist() == [1, 3]
    assert not matmul_mod(a, q, 5).any()
    assert q[free].tolist() == [[1, 0], [0, 1]]
    free, q = quotient_map(np.zeros((0, 3), dtype=np.int64), [], 3, 5)
    assert q.tolist() == np.eye(3).tolist()


def test_inv_mod_matrix():
    a = np.array([[2, 1], [1, 1]], dtype=np.int64)
    assert np.array_equal(matmul_mod(a, inv_mod_matrix(a, 7), 7), np.eye(2))
    with pytest.raises(ValueError):
        inv_mod_matrix(np.array([[1, 2], [2, 4]], dtype=np.int64), 7)


@pytest.mark.parametrize("p", (5, 7, 11, 37))
def test_inv_mod(p):
    for x in range(1, p):
        assert x * inv_mod(x, p) % p == 1


@pytest.mark.parametrize("m", (5, 8, 25, 49))
def test_unit_group(m):
    units = unit_group(m)
    import math
    assert [int(u) for u in units] == [x for x in range(1, m) if math.gcd(x, m) == 1]


@pytest.mark.parametrize("p", (5, 7, 11, 13, 37, 101))
def test_primitive_root_generates(p):
    g = primitive_root(p)
    assert sorted(pow(g, i, p) for i in range(p - 1)) == list(range(1, p))


def test_omega_pow_is_a_character():
    p = 13
    for a in range(1, p):
        for b in range(1, p):
            for j in (0, 1, 5, 12, -3):
                assert (omega_pow(a, j, p) * omega_pow(b, j, p) % p
                        == omega_pow(a * b, j, p))
    assert omega_pow(6, 1, p) == 6
    assert omega_pow(6, p - 1, p) == 1
    with pytest.raises(ValueError):
        omega_pow(13, 2, 13)


@pytest.mark.parametrize("p", (5, 7, 11, 13, 37))
def test_bernoulli_over_k_matches_rationals(p):
    # exact rational oracle, reduced mod p when p-integral
    for k in range(2, 41, 2):
        frac = sympy.Rational(sympy.bernoulli(k), k)
        if k % (p - 1) == 0:
            assert frac.q % p == 0     # von Staudt-Clausen pole
            with pytest.raises(ValueError):
                bernoulli_over_k_mod(k, p)
            continue
        assert frac.q % p != 0
        want = frac.p % p * inv_mod(frac.q % p, p) % p
        assert bernoulli_over_k_mod(k, p) == want


def test_bernoulli_kummer_congruence():
    # B_k/k depends only on k mod p-1 away from the pole
    for p in (5, 7, 11, 13):
        for k0 in range(2, p - 2, 2):
            for t in (1, 2, 5):
                assert (bernoulli_over_k_mod(k0 + t * (p - 1), p)
                        == bernoulli_over_k_mod(k0, p))


def test_irregular_pairs_known_list():
    classical = {(37, 32), (59, 44), (67, 58), (101, 68), (103, 24),
                 (131, 22), (149, 130), (157, 62), (157, 110)}
    found = set()
    for p in (5, 7, 11, 13, 37, 59, 67, 101, 103, 131, 149, 157):
        for k in range(2, p - 2, 2):
            if is_irregular_pair(p, k):
                found.add((p, k))
    assert found == classical


@pytest.mark.parametrize("p", [p for p in range(3, 420) if is_prime(p)])
def test_irregular_weights_match_per_k_lookups(p):
    # Voronoi's congruence against the Bernoulli recursion: one table of
    # B_0..B_(p-3) mod p, where p | B_k/k exactly when p | B_k (k < p)
    table = _bernoulli_table_mod(p - 3, p)
    want = [k for k in range(2, p - 2, 2) if table[k] == 0]
    assert irregular_weights(p) == want
    # and the per-k lookup at the ends of the range and at every hit
    for k in {2, p - 3, *want} & set(range(2, p - 2, 2)):
        assert is_irregular_pair(p, k) == (k in want)


def test_irregular_weights_at_1009_and_2003():
    # 1009 is regular, although M_{1009,1} keeps one extra line
    assert irregular_weights(1009) == []
    assert irregular_weights(2003) == [60, 600]
    for k in (60, 600):
        assert sympy.Rational(sympy.bernoulli(k), k).p % 2003 == 0


def test_irregular_weights_refuse_inexact_sums_before_allocating(monkeypatch):
    # the largest prime with p^2 < 2^63: check_prime accepts it, but the
    # int64 dot product could pass 2^62; a missing guard would ask np.arange
    # for a 24 GB array, so make any such call fail loudly instead
    def no_arange(*args, **kwargs):
        raise AssertionError("np.arange called before the int64 guard")

    monkeypatch.setattr(np, "arange", no_arange)
    with pytest.raises(ValueError, match="too large"):
        irregular_weights(3037000493)


def test_irregular_weights_need_an_odd_prime():
    for bad in (2, 9, 1):
        with pytest.raises(ValueError):
            irregular_weights(bad)


def test_irregular_pair_false_at_pole():
    assert is_irregular_pair(5, 8) is False
    assert is_irregular_pair(7, 36) is False
