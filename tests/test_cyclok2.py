"""The presented symbol module against two independent reduction oracles.

The first oracle rebuilds the generator-level relation matrix from
scratch (pure Python dictionaries, no shared code) and row-reduces it
with its own elimination.  The package generates its T_2/T_3 rows from
hecke.CLOSED_FORMS; the oracle types its own closed-form Hecke sums, so
a transcription slip in either shows up as a dimension or zero-pattern
mismatch.

The second oracle is the dense build the package no longer runs: every
F4-F7 row in canonical-class coordinates, one row reduction, and the
quotient map read off it.  The package solves one kernel per tame
character instead, and must reproduce this quotient exactly.
"""

import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from cyclomanin import cyclok2, exactlin
from cyclomanin.cyclok2 import (_RELATION_TERMS, ALL_FLAGS, CycloModule,
                                _f7_families, build_cyclo_module, e_manin,
                                e_table, eigen_projector, quotient_coeffs,
                                rho_basis, symbol_class,
                                verify_hecke_eigenvalue, xi_class)
from cyclomanin.exactlin import (is_irregular_pair, is_prime, kernel_mod,
                                 matmul_mod, quotient_map, rref_mod)
from cyclomanin.manin import image_keys, is_supported_at_infty

F14 = ("F1", "F2", "F3", "F4")


def oracle_reduce(p, with_t2=True, with_t3=True):
    """(quotient dim, per-generator is-zero list) for M_{p,1}, from scratch."""
    units = list(range(1, p))
    gens = [(x, y) for x in units for y in units]
    gi = {g: i for i, g in enumerate(gens)}
    rows = []

    def add(terms):
        row = {}
        for c, x, y in terms:
            assert x % p and y % p, "relation slot hit zero"
            k = gi[(x % p, y % p)]
            row[k] = (row.get(k, 0) + c) % p
        row = {k: v for k, v in row.items() if v}
        if row:
            rows.append(row)

    for x in units:
        for y in units:
            add([(1, x, y), (1, y, x)])
            add([(1, -x, y), (-1, x, y)])
            add([(1, x, -y), (-1, x, y)])
            if x == y:
                add([(1, x, y)])
            if (x + y) % p:
                add([(1, x, y), (-1, x + y, y), (-1, x, x + y)])
                if with_t2:
                    # (e|T_2)(x,y) = 2 e(x,y) + e(2x,2y)
                    add([(1, x, 2 * y), (1, 2 * x, y), (1, x + y, 2 * y),
                         (1, 2 * x, x + y), (-2, x, y), (-1, 2 * x, 2 * y)])
                if with_t3 and (x - y) % p:
                    # (e|T_3)(x,y) = 3 e(x,y) + e(3x,3y)
                    add([(1, x, 3 * y), (1, 3 * x, y), (1, x + y, 3 * y),
                         (1, 3 * x, x + y), (1, x - y, 3 * y), (1, 3 * x, x - y),
                         (-3, x, y), (-1, 3 * x, 3 * y)])

    pivots = {}

    def reduce_row(row):
        row = dict(row)
        while row:
            c = min(row)
            if c not in pivots:
                inv = pow(row[c], p - 2, p)
                return c, {k: v * inv % p for k, v in row.items()}
            f = row[c]
            for k, v in pivots[c].items():
                nv = (row.get(k, 0) - f * v) % p
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
        return None, None

    for row in rows:
        c, red = reduce_row(row)
        if c is not None:
            pivots[c] = red
    is_zero = [reduce_row({i: 1})[0] is None for i in range(len(gens))]
    return len(gens) - len(pivots), is_zero


def package_zero_pattern(module):
    grid = module.reduce_matrix
    return [not grid[i].any() for i in range(grid.shape[0])]


@pytest.mark.parametrize("p", (5, 7, 11, 13))
@pytest.mark.parametrize("flags", (F14, ALL_FLAGS))
def test_reduction_matches_oracle(p, flags):
    module = build_cyclo_module(p, 1, flags)
    dim, is_zero = oracle_reduce(p, with_t2="F5" in flags, with_t3="F6" in flags)
    assert module.dim == dim
    assert package_zero_pattern(module) == is_zero


def test_reduction_matches_oracle_p37():
    module = build_cyclo_module(37)
    dim, is_zero = oracle_reduce(37)
    assert module.dim == dim == 1
    assert package_zero_pattern(module) == is_zero


def dense_class_quotient(module):
    """(free, class_to_quot) from one row reduction of all F4-F7 rows."""
    p, pn = module.p, module.pn
    families = [(terms, module.gens) for name, terms in _RELATION_TERMS.items()
                if name in module.flags]
    if "F7" in module.flags:
        families += _f7_families(p, module.n, module.gens)
    blocks = []
    for terms, at in families:
        lookups = [module.gen_index[image_keys(at, pn, mat)] for _, mat in terms]
        mask = np.logical_and.reduce([g >= 0 for g in lookups])
        block = np.zeros((int(mask.sum()), module.n_classes), dtype=np.int64)
        for (coeff, _), g in zip(terms, lookups):
            g = g[mask]
            cls = module.class_of_gen[g]
            ok = cls >= 0
            np.add.at(block, (np.flatnonzero(ok), cls[ok]),
                      coeff * module.sign_of_gen[g[ok]])
        blocks.append(block)
    rref, pivots = rref_mod(np.vstack(blocks), p)
    return quotient_map(rref, pivots, module.n_classes, p)


DENSE_CASES = [(p, 1) for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)] \
    + [(5, 2), (7, 2)]
EXTRA_FLAGS = [sub for r in range(4) for sub in combinations(("F5", "F6", "F7"), r)]


@pytest.mark.parametrize("extra", EXTRA_FLAGS, ids="+".join)
@pytest.mark.parametrize("p,n", DENSE_CASES)
def test_character_build_matches_the_dense_reduction(p, n, extra):
    module = build_cyclo_module(p, n, F14 + extra)
    free, q = dense_class_quotient(module)
    assert np.array_equal(module.class_to_quot, q)
    assert np.array_equal(module.basis_pairs, module.class_reps[free])
    assert module.dim == len(free)
    rm = np.zeros((len(module.gens), len(free)), dtype=np.int64)
    ok = module.class_of_gen >= 0
    rm[ok] = q[module.class_of_gen[ok]] * module.sign_of_gen[ok, None] % p
    assert np.array_equal(module.reduce_matrix, rm)


# regular primes whose quotient keeps extra lines, with the even weights
# k < p at which rho_basis finds them (sigma_a acts by a^(2-k)); at 73, 97,
# 193 and 241 that is the quadratic character
EXTRA_COMPONENTS = {73: (38,), 97: (50,), 139: (70,), 193: (98,), 211: (106, 132),
                    241: (122,)}


def test_dim_is_the_index_of_irregularity():
    for p in (5, 7, 11, 13, 37, 59, 67, 73, 97, 101, 103, 131, 139, 193, 211, 241):
        index = sum(1 for k in range(2, p - 2, 2) if is_irregular_pair(p, k))
        extra = len(EXTRA_COMPONENTS.get(p, ()))
        assert build_cyclo_module(p).dim == index + extra, p


@pytest.mark.parametrize("p", sorted(EXTRA_COMPONENTS))
def test_extra_components_sit_at_their_weights(p):
    module = build_cyclo_module(p)
    found = [k for k in range(2, p, 2) for _ in range(len(rho_basis(module, k)))]
    assert found == list(EXTRA_COMPONENTS[p])


def test_survivors_carry_the_herbrand_characters():
    # each irregular (p,k) contributes one functional on which sigma_a
    # acts by a^(2-k); regular components carry nothing
    for p, kirr in ((37, 32), (59, 44), (67, 58), (101, 68), (103, 24), (131, 22)):
        module = build_cyclo_module(p)
        for k in range(2, p - 2, 2):
            want = 1 if k == kirr else 0
            assert rho_basis(module, k).shape[0] == want, (p, k)


def test_module_validates_arguments():
    for bad in (4, 9, 3, 1):
        with pytest.raises(ValueError):
            build_cyclo_module(bad)
    with pytest.raises(ValueError):
        build_cyclo_module(5, 0)
    with pytest.raises(ValueError):
        build_cyclo_module(5, 1, ("F1", "F2"))
    # refused from the size estimate, before the ~10 TB matrix is allocated
    with pytest.raises(ValueError, match="p\\^n = 1369 is too large"):
        build_cyclo_module(37, 2)


@pytest.mark.parametrize("p, n", [(5, 2), (7, 2), (11, 2), (37, 1), (131, 1), (211, 1)])
def test_build_size_estimate_covers_the_measured_peak(p, n):
    # the size guard refuses a build on this estimate, so it must not
    # undercount; tracemalloc sees every numpy buffer the build allocates
    tracemalloc.start()
    try:
        CycloModule(p, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cyclok2._build_bytes(p, n, frozenset(ALL_FLAGS)) >= peak


SEED_BUILD_BYTES = {
    (5, 2): 904576, (7, 2): 2515072, (11, 2): 23971456, (13, 2): 61038976,
    (5, 3): 157040736, (37, 1): 1164064, (131, 1): 4516480, (211, 1): 9291840,
    (307, 1): 17353920, (1009, 1): 153643648, (37, 2): 27419757952,
}


def test_build_size_estimate_is_pinned():
    # the guard's exit-2 decisions rest on these numbers; the elimination's
    # share comes from exactlin.system_kernels_bytes and must not move them
    got = {pn: cyclok2._build_bytes(*pn, frozenset(ALL_FLAGS)) for pn in SEED_BUILD_BYTES}
    assert got == SEED_BUILD_BYTES


def test_reduce_matrix_is_built_in_place(monkeypatch):
    # generator -> quotient coordinates at a dim 2 build: beside the result
    # and class_to_quot, the step may hold one len(gens) index array only
    p = 211
    module = CycloModule(p)
    want = module.reduce_matrix.copy()
    assert module.dim == 2
    annihilator = module._annihilator()
    echelon = rref_mod(annihilator[:, ::-1], p)
    monkeypatch.setattr(module, "_annihilator", lambda: annihilator)
    monkeypatch.setattr(cyclok2, "rref_mod", lambda a, q: echelon)
    tracemalloc.start()
    try:
        module._reduce()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(module.reduce_matrix, want)
    held = module.reduce_matrix.nbytes + module.class_to_quot.nbytes
    assert peak <= held + 8 * len(module.gens) + 2**16


def test_build_is_cached():
    assert build_cyclo_module(5) is build_cyclo_module(5)
    assert build_cyclo_module(5) is not build_cyclo_module(5, 1, F14)


@pytest.mark.parametrize("p,n", ((5, 1), (7, 1), (5, 2)))
def test_symbol_class_orbit_identities(p, n):
    module = build_cyclo_module(p, n, F14)
    pn = p ** n
    rng = np.random.default_rng(3)
    pairs = rng.integers(1, pn, size=(40, 2))
    for x, y in pairs:
        x, y = int(x), int(y)
        if x % p == 0 or y % p == 0:
            continue
        assert symbol_class(module, y, x) == -symbol_class(module, x, y)
        assert symbol_class(module, -x, y) == symbol_class(module, x, y)
        assert symbol_class(module, x, -y) == symbol_class(module, x, y)
        assert symbol_class(module, x, x).is_zero()
        if (x + y) % pn:
            lhs = symbol_class(module, x, y)
            rhs = symbol_class(module, x + y, y) + symbol_class(module, x, x + y)
            assert lhs == rhs


def test_galois_action_commutes_with_classes():
    module = build_cyclo_module(7, 1, F14)
    for lam in (2, 3, 6):
        g = module.galois_matrix(lam)
        for x, y in ((1, 2), (3, 5), (2, 6)):
            moved = symbol_class(module, lam * x, lam * y).coords
            want = g @ symbol_class(module, x, y).coords % 7
            assert np.array_equal(moved, want)


def test_galois_matrices_are_multiplicative():
    module = build_cyclo_module(5, 1, F14)
    for a in (1, 2, 3, 4):
        for b in (1, 2, 3, 4):
            ab = matmul_mod(module.galois_matrix(a), module.galois_matrix(b), 5)
            assert np.array_equal(ab, module.galois_matrix(a * b % 5))


@pytest.mark.parametrize("p,n", ((5, 1), (7, 1), (5, 2)))
def test_e_manin_is_a_manin_symbol(p, n):
    e_manin(build_cyclo_module(p, n))  # validate() raises on any failure


@pytest.mark.parametrize("p,n", ((5, 1), (7, 1), (37, 1), (5, 2)))
def test_hecke_eigenvalue_identity(p, n):
    rep = verify_hecke_eigenvalue(build_cyclo_module(p, n))
    assert rep.all_pass, rep.to_json()


def test_hecke_eigenvalue_holds_on_f14_builds_too():
    # the identity is a consequence of F5/F6, which hold in any further
    # quotient; on the plain F1-F4 module it can and does fail
    module = build_cyclo_module(5, 1, F14)
    rep = verify_hecke_eigenvalue(module)
    assert not rep.all_pass


def test_f14_fixture_class_is_nonzero_and_full_flags_kill_it():
    small = build_cyclo_module(5, 1, F14)
    assert small.dim == 1
    assert not symbol_class(small, 1, 2).is_zero()
    assert not is_supported_at_infty(e_table(small))
    full = build_cyclo_module(5)
    assert full.dim == 0
    assert symbol_class(full, 1, 2).is_zero()


def test_t2_t3_families_are_not_implied_by_f14():
    assert build_cyclo_module(7, 1, F14).dim == 2
    assert build_cyclo_module(7, 1, F14 + ("F5", "F6")).dim == 0


def test_f7_norm_compatibility_classes():
    module = build_cyclo_module(5, 2, F14 + ("F7",))
    for u in (1, 2, 3, 4, 7):
        for y in (1, 3, 11):
            lhs = symbol_class(module, 5 * u, y)
            rhs = None
            for beta in range(1, 25):
                if beta % 5 == u % 5:
                    term = symbol_class(module, beta, y)
                    rhs = term if rhs is None else rhs + term
            assert lhs == rhs


def test_f7_terms_match_enumeration():
    # p^n = 125 has the families k = 1 and k = 2; a full M_{5,3} build is
    # too slow for the suite, so compare the generated rows themselves
    p, n, pn = 5, 3, 125
    gens = np.array([(x, y) for x in range(1, pn) for y in range(1, pn)])
    got = []
    for terms, at in _f7_families(p, n, gens):
        for u, y in at:
            row = Counter()
            for coeff, (a, b, c, d) in terms:
                row[((a * u + b * y) % pn, (c * u + d * y) % pn)] += coeff
            got.append(sorted(row.items()))
    want = []
    for x in range(p, pn, p):
        k = 1 if x % p**2 else 2
        u = x // p**k
        for y in range(1, pn):
            row = Counter({(x, y): 1})
            for t in range(p**k):
                row[((u + t * p ** (n - k)) % pn, y)] -= 1
            want.append(sorted(row.items()))
    assert sorted(got) == sorted(want)


def test_galois_matrix_rejects_non_units():
    module = build_cyclo_module(5, 2)
    for lam in (0, 5, 30):
        with pytest.raises(ValueError):
            module.galois_matrix(lam)


def test_eigen_projectors_decompose_the_identity():
    module = build_cyclo_module(37)
    p = 37
    total = np.zeros((module.dim, module.dim), dtype=np.int64)
    for j in range(p - 1):
        proj = eigen_projector(module, j)
        assert np.array_equal(matmul_mod(proj, proj, p), proj)
        total = (total + proj) % p
    assert np.array_equal(total, np.eye(module.dim, dtype=np.int64))
    # the one-dimensional quotient is the omega^(2-k) component at k = 32
    j_hit = (1 - (2 - 32)) % 36
    assert np.array_equal(eigen_projector(module, j_hit),
                          np.eye(1, dtype=np.int64))
    assert not eigen_projector(module, (j_hit + 2) % 36).any()


def test_xi_classes_are_antisymmetric_in_the_weight():
    module = build_cyclo_module(37)
    k = 32
    for i in range(2, k - 1):
        assert xi_class(module, k - i, k) == -xi_class(module, i, k)
    assert not xi_class(module, 3, k).is_zero()


def test_f6_rows_regression_value():
    # dim drops to 0 everywhere if any F6 term goes missing; pin one row
    # numerically through the quotient instead of through the term list
    module = build_cyclo_module(37, 1, F14 + ("F6",))
    x, y = 2, 5
    acc = symbol_class(module, x, 3 * y) + symbol_class(module, 3 * x, y) \
        - symbol_class(module, 3 * y, x + y) - symbol_class(module, 3 * y, y - x) \
        + symbol_class(module, 3 * x, x + y) + symbol_class(module, 3 * x, y - x) \
        - symbol_class(module, 3 * x, 3 * y) + symbol_class(module, y, y - x) \
        + symbol_class(module, y, x + y) - symbol_class(module, x, y - x) \
        - symbol_class(module, x, y) - symbol_class(module, x, x + y)
    assert acc.is_zero()


def test_quotient_coeffs_exposes_the_galois_action():
    module = build_cyclo_module(7, 1, F14)
    coeffs = quotient_coeffs(module)
    assert coeffs.dim == module.dim
    for a in (2, 3):
        assert np.array_equal(coeffs.act(a), module.galois_matrix(a))


def test_module_builds_do_not_load_numpy_ma():
    # np.unique and np.setdiff1d import numpy.ma on first use, about 1 MiB
    # of module code no build needs, and numpy.random, which the build's
    # compressors could have come from, about 6 MiB; a fresh interpreter
    # shows whether any step of a build and its checks pulls either in
    script = (
        "import sys\n"
        "from cyclomanin.cyclok2 import build_cyclo_module, e_manin, "
        "verify_hecke_eigenvalue\n"
        "from cyclomanin.lvalues import lvalue_identity_report\n"
        "module = build_cyclo_module(37)\n"
        "e_manin(module)\n"
        "verify_hecke_eigenvalue(module)\n"
        "lvalue_identity_report(37, 32)\n"
        "build_cyclo_module(5, 2)\n"
        "print('numpy.ma' in sys.modules, 'numpy.random' in sys.modules)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "False"]


def per_character_kernels(build, keys, p):
    # each system densified from its triplets by np.add.at, shared with no
    # code of the build, and solved as it is
    kernels = {}
    for key in keys:
        rows, cols, vals, shape = build(key)
        a = np.zeros(shape, dtype=np.int64)
        np.add.at(a, (rows, cols), vals % p)
        kernels[key] = kernel_mod(a, p)
    return kernels


FOLDED_BUILDS = ([(p, 1) for p in range(47, 132) if is_prime(p)]
                 + [(137, 1), (139, 1), (149, 1), (211, 1), (5, 2), (7, 2), (11, 2)])


@pytest.mark.parametrize("p, n", FOLDED_BUILDS,
                         ids=[f"{p}" if n == 1 else f"{p}-{n}" for p, n in FOLDED_BUILDS])
def test_compressed_build_matches_per_character_kernels(p, n, monkeypatch):
    # every character system of these builds is tall, narrow ones (n = 1,
    # p <= 131) and wide ones alike, so the build folds all of them and,
    # with its fixed sketches, never falls back: kernel_mod only sees the
    # (w + 16) x w folds.  The unfolded kernels must give the same module
    solved = []
    monkeypatch.setattr(exactlin, "kernel_mod",
                        lambda a, p: solved.append(a.shape) or kernel_mod(a, p))
    module = CycloModule(p, n)
    assert all(m == w + exactlin._SLACK for m, w in solved), solved
    assert bool(solved) == (p > 131 or n > 1)
    monkeypatch.undo()
    monkeypatch.setattr(cyclok2, "system_kernels", per_character_kernels)
    plain = CycloModule(p, n)
    assert module.dim == plain.dim
    for name in ("class_to_quot", "basis_pairs", "reduce_matrix"):
        assert np.array_equal(getattr(module, name), getattr(plain, name)), name
