"""The presented symbol module against two independent reduction oracles.

The first oracle rebuilds the generator-level relation matrix from
scratch (pure Python dictionaries, no shared code) and row-reduces it
with its own elimination.  The package generates its T_2/T_3 rows from
hecke.CLOSED_FORMS; the oracle types its own closed-form Hecke sums, so
a transcription slip in either shows up as a dimension or zero-pattern
mismatch.

The F1-F3 classes the package reads from a closed-form table are checked
against a search for the least of each key's eight images.

The second oracle is the dense build the package no longer runs: every
F4-F7 row in canonical-class coordinates, one row reduction, and the
quotient map read off it.  The package solves one kernel per character
of a unit group instead, and must reproduce this quotient exactly.

At n >= 2 the build first solves the systems of the whole unit group,
whose kernels span W^P, P = 1 + pZ, and builds the tame systems only when
those kernels are not all empty.  The tests check dim W^P against
dim M - rank(sigma_{1+p} - 1), with dim M from the tame systems, and
which systems each build solves.
"""

import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cyclomanin import cyclok2, exactlin, manin
from cyclomanin.cyclok2 import (_RELATION_TERMS, ALL_FLAGS, CycloModule,
                                _f7_families, build_cyclo_module, e_manin,
                                e_table, quotient_coeffs, rho_basis,
                                verify_hecke_eigenvalue, xi_class)
from cyclomanin.exactlin import (is_irregular_pair, is_prime, kernel_mod,
                                 matmul_mod, power_table, primitive_root,
                                 quotient_map, rref_mod, system_kernels,
                                 unit_group, unit_logs)
from cyclomanin.manin import enumerate_X, image_keys, is_supported_at_infty
from oracles import (canonical_class_index, canonical_classes, eigen_projector,
                     orbits_by_walk)

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
    # the unit pairs (x, y) in lex order, as oracle_reduce lists them
    units = np.arange(1, module.p)
    keys = (units[:, None] * module.p + units).ravel()
    return [not row.any() for row in module.reduce_matrix[keys]]


CLASS_CASES = [(p, 1) for p in range(5, 44) if is_prime(p)] + [(5, 2), (7, 2), (11, 2),
                                                                 (13, 2), (5, 3)]


@pytest.mark.parametrize("p,n", CLASS_CASES)
def test_closed_form_classes_match_the_eight_image_search(p, n):
    # class and sign at every key x*p^n + y, and the classes in lex order
    module = build_cyclo_module(p, n)
    reps, cls, sign = canonical_class_index(module.pn)
    assert np.array_equal(module.class_reps, reps)
    got_cls, got_sign = cyclok2._class_sign(module._class_table, np.arange(module.pn ** 2))
    assert np.array_equal(got_cls, cls)
    assert np.array_equal(got_sign, sign)


@pytest.mark.parametrize("p,n", [(2003, 1), (43, 2)])
def test_closed_form_classes_on_random_keys(p, n):
    # no module is built: M_{2003,1} takes most of a minute, and the size
    # guard refuses 43^2
    pn = p**n
    keys = np.random.default_rng(pn).integers(0, pn * pn, size=10**5)
    rep, sign = canonical_classes(keys, pn)
    reps, table = cyclok2._symbol_classes(pn)
    rep_keys = reps[:, 0] * pn + reps[:, 1]
    assert (np.diff(rep_keys) > 0).all()
    cls, got_sign = cyclok2._class_sign(table, keys)
    assert np.array_equal(got_sign, sign)
    assert np.array_equal(np.where(cls >= 0, rep_keys[cls], -1), rep)
    assert 0 < (rep < 0).sum() < len(keys)


def stages(p, n):
    """(wild, t, steps) per stage of the build: the group of p-part wild is
    generated by t, and t^steps = -1."""
    h = primitive_root(p, n)
    return [(wild, pow(h, p ** (n - 1) // wild, p**n), wild * (p - 1) // 2)
            for wild in dict.fromkeys((p ** (n - 1), 1))]


def check_orbit_labels(p, labels, members, walk):
    """Compare the closed-form labels at the classes `members` with the walk
    of the same classes, each orbit through its first member; returns the
    live characters per member."""
    orbit, sign, back, live = labels
    least, step, wsign, length, stab = walk
    firsts = np.unique(orbit[members], return_index=True)[1]
    first = np.searchsorted(orbit[members][firsts], orbit[members])
    # the same partition: one least class per label, and no two labels share one
    assert np.array_equal(least, least[firsts][first])
    assert len(set(least[firsts].tolist())) == len(firsts)
    # the same live characters: g^(j length) is the stabiliser sign
    gpow = power_table(primitive_root(p), p - 2, p)
    js = np.arange(p - 1)[:, None]
    live_c = live[:, orbit[members]]
    assert np.array_equal(live_c, gpow[js * length % (p - 1)] == stab % p)
    # each live lift sign[c] g^(j back[c]) is a multiple of the walk's
    # wsign[c] g^(-j step[c]); their ratio is constant on each orbit
    ratio = sign[members] * wsign * gpow[js * (back[members] + step) % (p - 1)] % p
    assert ((ratio == ratio[:, firsts][:, first]) | ~live_c).all()
    return live_c


@pytest.mark.parametrize("p,n", CLASS_CASES)
def test_orbit_labels_match_the_walk(p, n):
    # both stages, every class: at p = 1 mod 4 some orbits are fixed by a
    # swap t^m (a, b) = +-(b, a), and the characters that contradict its
    # sign must be dead there
    module = build_cyclo_module(p, n)
    for wild, t, steps in stages(p, n):
        labels = cyclok2._orbit_labels(module._class_table, p, n, wild)
        live = check_orbit_labels(p, labels, np.arange(module.n_classes),
                                  orbits_by_walk(module, t, steps))
        assert labels[3].shape[1] == len(set(labels[0].tolist()))
        assert live[1::2].sum() == 0 and live[::2].any()


@pytest.mark.parametrize("p,n", [(2003, 1), (43, 2)])
def test_orbit_labels_on_random_classes(p, n):
    # no module is built: 10^4 random classes, and the first class of every
    # orbit, are walked alone, at each stage
    reps, table = cyclok2._symbol_classes(p**n)
    classes = SimpleNamespace(_class_table=table, class_reps=reps, pn=p**n,
                              n_classes=len(reps))
    sample = np.random.default_rng(p**n).integers(0, len(reps), size=10**4)
    for wild, t, steps in stages(p, n):
        labels = cyclok2._orbit_labels(table, p, n, wild)
        members = np.concatenate([np.unique(labels[0], return_index=True)[1], sample])
        check_orbit_labels(p, labels, members, orbits_by_walk(classes, t, steps, members))


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
    """(free, class_to_quot) from one row reduction of all F4-F7 rows, at
    every pair of nonzero slots, over the classes of the eight-image search."""
    p, pn = module.p, module.pn
    reps, cls_of, sign_of = canonical_class_index(pn)
    xs, ys = np.divmod(np.arange(pn * pn), pn)
    points = np.stack([xs, ys], axis=1)[(xs != 0) & (ys != 0)]
    families = [(terms, points) for name, terms in _RELATION_TERMS.items()
                if name in module.flags]
    if "F7" in module.flags:
        families += _f7_families(p, module.n, points)
    blocks = []
    for terms, at in families:
        keys = [image_keys(at, pn, mat) for _, mat in terms]
        mask = np.logical_and.reduce([(key >= pn) & (key % pn > 0) for key in keys])
        block = np.zeros((int(mask.sum()), len(reps)), dtype=np.int64)
        for (coeff, _), key in zip(terms, keys):
            cls, sign = cls_of[key[mask]], sign_of[key[mask]]
            ok = cls >= 0
            np.add.at(block, (np.flatnonzero(ok), cls[ok]), coeff * sign[ok])
        blocks.append(block)
    rref, pivots = rref_mod(np.vstack(blocks), p)
    return quotient_map(rref, pivots, len(reps), p)


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
    # one row per key x*p^n + y, zero where the symbol dies
    _, cls, sign = canonical_class_index(module.pn)
    rm = np.where(cls[:, None] >= 0, q[cls] * sign[:, None] % p, 0)
    assert np.array_equal(module.reduce_matrix, rm)


WILD_CASES = [(5, 2), (7, 2), (11, 2), (13, 2), (5, 3)]


@pytest.mark.parametrize("extra", EXTRA_FLAGS, ids="+".join)
@pytest.mark.parametrize("p,n", WILD_CASES)
def test_unit_group_kernels_are_the_dual_of_the_coinvariants(p, n, extra, monkeypatch):
    # the whole-group kernels span W^P, the dual of M_P = M / (sigma_{1+p} - 1) M,
    # so their count is dim M - rank(sigma_{1+p} - 1), and 0 exactly when M
    # is.  The spy adds a zero row to them, so that every build goes on to
    # the tame systems and dim M comes from those
    found = []

    def spy(build, keys, q):
        kernels = system_kernels(build, keys, q)
        found.append(sum(map(len, kernels.values())))
        if len(found) == 1:
            kernels[keys[0]] = np.zeros((1, build(keys[0])[3][1]), dtype=np.int64)
        return kernels

    monkeypatch.setattr(cyclok2, "system_kernels", spy)
    module = CycloModule(p, n, F14 + extra)
    assert len(found) == 2
    step = module.galois_matrix(1 + p) - np.eye(module.dim, dtype=np.int64)
    assert found[0] == module.dim - len(rref_mod(step, p)[1])
    assert (found[0] == 0) == (module.dim == 0)


def orbit_count(module, units):
    """The number of orbits of the classes under scaling by `units`."""
    reps, cls, _ = canonical_class_index(module.pn)
    least = np.arange(len(reps))
    for lam in units:
        least = np.minimum(least, cls[image_keys(reps, module.pn, (int(lam), 0, 0, int(lam)))])
    return len(set(least.tolist()))


@pytest.mark.parametrize("p, flags, dim", [(11, ALL_FLAGS, 0),
                                           (13, F14 + ("F6", "F7"), 1)])
def test_tame_systems_are_solved_only_when_w_p_is_nonzero(p, flags, dim, monkeypatch):
    # the widest system of each call to system_kernels has a column per orbit
    # of a group: first the whole unit group, then mu_{p-1} only if the
    # first kernels are not all empty
    widths = []

    def spy(build, keys, q):
        widths.append(max(build(key)[3][1] for key in keys))
        return system_kernels(build, keys, q)

    monkeypatch.setattr(cyclok2, "system_kernels", spy)
    module = CycloModule(p, 2, flags)
    assert module.dim == dim
    units = unit_group(p * p)
    groups = [units, [u for u in units if pow(int(u), p - 1, p * p) == 1]]
    assert widths == [orbit_count(module, g) for g in groups[:1 + dim]]


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


def test_unknown_relation_families_are_refused():
    # as cli.parse_flags does: a misspelt F5 would otherwise build the
    # F1-F4 module and still list "f5" in its flags
    with pytest.raises(ValueError, match="unknown relation families F8, f5"):
        CycloModule(7, 1, ("F1", "F2", "F3", "F4", "F8", "f5"))


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
    # key -> quotient coordinates at a dim 2 build: beside the result and
    # class_to_quot, the step may hold one index array over the p^2 keys only
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
    assert peak <= held + 8 * module.pn ** 2 + 2**16


def test_build_is_cached():
    assert build_cyclo_module(5) is build_cyclo_module(5)
    assert build_cyclo_module(5) is not build_cyclo_module(5, 1, F14)


def test_cached_arrays_are_read_only():
    # build_cyclo_module, enumerate_X, unit_logs and CoeffModule.act hand out
    # cached arrays, so a write through one, such as gen_coords(1, 2) += 1,
    # would change later answers
    module = build_cyclo_module(37)
    names = ("reduce_matrix", "class_to_quot", "basis_pairs", "class_reps", "_class_table")
    for arr in [getattr(module, name) for name in names] + [
            module.gen_coords(1, 2), *enumerate_X(37, 1), *unit_logs(37, 1), *unit_logs(5, 2),
            quotient_coeffs(module).act(2), quotient_coeffs(module).table]:
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = arr       # a write that would change nothing


@pytest.mark.parametrize("p,n", ((5, 1), (7, 1), (5, 2)))
def test_symbol_class_orbit_identities(p, n):
    module = build_cyclo_module(p, n, F14)
    c = module.gen_coords
    pn = p ** n
    rng = np.random.default_rng(3)
    pairs = rng.integers(1, pn, size=(40, 2))
    for x, y in pairs:
        x, y = int(x), int(y)
        if x % p == 0 or y % p == 0:
            continue
        assert np.array_equal(c(y, x), -c(x, y) % p)
        assert np.array_equal(c(-x, y), c(x, y))
        assert np.array_equal(c(x, -y), c(x, y))
        assert not c(x, x).any()
        if (x + y) % pn:
            assert np.array_equal(c(x, y), (c(x + y, y) + c(x, x + y)) % p)


def test_galois_action_commutes_with_classes():
    module = build_cyclo_module(7, 1, F14)
    for lam in (2, 3, 6):
        g = module.galois_matrix(lam)
        for x, y in ((1, 2), (3, 5), (2, 6)):
            moved = module.gen_coords(lam * x, lam * y)
            want = g @ module.gen_coords(x, y) % 7
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
    assert small.gen_coords(1, 2).any()
    assert not is_supported_at_infty(e_table(small))
    full = build_cyclo_module(5)
    assert full.dim == 0
    assert not full.gen_coords(1, 2).any()


def test_t2_t3_families_are_not_implied_by_f14():
    assert build_cyclo_module(7, 1, F14).dim == 2
    assert build_cyclo_module(7, 1, F14 + ("F5", "F6")).dim == 0


def test_f7_norm_compatibility_classes():
    module = build_cyclo_module(5, 2, F14 + ("F7",))
    for u in (1, 2, 3, 4, 7):
        for y in (1, 3, 11):
            rhs = sum(module.gen_coords(beta, y) for beta in range(1, 25) if beta % 5 == u % 5)
            assert np.array_equal(module.gen_coords(5 * u, y), rhs % 5)


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
        assert np.array_equal(xi_class(module, k - i, k), -xi_class(module, i, k) % 37)
    assert xi_class(module, 3, k).any()


def test_xi_class_refuses_bad_weights_and_indices():
    # odd k, k >= 2p and k < 2 as l_values_from_rho refuses them, and i
    # outside 1..k-1
    module = build_cyclo_module(37)
    for i, k in ((3, 5), (0, 32), (40, 32), (3, 80), (32, 32), (-1, 32), (1, 0)):
        with pytest.raises(ValueError):
            xi_class(module, i, k)
    with pytest.raises(ValueError, match="n = 1"):
        xi_class(build_cyclo_module(5, 2), 1, 4)


def test_f6_rows_regression_value():
    # dim drops to 0 everywhere if any F6 term goes missing; pin one row
    # numerically through the quotient instead of through the term list
    module = build_cyclo_module(37, 1, F14 + ("F6",))
    c = module.gen_coords
    x, y = 2, 5
    acc = c(x, 3 * y) + c(3 * x, y) - c(3 * y, x + y) - c(3 * y, y - x) \
        + c(3 * x, x + y) + c(3 * x, y - x) - c(3 * x, 3 * y) + c(y, y - x) \
        + c(y, x + y) - c(x, y - x) - c(x, y) - c(x, x + y)
    assert not (acc % 37).any()


def test_quotient_coeffs_exposes_the_galois_action():
    module = build_cyclo_module(7, 1, F14)
    coeffs = quotient_coeffs(module)
    assert coeffs.dim == module.dim
    for a in (2, 3):
        assert np.array_equal(coeffs.act(a), module.galois_matrix(a))


def test_one_sigma_gather_per_table_and_per_chi_q(monkeypatch):
    # e_manin and verify_hecke_eigenvalue each make a ManinTable, whose
    # coefficient module gathers sigma_(h^e) at all 36 units at once; each
    # chi_q is one more gather.  A certified table reads no unit's matrix
    module = build_cyclo_module(37)
    gathers, acts = [], []
    rows, act = CycloModule.galois_rows, manin.CoeffModule.act
    monkeypatch.setattr(CycloModule, "galois_rows",
                        lambda self, lams: gathers.append(len(lams)) or rows(self, lams))
    monkeypatch.setattr(manin.CoeffModule, "act",
                        lambda self, lam: acts.append(lam) or act(self, lam))
    e_manin(module)
    assert verify_hecke_eigenvalue(module).all_pass
    assert gathers == [36, 36, 1, 1] and not acts
    coeffs = quotient_coeffs(module)
    for lam in unit_group(37):
        assert np.array_equal(coeffs.act(lam), module.galois_matrix(lam))


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
    # p <= 131) and wide ones alike, so the build folds all of them into
    # stacks and, with its fixed sketches, never falls back: kernel_mod sees
    # none of them.  The unfolded kernels must give the same module
    solved = []
    monkeypatch.setattr(exactlin, "kernel_mod",
                        lambda a, p: solved.append(a.shape) or kernel_mod(a, p))
    module = CycloModule(p, n)
    assert not solved, solved
    monkeypatch.undo()
    monkeypatch.setattr(cyclok2, "system_kernels", per_character_kernels)
    plain = CycloModule(p, n)
    assert module.dim == plain.dim
    for name in ("class_to_quot", "basis_pairs", "reduce_matrix"):
        assert np.array_equal(getattr(module, name), getattr(plain, name)), name
