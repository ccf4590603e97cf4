"""Acceptance gate: the ten headline checks, exact, with stated time budgets.

Each criterion is one test, so the -v run shows one pass/fail line per
criterion; the body also prints a summary line with its wall time.
"""

import time

import numpy as np
import sympy

from cyclomanin.cyclok2 import build_cyclo_module, e_manin, verify_hecke_eigenvalue
from cyclomanin.eisspace import eis_eigenspace, eis_eigenvector
from cyclomanin.exactlin import is_irregular_pair, kernel_mod, matmul_mod
from cyclomanin.hecke import hecke_apply
from cyclomanin.lvalues import gamma_infty_invariants, lvalue_identity_report
from oracles import (boundary_lambda, group_algebra_coeffs, hecke_closed_form,
                     manin_relation_space, power_character_coeffs,
                     symbols_supported_at_infty, table_from_flat, trivial_coeffs)

PN_LIST = ((5, 1), (7, 1), (11, 1), (13, 1), (37, 1), (5, 2))
IRREGULAR_PAIRS = ((37, 32), (59, 44), (67, 58), (101, 68), (103, 24))
REGULAR_PAIRS = ((7, 4), (11, 8), (13, 6))


def finish(num, label, t0, limit=None):
    dt = time.monotonic() - t0
    budget = f" (limit {limit:.0f}s)" if limit else ""
    print(f"criterion {num:2d} PASS  {label}  [{dt:.2f}s{budget}]")
    if limit is not None:
        assert dt < limit, f"criterion {num} exceeded its {limit}s budget"


def test_criterion_01_manin_symbol_validity():
    t0 = time.monotonic()
    for p, n in PN_LIST:
        e_manin(build_cyclo_module(p, n))   # raises if any relation fails
    finish(1, "e_n satisfies the Manin relations", t0, limit=10)


def test_criterion_02_hecke_eigenvalue_identity():
    t0 = time.monotonic()
    for p, n in PN_LIST:
        rep = verify_hecke_eigenvalue(build_cyclo_module(p, n), qs=(2, 3))
        assert rep.all_pass, (p, n, rep.to_json())
    finish(2, "e_n|(T_q - (q + chi(q))) = 0 off the axes, q in {2,3}", t0,
           limit=30)


def test_criterion_03_merel_closed_form_consistency():
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    for p in (5, 7):
        module = group_algebra_coeffs(p)
        ker = kernel_mod(manin_relation_space(module), p)
        assert len(ker)
        for _ in range(100):
            coeff = rng.integers(0, p, size=len(ker))
            tab = table_from_flat(module, coeff @ ker % p).validate()
            for q in (2, 3):
                assert np.array_equal(hecke_closed_form(tab, q).values,
                                      hecke_apply(tab, q).values)
    finish(3, "closed-form T_q = Merel sum on 100 random symbols per level", t0)


def test_criterion_04_boundary_eigenvalues():
    t0 = time.monotonic()
    configs = (power_character_coeffs(5, 1, 2),
               power_character_coeffs(7, 1, 2),
               power_character_coeffs(7, 1, 4),
               power_character_coeffs(5, 2, 2),
               trivial_coeffs(5, 2))
    for module in configs:
        p = module.p
        boundary = symbols_supported_at_infty(module)
        assert boundary
        for tab in boundary:
            for ell in (2, 3, 5, 7):
                if ell == p:
                    continue
                got = hecke_apply(tab, ell)
                want = (ell * tab.values
                        + matmul_mod(tab.values, module.act(ell).T, p)) % p
                assert np.array_equal(got.values, want)
            assert not hecke_apply(tab, p).values.any()
    finish(4, "T_l = l + chi(l) and T_p = 0 on boundary symbols", t0)


def test_criterion_05_gamma_infty_invariant_dimensions():
    t0 = time.monotonic()
    for p in (5, 7, 11, 13):
        for r in range(0, 2 * p, 2):
            want = 1 if r < p else 2
            assert len(gamma_infty_invariants(r, p)) == want, (p, r)
    finish(5, "dim V_r^(Gamma_infty) = 1 (r<p) / 2 (p<=r<2p)", t0)


def test_criterion_06_boundary_lvalue_vanishing():
    t0 = time.monotonic()
    for p, r in ((5, 8), (7, 10), (37, 30)):
        for lam in gamma_infty_invariants(r, p):
            out = boundary_lambda(lam, r, p)
            for i in range(r + 1):
                if i % (p - 1) and (i - r) % (p - 1):
                    assert out[i] == 0, (p, r, i)
    finish(6, "boundary L-values vanish at i != 0, r mod p-1", t0)


def test_criterion_07_lvalue_identity():
    t0 = time.monotonic()
    rep = lvalue_identity_report(37, 32)
    assert rep.all_pass, rep.to_json()
    counts = [c["details"] for c in rep.checks if c["name"] == "functional-count"]
    assert counts == [{"count": 1}]     # non-vacuous: one rho at (37,32)
    rep5 = lvalue_identity_report(5, 4)    # no functional: nothing compared
    assert not rep5.all_pass, rep5.to_json()
    finish(7, "L(psi,i) = rho(xi_i) for odd i, plus the twist identity", t0,
           limit=60)


def test_criterion_08_eisenstein_eigenspace_dimensions():
    t0 = time.monotonic()
    for p, k in IRREGULAR_PAIRS:
        one = eis_eigenspace(p, k, (2,)).dim_plus_eisenstein
        two = eis_eigenspace(p, k, (2, 3)).dim_plus_eisenstein
        assert one == two == 1, (p, k, one, two)
    for p, k in REGULAR_PAIRS:
        assert eis_eigenspace(p, k, (2, 3)).dim_plus_eisenstein == 0, (p, k)
    finish(8, "dim H+_(k,eis,S) = 1 at irregular pairs, 0 at regular ones", t0,
           limit=300)


def test_criterion_09_irregularity_detection():
    t0 = time.monotonic()
    for p in (5, 7, 11, 13, 37, 59, 67, 101, 103):
        for k in range(2, 41, 2):
            frac = sympy.Rational(sympy.bernoulli(k), k)
            oracle = int(frac.p) % p == 0
            assert is_irregular_pair(p, k) == oracle, (p, k)
    finish(9, "is_irregular_pair matches the rational Bernoulli oracle", t0)


def test_criterion_10_eigensystem_congruence():
    t0 = time.monotonic()
    for p, k in IRREGULAR_PAIRS:
        space, tmats = eis_eigenvector(p, k, primes=(2, 3, 5, 7))
        assert space.shape[0] == 1, (p, k)
        v = space[0]
        for q, tq in tmats.items():
            ev = (1 + pow(q, k - 1, p)) % p
            assert np.array_equal(v @ tq.T % p, ev * v % p), (p, k, q)
    finish(10, "Eisenstein eigenvector has T_q eigenvalue 1 + q^(k-1)", t0)
