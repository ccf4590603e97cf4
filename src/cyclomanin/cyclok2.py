"""A finitely presented stand-in for the p-part of Milnor K_2 of Z[zeta_{p^n}, 1/p].

Generators are pairs (x,y) with x,y nonzero mod p^n, standing for the
Steinberg symbols {1 - z^x, 1 - z^y} with z a primitive p^n-th root of
unity.  The relation families, all consequences of Steinberg identities
on cyclotomic p-units (working mod p with p odd, so 2-torsion dies):

  F1  e(x,y) + e(y,x) = 0                      antisymmetry
  F2  e(-x,y) = e(x,y),  e(x,-y) = e(x,y)      1-z^{-x} = -z^{-x}(1-z^x)
  F3  e(y,y) = 0                               diagonal
  F4  e(x,y) - e(x+y,y) - e(x,x+y) = 0         x+y != 0
  F5  (e|T_2)(x,y) = 2 e(x,y) + e(2x,2y)       x+y != 0
  F6  (e|T_3)(x,y) = 3 e(x,y) + e(3x,3y)       x+y, x-y != 0
  F7  e(p^k u, y) = sum of e(beta, y) over units beta = u mod p^{n-k}
                                               n > 1 only, left slot

F5 and F6 are the Hecke eigenvalue identity e|T_q = (q + sigma_q) e, with
e|T_q expanded through the closed-form terms of hecke.CLOSED_FORMS
(Merel's coset data).  Each F4-F6 row is imposed wherever all of its
slots are nonzero mod p^n, which gives the conditions listed.  F7 is
generated as term lists too, one family per k = v_p(x) < n, imposed at
the pairs (u, y) with u a unit below p^(n-k).

Only these relations are imposed; the module is therefore a cover of
the actual symbol subgroup, which is the safe direction for verifying
identities proved from these relations alone.

The quotient is built in two stages.  F1+F2+F3 are solved in closed
form: with a = min(x, p^n - x), b = min(y, p^n - y), (x,y) is 0 if ab = 0
or a = b, else class (a,b) if a < b and minus class (b,a) if a > b.
F4-F7 are then solved for the annihilator W of their span, one
character of a cyclic unit group at a time.  Every family is stable
under (x,y) -> (lam x, lam y), so a vector of one component is one
value per orbit of classes, zero on the orbits whose stabiliser sign
the character contradicts, and satisfies every relation once it
satisfies those at one point per orbit.  The orbits need no search: one
discrete-log table mod p^n scales each class at a slot of least
valuation x = p^v u to p^v times 1 mod p, and that image labels it.  At
n >= 2 the whole unit group goes first.  Its components span W^P, the
invariants of the p-group P = 1 + pZ, and W^P = 0 proves W = 0 (Serre,
Linear Representations of Finite Groups, ch. 8).  Otherwise, and at
n = 1, the tame group mu_{p-1}, of order prime to p, splits W into its
components.  Each is a small kernel, from exactlin.system_kernels, lifted
back to class coordinates.  A system with more rows than w + 16, w its
unknowns (every one a build makes at p >= 11), is folded as it is built
into a CountSketch of w + 16 rows.  The folds of one width are
eliminated as one stack: by a batched column loop when w <= 32, and a
panel of columns at a time when wider.  Each nonempty kernel is
certified against its system's triplets, so the kernels are exact.  The
quotient map is the unique echelon basis of W whose rows end in a 1 at
the free classes, where all other rows vanish: one row reduction of W
with its columns reversed gives exactly what a row reduction of the
dense F4-F7 matrix would.  Tests check this against that dense reduction
and against a row reduction of the generator-level relation matrix.
"""

from functools import lru_cache

import numpy as np

from .exactlin import (check_memory, check_prime, check_weight, kernel_mod, matmul_mod,
                       power_table, rref_mod, system_kernels, system_kernels_bytes,
                       unit_logs)
from .hecke import CLOSED_FORMS, hecke_apply
from .manin import CoeffModule, ManinTable, enumerate_X, image_keys
from .reports import CheckReport

ALL_FLAGS = ("F1", "F2", "F3", "F4", "F5", "F6", "F7")


def _hecke_terms(q):
    """(e|T_q)(x,y) - q e(x,y) - e(qx,qy): the T_q eigenvalue identity."""
    return ([(1, m) for m in CLOSED_FORMS[q]]
            + [(-q, (1, 0, 0, 1)), (-1, (q, 0, 0, q))])


# family -> [(coeff, (a, b, c, d))], each the term coeff * e(a*x + b*y, c*x + d*y)
_RELATION_TERMS = {
    "F4": [(1, (1, 0, 0, 1)), (-1, (1, 1, 0, 1)), (-1, (1, 0, 1, 1))],
    "F5": _hecke_terms(2),
    "F6": _hecke_terms(3),
}


def _f7_families(p, n, points):
    """F7 as (terms, rows_at), one family per k = v_p(x) < n.

    For x = p^k u the row is e(x, y) - sum e(beta, y) over the units
    beta = u mod p^(n-k).  It is imposed at the pairs (u, y) of points with
    u a unit below p^(n-k); beta is written u (1 + s p^(n-k)) for s < p^k,
    so that every term is a matrix.
    """
    u = points[:, 0]
    return [([(1, (p**k, 0, 0, 1))]
             + [(-1, (1 + s * p ** (n - k), 0, 0, 1)) for s in range(p**k)],
             points[(u % p != 0) & (u < p ** (n - k))])
            for k in range(1, n)]


def _symbol_classes(pn):
    """(class_reps, table): the classes (a, b), 1 <= a < b <= (pn - 1)/2, in lex
    order, and table[a, b] = class + 1 = -table[b, a], 0 where the symbol dies."""
    half = (pn - 1) // 2
    a, b = np.triu_indices(half, 1)
    table = np.zeros((half + 1, half + 1), dtype=np.int64)
    table[a + 1, b + 1] = np.arange(1, len(a) + 1)
    return np.stack([a + 1, b + 1], axis=1), table - table.T


def _class_sign(table, keys):
    """(class, sign) at keys x*pn + y, pn = 2 len(table) - 1; (-1, 0) where a symbol dies."""
    pn = 2 * len(table) - 1
    x, y = np.divmod(keys, pn)
    t = table[np.minimum(x, pn - x), np.minimum(y, pn - y)]
    return np.abs(t) - 1, np.sign(t)


def _orbit_labels(table, p, n, wild):
    """(orbit, sign, back, live): the classes of `table` as orbits of the unit group
    of p-part `wild`, generated by t = h^(p^(n-1)/wild), h = unit_logs' generator.

    lam[x] = t^(-log_h u) scales x = p^v u to p^v (1 mod p wild).  Each class
    of an orbit, so scaled at a slot of least valuation, gives the same one or
    two candidates; the least labels the orbit, orbit[c] is its index, and
    c = sign[c] t^back[c] (label) up to the p-part.  live[j, o]: t -> g^j,
    g = h mod p, agrees with o's stabiliser signs: j is even (-1 fixes all),
    and if the candidates are equal, g^(j (unit[b] - unit[a])) = sa sb.
    """
    pn, phi, x = p**n, p ** (n - 1) * (p - 1), np.arange(p**n)
    hpow, dlog = unit_logs(p, n)
    scale = np.gcd(x, p ** (n - 1))                              # p^v(x)
    unit = dlog[x // scale]
    lam = hpow[-unit * (p ** (n - 1) // wild) % phi]
    a, b = np.nonzero(table > 0)                                 # the classes, in order
    ca, sa = _class_sign(table, lam[a] * a % pn * pn + lam[a] * b % pn)
    cb, sb = _class_sign(table, lam[b] * a % pn * pn + lam[b] * b % pn)
    use_b = np.where(scale[b] <= scale[a], cb, len(a)) < np.where(scale[a] <= scale[b], ca, len(a))
    label = np.where(use_b, cb, ca)
    reps = np.flatnonzero(label == np.arange(len(a)))
    fixed = ((scale[a] == scale[b]) & (ca == cb))[reps]
    js = np.arange(p - 1)[:, None]
    stab = hpow[js * (unit[b] - unit[a])[reps] % (p - 1)] % p == (sa * sb)[reps] % p
    return (np.searchsorted(reps, label), np.where(use_b, sb, sa),
            np.where(use_b, unit[b], unit[a]) % (p - 1), (js % 2 == 0) & (~fixed | stab))


def _build_bytes(p, n, flags):
    """About the peak bytes a build of M_{p,n} with these flags allocates.

    The grid term, 16 int64 per key x*p^n + y, covers the class table
    and representatives, the orbit labels and reduce_matrix; a build's
    measured peak is 5.9-7.0 int64 per key at p^n = 211, 691, 11^2 and
    13^2.  The tame systems are charged, as a nonzero W^P falls back to
    them: each has a row per F4-F7 relation at a point x / p^v(x) = 1
    mod p, (p^n - 1)/(p - 1) per y for F4-F6, and a column per tame orbit
    of the about (p^n - 1)^2 / 8 classes.  A certificate that fails
    densifies its system, counted once, whole.  Their elimination adds
    exactlin.system_kernels_bytes.  The whole-group systems are about
    p^(n-1) times smaller.
    """
    pn = p**n
    grid = 16 * pn * pn
    rows = (pn - 1) ** 2 // (p - 1) * len(flags & {"F4", "F5", "F6"})
    rows += (p ** (n - 1) - 1) // (p - 1) * (pn - 1) if "F7" in flags else 0
    orbits = (pn - 1) ** 2 // (4 * (p - 1))
    return 8 * (grid + rows * orbits) + system_kernels_bytes(orbits, p - 1)


class CycloModule:
    """The presented module M_{p,n} with its quotient structure.

    Attributes of note: `class_reps` lists the F1-F3 classes as their
    pairs (a, b), 1 <= a < b <= (p^n - 1)/2, in lex order; `reduce_matrix`
    maps each key x*p^n + y to the quotient coordinates of
    {1 - z^x, 1 - z^y}, zero where a slot is 0 or the symbol dies; `dim` is
    the quotient dimension; `basis_pairs` lists the class pair
    representing each quotient basis vector.  The arrays are read-only.

    The F4-F7 relations are never assembled into one matrix: `_annihilator`
    solves one small kernel per character of a unit group, and
    `class_to_quot`, the free classes and `dim` are read off the echelon
    form of their lifts (see the module docstring).
    """

    def __init__(self, p, n=1, flags=None):
        check_prime(p, least=5)
        if n < 1:
            raise ValueError("need n >= 1")
        flags = frozenset(flags if flags is not None else ALL_FLAGS)
        unknown = sorted(flags - set(ALL_FLAGS))
        if unknown:
            raise ValueError(f"unknown relation families {', '.join(unknown)}; use F1-F7")
        if not flags >= {"F1", "F2", "F3", "F4"}:
            raise ValueError("relation families F1-F4 are always required")
        check_memory(_build_bytes(p, n, flags), f"p^n = {p**n}",
                     "the class tables and the largest character's relation system")
        self.p, self.n, self.pn = p, n, p**n
        self.flags = flags
        self.class_reps, self._class_table = _symbol_classes(self.pn)
        self.n_classes = len(self.class_reps)
        self._reduce()

    # -- stage 2: F4-F7, one kernel per character of a unit group ------

    def _annihilator(self):
        """Basis rows, in class coordinates, of the annihilator W of the F4-F7 span.

        The group is generated by h, the generator of unit_logs(p, n), then,
        if the kernels are not all empty, by t = h^(p^(n-1)); at n = 1, h = t.
        A vector of the g^j component, g = h mod p, is w[c] = sign[c]
        g^(j back[c]) z[orbit[c]] with the labels of _orbit_labels, and z
        zero on the orbits that are not live at j.  The relations are rows
        over z at the x with x / p^v(x) = 1 mod p times the group's p-part.
        """
        p, pn, n = self.p, self.pn, self.n
        gpow = unit_logs(p, n)[0][:p - 1] % p             # g^e for e < p - 1
        for wild in dict.fromkeys((p ** (n - 1), 1)):     # the group's p-part
            orbit, sign, back, live = _orbit_labels(self._class_table, p, n, wild)
            # the points (x, y), lex, with x / p^v(x) = 1 mod p wild; gcd(x, p^(n-1)) = p^v(x)
            xs = np.arange(1, pn)
            xs = xs[xs // np.gcd(xs, p ** (n - 1)) % (p * wild) == 1]
            points = np.stack([xs.repeat(pn - 1), np.tile(np.arange(1, pn), len(xs))], axis=1)
            families = [(terms, points) for f, terms in _RELATION_TERMS.items() if f in self.flags]
            families += _f7_families(p, n, points) if "F7" in self.flags else []
            rows, cols, coef, expo, nrows = [], [], [], [], 0
            for terms, at in families:
                keys = [image_keys(at, pn, mat) for _, mat in terms]
                # a row is imposed where all of its slots are nonzero
                mask = np.logical_and.reduce([(key >= pn) & (key % pn > 0) for key in keys])
                ridx = np.arange(nrows, nrows + mask.sum())
                nrows += len(ridx)
                for (c, _), key in zip(terms, keys):
                    cls, sgn = _class_sign(self._class_table, key[mask])
                    ok = cls >= 0
                    cls = cls[ok]
                    rows.append(ridx[ok])
                    cols.append(orbit[cls])
                    coef.append(c * sgn[ok] * sign[cls])
                    expo.append(back[cls])
            rows, cols, coef, expo = map(np.concatenate, (rows, cols, coef, expo))

            def system(j):
                # the triplets of the relations over the live orbits at j
                col = np.cumsum(live[j]) - 1
                use = live[j][cols]
                return (rows[use], col[cols[use]], coef[use] * gpow[j * expo[use] % (p - 1)],
                        (nrows, int(live[j].sum())))

            js = [j for j in range(p - 1) if live[j].any()]
            kernels = system_kernels(system, js, p)
            parts = [np.zeros((0, self.n_classes), dtype=np.int64)]
            for j in [j for j in js if len(kernels[j])]:
                z = np.zeros((len(kernels[j]), live.shape[1]), dtype=np.int64)
                z[:, live[j]] = kernels[j]
                parts.append(z[:, orbit] * (sign * gpow[j * back % (p - 1)]) % p)
            ann = np.concatenate(parts)
            if not len(ann):
                break
        return ann

    def _reduce(self):
        # class_to_quot.T is the echelon basis of the annihilator whose rows
        # end in a 1 at the free classes: its rref with columns reversed
        p, pn, nc = self.p, self.pn, self.n_classes
        ech, pivots = rref_mod(self._annihilator()[:, ::-1], p)
        free = nc - 1 - np.array(pivots[::-1], dtype=np.int64)
        self.class_to_quot = np.ascontiguousarray(ech[::-1, ::-1].T)
        self.dim = len(free)
        self.basis_pairs = self.class_reps[free]
        # key -> quotient coordinates: class (a, b) at (+-a, +-b), negated at (+-b, +-a)
        rm = np.zeros((pn * pn, self.dim), dtype=np.int64)
        neg = -self.class_to_quot % p
        for s, t in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            rm[image_keys(self.class_reps, pn, (s, 0, 0, t))] = self.class_to_quot
            rm[image_keys(self.class_reps, pn, (0, t, s, 0))] = neg
        self.reduce_matrix = rm
        # build_cyclo_module hands these out from its cache: a write through
        # one would change every later answer
        for arr in (rm, self.class_to_quot, self.basis_pairs, self.class_reps,
                    self._class_table):
            arr.flags.writeable = False

    # -- public API ----------------------------------------------------

    def gen_coords(self, x, y):
        """Quotient coordinates of the symbol {1-z^x, 1-z^y} (zero if a slot is 0)."""
        return self.reduce_matrix[int(x) % self.pn * self.pn + int(y) % self.pn]

    def galois_rows(self, lams):
        """galois_matrix(lam).T at each unit lam of an array, by one gather."""
        lam = np.asarray(lams, dtype=np.int64)[:, None] % self.pn
        if (lam % self.p == 0).any():
            raise ValueError(f"lambda = {lam[lam % self.p == 0][0]} is not a unit mod {self.pn}")
        return self.reduce_matrix[image_keys(self.basis_pairs, self.pn, (lam, 0, 0, lam))]

    def galois_matrix(self, lam):
        """Matrix of sigma_lam on the quotient: galois_rows at one unit, transposed."""
        return self.galois_rows([int(lam)])[0].T

    def __repr__(self):
        return f"CycloModule(p={self.p}, n={self.n}, dim={self.dim})"


@lru_cache(maxsize=None)
def build_cyclo_module(p, n=1, flags=ALL_FLAGS):
    """Build (and cache) M_{p,n} with the given relation families enabled."""
    return CycloModule(p, n, flags)


def quotient_coeffs(module):
    """The quotient as a Manin coefficient module with the Artin-type action;
    its phi(p^n) dim^2 entries are gathered anew, not cached on `module`."""
    return CoeffModule(module.p, module.n, module.galois_rows(unit_logs(module.p, module.n)[0]),
                       f"cyclo(p={module.p},n={module.n})")


def e_table(module):
    """The raw table (x,y) -> class{1-z^x, 1-z^y} over X_n, unvalidated."""
    points, _ = enumerate_X(module.p, module.n)
    return ManinTable(quotient_coeffs(module),
                      module.reduce_matrix[points[:, 0] * module.pn + points[:, 1]])


def e_manin(module):
    """The Manin symbol e(x,y) = class{1-z^x, 1-z^y} over X_n, validated."""
    return e_table(module).validate()


def verify_hecke_eigenvalue(module, qs=(2, 3)):
    """Check (e|T_q)(x,y) = (q + sigma_q) e(x,y) at every point with xy != 0.

    Each q gets a second entry, that the Hecke deviation is supported at
    infinity.  It restates the first: vanishing off the axes is what
    supported at infinity means, so both entries report the same result.
    A failing first entry counts its failing points and names the first
    in enumerate_X order.
    """
    for q in qs:
        check_prime(q, name="Hecke index q")
        if q == module.p:
            raise ValueError(f"Hecke index q = {q} must differ from p")
    rep = CheckReport("verify-hecke", {"p": module.p, "n": module.n})
    e = e_manin(module)
    off_axis = (e.points[:, 0] * e.points[:, 1]) % module.pn != 0
    for q in qs:
        te = hecke_apply(e, q)
        chi_q = module.galois_matrix(q)
        # the wide product: BLAS runs the tall values @ chi_q.T about 5x slower
        expect = (q * e.values + matmul_mod(chi_q, e.values.T, module.p).T) % module.p
        bad = ((te.values - expect) % module.p).any(axis=1) & off_axis
        ok = not bad.any()
        checked = int(off_axis.sum())
        details = f"checked {checked} points"
        if not ok:
            x, y = e.points[bad.argmax()].tolist()
            details = f"fails at {int(bad.sum())} of {checked} points, first at ({x}, {y})"
        rep.add(f"T_{q} eigenvalue q + sigma_q off the axes", ok, details)
        rep.add(f"T_{q} deviation supported at infinity", ok)
    return rep


def weight_projector(module, k):
    """P_k = sum over units a of a^(k-2) sigma_a on the quotient (n = 1).

    Every relation family is stable under scaling, so sigma_a acts on the
    quotient and {1-z^(ax), 1-z^(ay)} = sigma_a {1-z^x, 1-z^y}.  A sum over
    unit pairs (a, ta) of a^(k-2) f(t) {1-z^a, 1-z^(ta)} is thus P_k of the
    sum of f(t) {1-z, 1-z^t} along the x = 1 row; with the slots exchanged,
    P_k of a sum down the y = 1 column.
    """
    p, dim = module.p, module.dim
    check_weight(k, p)
    if module.n != 1:
        raise ValueError("weight-k sums are defined at n = 1")
    gpow = unit_logs(p)[0]
    w = gpow[np.arange(p - 1) * (k - 2) % (p - 1)]           # a^(k-2) at a = g^e
    return matmul_mod(w, module.galois_rows(gpow).reshape(p - 1, -1), p).reshape(dim, dim).T


def weight_sums(module, k):
    """P_k times the weighted sums along the x = 1 row and down the y = 1
    column (n = 1), as two (k - 1) x dim blocks (row, column):

        row[i] = P_k sum_t t^i {1-z, 1-z^t},
        column[i] = xi_(i+1) = P_k sum_s s^(k-2-i) {1-z^s, 1-z}.

    xi_i = sum over unit pairs of a^(k-i-1) b^(i-1) {1-z^a, 1-z^b} is the
    column sum with a = sb, and lvalues.l_values_from_rho reads a
    functional's L-values off the row.  One P_k, one gather of every
    sigma_a, and one table of powers serve both."""
    p, proj = module.p, weight_projector(module, k)
    keys = np.arange(p)
    powers = power_table(keys, k - 2, p).T                   # powers[i, t] = t^i
    row = matmul_mod(powers, module.reduce_matrix[p + keys], p)
    column = matmul_mod(powers[::-1], module.reduce_matrix[keys * p + 1], p)
    return matmul_mod(np.stack([row, column]), proj.T, p)


def xi_class(module, i, k):
    """Quotient coordinates of xi_i (n = 1), row i - 1 of the column of weight_sums."""
    if not 1 <= i < k:
        raise ValueError(f"need 1 <= i < k, got i={i} at k={k}")
    return weight_sums(module, k)[1, i - 1]


def rho_basis(module, k):
    """Basis of functionals rho with rho(sigma_a m) = a^{2-k} rho(m) (n = 1):
    the left eigenspace of sigma_g, g a generator, each row checked against
    every sigma_a in one product.  They vanish on the other eigencomponents."""
    p, dim = module.p, module.dim
    if module.n != 1:
        raise ValueError("weight-k sums are defined at n = 1")
    gpow = unit_logs(p)[0]
    stack = module.galois_rows(gpow)                         # stack[e] = sigma_(g^e).T
    target = gpow[np.arange(p - 1) * (2 - k) % (p - 1)]      # a^(2-k) at a = g^e
    rows = kernel_mod(stack[1] - target[1] * np.eye(dim, dtype=np.int64), p)
    got = matmul_mod(stack.reshape((p - 1) * dim, dim), rows.T, p).reshape(p - 1, dim, len(rows))
    bad = ((got - target[:, None, None] * rows.T) % p).any(axis=(1, 2))
    if bad.any():
        a = int(gpow[bad.argmax()])
        raise RuntimeError(f"sigma_{a} does not act by {a}^(2-k) on the eigenspace")
    return rows
