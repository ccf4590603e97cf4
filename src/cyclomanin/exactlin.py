"""Exact linear algebra over F_p and Bernoulli numbers mod p.

Matrices are plain numpy int64 arrays with entries reduced to [0, p);
the modulus travels as an explicit argument.  Row reduction scales every
pivot to 1 with modular inverses, so the output is the canonical reduced
row echelon form of the row space and does not depend on the order the
input rows were given in.

Every elimination runs one routine, `_eliminate_panels`, over a stack of
matrices; rref_mod's matrix, however tall, is a stack of one.  On blocks
at most _PANEL columns wide, and on stacks of at most _LOOP_CELLS
entries, it is the column loop `_eliminate_columns`; larger ones go by
panels of columns, each solved on a few candidate rows per member and
cleared from the rest of the stack by one batched product per slice of
rows.  Reduction mod p is delayed (Dumas-Giorgi-Pernet):
an entry is reduced when it is read, when the next update could take it
past int64_terms(p) products of residues, and on exit, so every returned
entry is a residue and no int64 sum overflows.
`system_kernels` solves many tall sparse systems, each given by its (row,
column, value) triplets.  Each is folded as it is built, by one
np.bincount, into a CountSketch S A with _SLACK more rows than A has
columns: every row of A goes, times a random multiplier, into one of
those rows.  The folded blocks of one shape are reduced as one stack,
eliminated whenever it holds as many as system_kernels_bytes, the model
of its memory, has room for.  The result is exact, not probabilistic:
ker A lies in ker S A, so a folded block of full column rank proves
ker A = 0, and a nonempty kernel K of S A is kept only once A K^T = 0 is
checked on the triplets of A, which is otherwise solved by kernel_mod.
int64_terms(p), the number of products of residues an int64 sum can
take, is the one place the int64 bound is written.  check_memory is the
one place an estimate is held against physical memory.
"""

import math
import os
import random
from functools import lru_cache

import numpy as np

_F64_EXACT = 2**53
_PANEL = 32            # columns the elimination loop runs on per panel
_LOOP_CELLS = 2**13    # stacks this small skip the panels for the column loop
_SLACK = 16            # rows a compressed system keeps beyond its width
_UPDATE_CELLS = 2**15  # cells the column loop rewrites per slice of rows
_SWEEP_CELLS = 2**19   # cells of one power table in irregular_weights


def is_prime(n):
    """Primality by trial division."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def check_prime(n, least=2, name="p"):
    """Raise ValueError unless n is a prime >= least with int64-safe n^2."""
    if n * n >= 2**63:
        raise ValueError(f"{name} = {n} is too large: need {name}^2 < 2^63")
    if n < least or not is_prime(n):
        raise ValueError(f"{name} must be a prime >= {least}, got {n}")


def check_weight(k, p):
    """Raise ValueError unless k is an even weight with 2 <= k < 2p."""
    if k % 2 or not 2 <= k < 2 * p:
        raise ValueError(f"need even k with 2 <= k < 2p, got k={k} at p={p}")


def inv_mod(x, p):
    return pow(int(x) % p, -1, p)


def power_table(bases, n, p):
    """[b^0, b^1, ..., b^n] mod p for each b in bases, along a new last axis.

    0^0 = 1.  A scalar base gives shape (n+1,).  Built by doubling: the
    known powers b^0..b^(e-1) times b^e give the next e, so the table
    takes O(log n) numpy steps.
    """
    bases = np.asarray(bases, dtype=np.int64) % p
    out = np.empty(bases.shape + (n + 1,), dtype=np.int64)
    out[..., 0] = 1
    done = 1       # out[..., :done] holds b^0 .. b^(done-1); each step doubles it
    while done <= n:
        step = min(done, n + 1 - done)
        top = out[..., done - 1] * bases % p
        out[..., done:done + step] = out[..., :step] * top[..., None] % p
        done += step
    return out


def as_fp(a, p):
    """Coerce to an int64 matrix with entries in [0, p)."""
    a = np.atleast_2d(np.asarray(a, dtype=np.int64))
    return np.mod(a, p)


def int64_terms(p):
    """The most products of residues mod p that an int64 sum can take
    while it stays below 2^62, past which int64 arithmetic is not safe."""
    return (2**62 - 1) // (p - 1) ** 2


def check_int64_sums(length, p):
    """Raise ValueError when `length` products mod p exceed int64_terms(p)."""
    if length > int64_terms(p):
        raise ValueError(f"p = {p} is too large for exact int64 sums of "
                         f"{length} products")


def check_memory(need, subject, what):
    """Raise ValueError, saying that `subject` is too large, when `need`
    bytes, the estimate of what `what` allocates, exceed physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(f"{subject} is too large: {what} need about "
                         f"{need / 2**30:,.1f} GiB, more than the "
                         f"{have / 2**30:,.1f} GiB of physical memory")


def _product(a, b, p):
    """Exact a @ b of residues mod p, unreduced, as int64.

    Routes through float64 BLAS when the dot products fit below 2^53;
    otherwise falls back to int64, and raises ValueError when they could
    reach 2^62.
    """
    inner = np.shape(a)[-1]
    if inner * (p - 1) ** 2 < _F64_EXACT:
        return (np.asarray(a, np.float64) @ np.asarray(b, np.float64)).astype(np.int64)
    check_int64_sums(inner, p)
    return np.asarray(a, np.int64) @ np.asarray(b, np.int64)


def matmul_mod(a, b, p):
    """Exact a @ b mod p, by _product."""
    return _product(a, b, p) % p


def _inverses(x, p):
    # x^(p-2) mod p, the inverse of each nonzero residue x, by squaring and
    # exact as p^2 < 2^63; for p < 2^16 read from its table at all p residues
    if p < 2**16 and x.size < p:
        return _inverse_table(p)[x]
    out, e = np.ones_like(x), p - 2
    while e:
        if e & 1:
            out = out * x % p
        x, e = x * x % p, e >> 1
    return out


@lru_cache(maxsize=8)
def _inverse_table(p):
    table = _inverses(np.arange(p), p)
    table.flags.writeable = False
    return table


def _eliminate_columns(stack, p, upto):
    """In-place rref of each member of a (B, m, n) stack, pivoting only in
    its first `upto` columns.

    Returns where, (B, n): where[b, c] is the row of member b holding its
    pivot in column c, or -1.  Rows stay in place, so member b's rref is
    its rows where[b, c] over its pivot columns c, and its other rows end
    up zero.  A step pivots every member with a nonzero in a row that is
    no pivot row yet, scales those rows by one batched inverse, and takes
    x - x[c] top from every row x, by slices of _UPDATE_CELLS entries.
    Reduction is delayed: x - x[c] top takes at most (p - 1)^2 from an
    entry, so the stack is reduced after int64_terms(p) - 1 steps and on
    exit, and where that is below 1 each step reduces its rows.
    """
    nb, m, n = stack.shape
    where = np.full((nb, n), -1, dtype=np.int64)
    free = np.ones((nb, m), dtype=bool)          # rows that are no pivot row yet
    every = np.arange(nb)
    step = max(1, _UPDATE_CELLS // max(nb * n, 1))  # rows of each member per slice
    delay = int64_terms(p) - 1
    pending = 0                                  # steps since the stack was reduced
    left = nb * min(m, upto)
    for c in range(upto if left else 0):
        col = stack[:, :, c] % p if pending else stack[:, :, c]
        cand = (col != 0) & free
        i = cand.argmax(axis=1)
        b = cand[every, i].nonzero()[0]
        if not b.size:
            continue
        i = i[b]
        top = stack[b, i] % p if pending else stack[b, i]
        top *= _inverses(top[:, c], p)[:, None]
        top %= p
        free[b, i] = False
        where[b, c] = i
        lead = top[:, None, c:]             # a free row is zero left of c
        if b.size < nb:
            lead = np.zeros((nb, 1, n - c), dtype=np.int64)
            lead[b] = top[:, None, c:]
        for s in range(0, m, step):
            rows = stack[:, s:s + step, c:]
            rows -= col[:, s:s + step, None] * lead
            if delay < 1:
                rows %= p
        stack[b, i] = top                   # which the update took to 0
        pending += 1
        if pending == delay:
            stack %= p
            pending = 0
        left -= b.size
        if not left:
            break
    if pending:
        stack %= p
    return where


def _panel_width(n, p):
    """Columns per panel of a block n wide; 0 means the column loop alone.

    A block no wider than _PANEL is not split.  Otherwise a panel of w
    columns costs w loop steps on a 2w x 3w candidate block and an update
    of about m*n, so w is near sqrt(n), at most _PANEL and, as the update
    sums w products of residues, int64_terms(p).
    """
    if n <= _PANEL:
        return 0
    return min(_PANEL, math.isqrt(n), int64_terms(p))


def _eliminate_panels(stack, p):
    """_eliminate_columns by panels of w = _panel_width(n, p) columns, if not 0
    and the stack holds more than _LOOP_CELLS entries.  On a smaller stack a
    panel's fixed cost, the candidate block, its transform and the batched
    update, is more than the column steps it saves: on random blocks mod
    691, 2 cores, 17 x 105 takes 0.69 ms by panels and 0.47 ms by the loop,
    64 x 128 (2^13 entries) 1.6 and 1.7 ms, and 60 x 300 1.8 and 2.7 ms.
    The rref is canonical, so the two give the same result.

    Per panel, the column loop runs on each member's first 2w live rows (no
    pivot row yet, nonzero on the panel) with an identity appended, and
    pivots on the panel alone.  The transform's rows T_R for the pivot rows
    R give N = T_R A[R, start:], the rref of R with pivots at pc
    (Jeannerod-Pernet-Storjohann, J. Symb. Comp. 2013), and every other row
    x takes x - x[pc] N, one product per slice of rows for the whole stack.
    If the candidates miss part of a panel's rank, a free row stays live,
    and the panel is solved again on the live rows left.  The stack is
    reduced before an update could sum more than int64_terms(p) products
    into an entry, and on exit.
    """
    nb, m, n = stack.shape
    width = _panel_width(n, p)
    if not width or stack.size <= _LOOP_CELLS:
        return _eliminate_columns(stack, p, n)
    where = np.full((nb, n), -1, dtype=np.int64)
    free = np.ones((nb, m), dtype=bool)          # rows that are no pivot row yet
    at = np.arange(nb)[:, None]
    used = 0                                     # products since the last reduction
    for start in range(0, n, width):
        more = free.any()
        while more:
            panel = stack[:, :, start:start + width] % p
            w = panel.shape[2]
            live = free & panel.any(axis=2)
            cand = np.argsort(~live, axis=1, kind="stable")[:, :2 * width]
            block = np.zeros(cand.shape + (w + cand.shape[1],), dtype=np.int64)
            block[:, :, :w] = panel[at, cand] * live[at, cand, None]
            block[:, :, w:] = np.eye(cand.shape[1], dtype=np.int64)
            found = _eliminate_columns(block, p, w)[:, :w]
            keep = np.flatnonzero((found >= 0).any(axis=0))   # pivot columns
            if not keep.size:
                break
            found = found[:, keep]
            piv = found >= 0
            b, c = piv.nonzero()                # by member, then by column
            rows = cand[at, found]
            trans = block[at[:, :, None], found[:, :, None], w + found[:, None]]
            trans *= piv[:, :, None] & piv[:, None]
            new = stack[at, rows, start:]
            new %= p
            new = (_product(trans, new, p) % p).astype(np.float64)   # N, float64 once
            r = rows[b, c]
            panel = panel[:, :, keep]
            panel[b, r] = 0
            if used + len(keep) > int64_terms(p):
                stack %= p
                used = 0
            used += len(keep)
            step = max(1, _UPDATE_CELLS // (nb * (n - start)))
            for s in range(0, m, step):
                stack[:, s:s + step, start:] -= _product(panel[:, s:s + step], new, p)
            stack[b, r, start:] = new[b, c]
            free[b, r] = False
            where[b, start + keep[c]] = r
            more = ((live.sum(axis=1) > 2 * width)
                    & (where[:, start:start + w] < 0).any(axis=1)).any()
    if used:
        stack %= p
    return where


def rref_mod(a, p):
    """Canonical RREF over F_p.  Returns (R, pivot_cols).

    R has one row per pivot; pivot columns carry a single 1.  The input
    need not be reduced: it is reduced mod p into one copy, its zero rows
    dropped, and eliminated as a stack of one by _eliminate_panels.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.int64)) % p
    nonzero = a.any(axis=1)
    if not nonzero.all():
        a = a[nonzero]
    where = _eliminate_panels(a[None], p)[0]
    pivots = (where >= 0).nonzero()[0]
    return a[where[pivots]], pivots.tolist()


def quotient_map(rref, pivots, ncols, p):
    """The map from F_p^ncols onto F_p^ncols / rowspace(rref).

    Returns (free, Q): free lists the non-pivot columns, and the class
    of a row vector v has coordinates v @ Q, with Q[free] = I and
    Q[pivots] = -rref[:, free].
    """
    free = np.delete(np.arange(ncols), pivots)
    q = np.zeros((ncols, len(free)), dtype=np.int64)
    q[free, np.arange(len(free))] = 1
    q[list(pivots)] = -rref[:, free] % p
    return free, q


def _kernel_basis(rref, pivots, ncols, p):
    # the kernel of a matrix with this rref, each row scaled so its first
    # nonzero entry is 1: a function of the kernel alone
    basis = quotient_map(rref, pivots, ncols, p)[1].T
    if not len(basis):
        return np.zeros((0, ncols), dtype=np.int64)
    lead = basis[np.arange(len(basis)), (basis != 0).argmax(axis=1)]
    return basis * _inverses(lead, p)[:, None] % p


def kernel_mod(a, p):
    """Right-kernel basis rows, each scaled so its first nonzero entry is 1."""
    return _kernel_basis(*rref_mod(a, p), np.shape(a)[-1], p)


def stack_kernels(stack, p):
    """kernel_mod of each member of a (B, m, n) int64 stack of residues
    mod p, by one stacked elimination that reduces it in place."""
    kernels = []
    for rows, where in zip(stack, _eliminate_panels(stack, p)):
        pivots = (where >= 0).nonzero()[0]
        kernels.append(_kernel_basis(rows[where[pivots]], pivots, stack.shape[2], p))
    return kernels


def _sketch(m, w, p):
    # the CountSketch of an m x w system: row r goes to bucket[r] in
    # [0, w + _SLACK) times mult[r] in [1, p), drawn from the stdlib
    # generator seeded by the shape, as numpy.random would load about 6 MiB
    # of module code
    draw = np.frombuffer(random.Random(m << 32 | w).randbytes(16 * m), dtype=np.int64)
    return draw[:m] % (w + _SLACK), draw[m:] % (p - 1) + 1


def _fold(rows, cols, vals, shape, p):
    """The shape[0] x shape[1] matrix over F_p whose (r, c) entry is the sum
    of the vals at rows r and cols c.

    Each value is reduced below p and one np.bincount adds them up in
    float64.  A cell sums at most len(vals) residues, so this is exact
    while len(vals) (p - 1) < 2^53; past that it raises ValueError.
    """
    if len(vals) * (p - 1) >= _F64_EXACT:
        raise ValueError(f"p = {p} is too large for exact float64 sums of "
                         f"{len(vals)} residues")
    nr, nc = shape
    sums = np.bincount(rows * nc + cols, weights=vals % p, minlength=nr * nc)
    return (sums.astype(np.int64) % p).reshape(nr, nc)


def system_kernels(build, keys, p):
    """{key: kernel_mod(A, p)} for the system A = build(key) of each key.

    build(key) returns A in coordinate form, (rows, cols, vals, (m, w)):
    its (r, c) entry is the sum of the vals, which need not be reduced mod
    p, at row r and column c.  A system with more than w + _SLACK rows is
    folded as it is built by a CountSketch S (Clarkson-Woodruff, STOC
    2013), drawn once per shape by _sketch: row r of A is added, times
    mult[r], to row bucket[r] of the (w + _SLACK) x w block S A.  The
    blocks of one shape join one stack, and stack_kernels eliminates it
    whenever it is full and, if it holds any, at the end.  ker A lies in
    ker S A, so an empty kernel of S A is that of A; a nonempty one, K, is
    kept once A K^T = 0 holds on the triplets built again.  Only then, and
    for a system of at most w + _SLACK rows, is A itself solved by
    kernel_mod.
    All give the one basis kernel_mod returns, a function of the kernel.
    """
    out, stacks, folded = {}, {}, []
    for key in keys:
        rows, cols, vals, (m, w) = build(key)
        if m <= w + _SLACK:
            out[key] = kernel_mod(_fold(rows, cols, vals, (m, w), p), p)
        else:
            if (m, w) not in stacks:
                # pages no fold is written to stay unmapped
                room = system_kernels_bytes(w, len(keys)) // (16 * (w + _SLACK) * w)
                stacks[m, w] = [], _sketch(m, w, p), np.empty(
                    (min(room, len(keys)), w + _SLACK, w), dtype=np.int64)
            done, (bucket, mult), stack = stacks[m, w]
            stack[len(done)] = _fold(bucket[rows], cols, vals % p * mult[rows],
                                     (w + _SLACK, w), p)
            done.append(key)
            folded.append(key)
            if len(done) == len(stack):
                out.update(zip(done, stack_kernels(stack, p)))
                done.clear()
        del rows, cols, vals      # so that no two systems are alive at once
    for done, _, stack in stacks.values():
        if done:
            out.update(zip(done, stack_kernels(stack[:len(done)], p)))
    for key in folded:
        if len(out[key]):
            rows, cols, vals, (m, w) = build(key)
            # A k for each k in K, as the one column of the triplets' fold
            if any(_fold(rows, 0 * cols, vals % p * k[cols], (m, 1), p).any()
                   for k in out[key]):
                out[key] = kernel_mod(_fold(rows, cols, vals, (m, w), p), p)
    return out


def system_kernels_bytes(w, count):
    """About the peak bytes system_kernels allocates beyond the triplets for
    `count` systems of at most w unknowns: 8 blocks of (w + _SLACK) x w, count
    of (_PANEL + _SLACK) x _PANEL and two slices of _UPDATE_CELLS entries.  A
    stack of w-wide folds holds as many as this has room for at two blocks
    each: the fold, and less than a block for what a panel v wide adds when
    w > _PANEL: the panel's (w + _SLACK) x v, the 2v x 3v candidate block,
    and v x w each for the pivot rows, N and N in float64."""
    folded = 8 * (w + _SLACK) * w
    narrow = count * (_PANEL + _SLACK) * _PANEL + 2 * _UPDATE_CELLS
    return 8 * (folded + narrow)


def coords_in_rowspace(rref, pivots, v, p):
    """(coeff, ok) for the rows of v, a single vector being one row.

    coeff[i] expresses row i over the rref rows, and ok[i] says whether
    row i lies in their span at all.
    """
    v = as_fp(v, p)
    coeff = v[:, list(pivots)]
    ok = ((v - matmul_mod(coeff, rref, p)) % p == 0).all(axis=1)
    return coeff, ok


def unit_group(m):
    """Units of Z/mZ in increasing order."""
    xs = np.arange(1, m)
    return xs[np.gcd(xs, m) == 1]


def primitive_root(p, n=1):
    """A generator of (Z/p^n)^x for an odd prime p: the smallest primitive
    root g mod p, or g + p when n >= 2 and g^(p-1) = 1 mod p^2."""
    if not is_prime(p):
        raise ValueError(f"p must be a prime, got {p}")
    fac = []
    q, t = p - 1, 2
    while t * t <= q:
        if q % t == 0:
            fac.append(t)
            while q % t == 0:
                q //= t
        t += 1
    if q > 1:
        fac.append(q)
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in fac):
            return g + p if n > 1 and pow(g, p - 1, p * p) == 1 else g
    raise ValueError(f"no primitive root mod {p}")


@lru_cache(maxsize=None)
def unit_logs(p, n=1):
    """(hpow, log): hpow[e] = h^e mod p^n, e < phi(p^n), h = primitive_root(p, n), and
    log[hpow[e]] = e, 0 at non-units; raises unless h generates.  Cached, so read-only."""
    pn, phi = p**n, p ** (n - 1) * (p - 1)
    hpow = power_table(primitive_root(p, n), phi - 1, pn)
    log = np.zeros(pn, dtype=np.int64)
    log[hpow] = np.arange(phi)
    if not np.array_equal(log[hpow], np.arange(phi)):
        raise RuntimeError(f"{hpow[1]} does not generate the units mod {pn}")
    hpow.flags.writeable = log.flags.writeable = False
    return hpow, log


def omega_pow(a, j, p):
    """j-th power of the mod-p cyclotomic character at a: a^j mod p.

    Depends only on j mod (p-1); a must be prime to p.
    """
    a = int(a) % p
    if a == 0:
        raise ValueError("omega_pow needs a prime to p")
    return pow(a, j % (p - 1), p)


def _bernoulli_table_mod(k, p):
    # B_0..B_k mod p by the cleared-denominator recursion; valid for k < p-1.
    # C(m+1, j) mod p is read from a Pascal row mod p, advanced one row per
    # m, so every product stays a small Python int.
    if k >= p - 1:
        raise ValueError(f"the recursion needs k < p - 1, got k={k} at p={p}")
    tab = [0] * (k + 1)
    tab[0] = 1
    if k >= 1:
        tab[1] = (p - inv_mod(2, p)) % p
    row = [1, 2, 1]        # C(2, j); row m + 1 at step m
    for m in range(2, k + 1):
        row = [1] + [(a + b) % p for a, b in zip(row, row[1:])] + [1]
        if m % 2 == 0:
            s = sum(c * b for c, b in zip(row, tab[:m])) % p
            tab[m] = (-s * inv_mod(m + 1, p)) % p
    return tab


def bernoulli_over_k_mod(k, p):
    """B_k / k mod p for even k >= 2 with k != 0 (mod p-1).

    Kummer's congruence reduces the index mod p-1, so any such k is
    accepted; the value depends only on k mod (p-1).

    One k is answered by this O(k^2) recursion, not by Voronoi's
    congruence of irregular_weights: it holds O(k) numbers where the
    congruence holds arrays of p - 1 entries, about 8 GB at p = 10^9 + 7,
    a prime eis-dim accepts at small k.
    """
    if p <= 3:
        raise ValueError("p must be a prime > 3")
    if not is_prime(p):
        raise ValueError(f"p must be a prime > 3, got {p}")
    if k < 2 or k % 2 == 1:
        raise ValueError("k must be an even integer >= 2")
    if k % (p - 1) == 0:
        raise ValueError(f"B_{k}/{k} has a pole mod {p}")
    k0 = k % (p - 1)
    tab = _bernoulli_table_mod(k0, p)
    return tab[k0] * inv_mod(k0, p) % p


def is_irregular_pair(p, k):
    """True when p divides the numerator of B_k/k (an irregular pair).

    At k = 0 (mod p-1) the answer is False: von Staudt-Clausen puts p in
    the denominator of B_k, so p never divides the numerator there.
    """
    if k % (p - 1) == 0:
        return False
    return bernoulli_over_k_mod(k, p) == 0


def irregular_weights(p):
    """The even k with 2 <= k <= p - 3 and p | B_k/k, for a prime p >= 3.

    Voronoi's congruence with c = g, the least primitive root mod p:

        (g^k - 1) B_k/k = g^(k-1) sum_{x=1}^{p-1} floor(g x / p) x^(k-1)  (mod p).

    g^k = 1 only when p - 1 divides k, which no k <= p - 3 does, so
    p | B_k/k exactly when the sum is 0 mod p.  c = 2 would not do: at a
    k with 2^k = 1 (mod p), such as k = 10 at p = 31, both sides vanish
    whatever B_k is.  x^(k-1) is odd in x, so x and p - x pair up: at
    k = 2 + 2j the sum is S_j = sum_{x <= m} w_x y_x^j, m = (p - 1)/2, with
    w_x = (floor(g x / p) - floor(g (p - x) / p)) x and y_x = x^2 (see
    Buhler-Crandall-Ernvall-Metsankyla, Math. Comp. 61, 1993, and
    Washington, Introduction to Cyclotomic Fields, 5.3).

    All (p - 3)/2 sums come by baby and giant steps: a table of y^b for
    b < B and giant rows w y^(aB) for G values of a give G B sums as one
    (G x m) @ (m x B) matmul_mod, so no numpy step is taken per weight.
    B is about the square root of (p - 3)/2, and a table has at most
    _SWEEP_CELLS entries, but never fewer than 4 columns: the sweep holds
    O(p) memory, and every p below 12953 takes a single product.

    Each product sums m products of residues, so a p where that could
    reach 2^62, p > 2,097,143, raises ValueError before anything is
    allocated.  is_irregular_pair answers one k by the recursion, which
    stays: this sweep's O(p) arrays would take about 8 GB at p = 10^9 + 7,
    where eis-dim asks for one k.
    """
    check_prime(p, least=3)
    m, count = (p - 1) // 2, (p - 3) // 2
    check_int64_sums(m, p)
    if not count:
        return []
    g = primitive_root(p)
    x = np.arange(1, m + 1, dtype=np.int64)
    w = (g * x // p - g * (p - x) // p) * x % p
    y = x * x % p
    cols = max(4, _SWEEP_CELLS // m)
    b = min(cols, math.isqrt(count - 1) + 1)
    giants = -(-count // b)                          # giant rows in all
    baby = power_table(y, b - 1, p)                  # baby[x, i] = y^i, i < B
    z = baby[:, -1] * y % p                          # y^B
    step = power_table(z, min(cols, giants) - 1, p)  # step[x, a] = y^(aB), a < G
    leap = step[:, -1] * z % p                       # y^(GB)
    row, sums = w, []
    for at in range(0, giants, step.shape[1]):
        rows = row[:, None] * step[:, :giants - at] % p
        sums.append(matmul_mod(rows.T, baby, p).ravel())
        row = row * leap % p
    s = np.concatenate(sums)[:count]
    return [2 + 2 * int(j) for j in np.flatnonzero(s == 0)]
