"""Exact linear algebra over F_p and Bernoulli numbers mod p.

Matrices are plain numpy int64 arrays with entries reduced to [0, p);
the modulus travels as an explicit argument.  Row reduction scales every
pivot to 1 with modular inverses, so the output is the canonical reduced
row echelon form of the row space and does not depend on the order the
input rows were given in.

Every elimination runs one column loop, `_eliminate_columns`, over a
stack of matrices; a single matrix is a stack of one.  `system_kernels`
solves many tall sparse systems, each given by its (row, column, value)
triplets.  Each is folded as it is built, by one np.bincount, into a
CountSketch S A with _SLACK more rows than A has columns: every row of A
goes, times a random multiplier, into one of those rows.  The folded
blocks of one narrow width are reduced as one stack, wider ones one at a
time.  The result is exact, not probabilistic: ker A lies in ker S A, so
a folded block of full column rank proves ker A = 0, and a nonempty
kernel K of S A is kept only once A K^T = 0 is checked on the triplets of
A, which is otherwise solved by kernel_mod; system_kernels_bytes models
its memory.  int64_terms(p), the number of products of residues an int64
sum can take, is the one place the int64 bound is written.
"""

import math
import random

import numpy as np

_F64_EXACT = 2**53
_RREF_BLOCK = 1024     # input rows folded into the echelon basis per step
_PANEL = 32            # columns the elimination loop runs on per panel
_SLACK = 16            # rows a compressed system keeps beyond its width
_UPDATE_CELLS = 2**15  # cells the column loop rewrites per slice of rows


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


def matmul_mod(a, b, p):
    """Exact a @ b mod p.

    Routes through float64 BLAS when the dot products fit below 2^53;
    otherwise falls back to int64, and raises ValueError when they could
    reach 2^62.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    inner = a.shape[-1]
    if inner * (p - 1) ** 2 < _F64_EXACT:
        prod = a.astype(np.float64) @ b.astype(np.float64)
        return prod.astype(np.int64) % p
    check_int64_sums(inner, p)
    return (a @ b) % p


def _eliminate_columns(stack, p):
    """In-place rref of every member of a C-contiguous (B, m, n) stack.

    One loop over the columns serves the whole stack.  Returns where, of
    shape (B, n): where[b, c] is the row of member b that holds its pivot
    in column c, or -1 if c is not a pivot column of b.  Rows stay at
    their input places, so member b's rref is its rows where[b, c] over
    its pivot columns c, in that order, and its other rows end up zero.
    A step pivots, in one column, every member with a nonzero in a row
    that is not a pivot row yet; it rewrites only the rows of those
    members that are nonzero in that column.
    """
    nb, m, n = stack.shape
    if not stack.flags.c_contiguous:
        raise ValueError("the column loop needs a C-contiguous stack")
    flat = stack.reshape(nb * m, n)          # a view: row b*m + i is row i of b
    free = np.ones(nb * m, dtype=bool)       # rows that are no pivot row yet
    where = np.empty((nb, n), dtype=np.int64)
    where.fill(-1)
    members = np.arange(nb)
    step = max(1, _UPDATE_CELLS // max(n, 1))  # rows rewritten per update slice
    left = nb * min(m, n)
    for c in range(n if left else 0):
        nz = flat[:, c] != 0
        cand = nz & free
        i = cand.reshape(nb, m).argmax(axis=1)
        b, f = members, i
        if nb == 1:
            if not cand[i[0]]:
                continue
        else:
            ok = cand[i + m * members]
            if not ok.all():
                if not ok.any():
                    continue
                b = ok.nonzero()[0]
                i = i[b]
                nz.reshape(nb, m)[~ok] = False
            f = i + m * b
        top = flat.take(f, axis=0)
        if nb == 1:
            top *= inv_mod(top[0, c], p)
        else:
            top *= np.array([[inv_mod(v, p)] for v in top[:, c].tolist()])
        top %= p
        flat[f] = top
        free[f] = False
        nz[f] = False
        where[b, c] = i
        if nb > 1:
            lead = np.zeros((nb, n), dtype=np.int64)
            lead[b] = top
        hit = nz.nonzero()[0]
        for start in range(0, hit.size, step):
            at = hit[start:start + step]
            rows = flat.take(at, axis=0)
            if nb > 1:
                top = lead.take(at // m, axis=0)
                top *= rows[:, c, None]
                rows -= top
            else:
                rows -= rows[:, c, None] * top
            rows %= p
            flat[at] = rows
        left -= b.size
        if not left:
            break
    return where


def _panel_width(n, p):
    """Columns per panel of a block n wide; 0 means the column loop alone.

    A block no wider than _PANEL is not split.  Otherwise a panel of w
    columns costs the loop about m*w per column and each trailing update
    about m*n, so w is near sqrt(n), at most _PANEL.  The update sums w
    products of residues, so at large p w is also at most int64_terms(p).
    """
    if n <= _PANEL:
        return 0
    return min(_PANEL, math.isqrt(n), int64_terms(p))


def _eliminate_dense(rows, p):
    """In-place rref of a modest block; returns (reduced rows, pivot cols).

    Panel elimination (Dumas-Giorgi-Pernet, "Dense linear algebra over
    word-size prime fields", ACM TOMS 2008): the column loop runs only on
    a panel of _panel_width columns of the rows that are not pivots yet.
    The k pivot rows R it picks, with pivot columns pc, become
    N = A[R, pc]^-1 A[R, :], and every other row x becomes x - x[pc] N,
    one matmul_mod per panel.
    """
    m, n = rows.shape
    width = _panel_width(n, p)
    if not width:
        where = _eliminate_columns(rows[None], p)[0]
        pivots = (where >= 0).nonzero()[0]
        return rows[where[pivots]], pivots.tolist()
    pivots = []
    r = 0
    for start in range(0, n, width):
        if r == m:
            break
        where = _eliminate_columns(rows[None, r:, start:start + width].copy(), p)[0]
        found = (where >= 0).nonzero()[0]
        k = found.size
        if not k:
            continue
        pc = (start + found).tolist()
        picked = (r + where[found]).tolist()
        # [A[R, pc] | I] reduces to [I | A[R, pc]^-1], its row j pivoting at j
        square = np.hstack([rows[np.ix_(picked, pc)], np.eye(k, dtype=np.int64)])
        inverse = square[_eliminate_columns(square[None], p)[0, :k], k:]
        new_rows = matmul_mod(inverse, rows[picked], p)
        # the picked rows take places r..r+k-1; the rows there take theirs
        block = range(r, r + k)
        rows[sorted(set(picked) - set(block))] = rows[sorted(set(block) - set(picked))]
        rows[r:r + k] = new_rows
        # rows zero at pc are zero on the whole panel, and every row is
        # zero left of it except the earlier pivot rows, where new_rows is
        coef = rows[:, pc]
        coef[r:r + k] = 0
        hit = np.flatnonzero(coef.any(axis=1))
        if hit.size:
            tail = rows[hit, start:]
            tail -= matmul_mod(coef[hit], new_rows[:, start:], p)
            tail %= p
            rows[hit, start:] = tail
        pivots.extend(pc)
        r += k
    return rows[:r], pivots


def rref_mod(a, p):
    """Canonical RREF over F_p.  Returns (R, pivot_cols).

    R has one row per pivot; pivot columns carry a single 1.  Input rows
    are folded in blockwise: each block is reduced mod p as it is read,
    so the input need not be reduced and is never copied whole, then
    reduced against the pivots found so far (one exact matmul) and
    eliminated locally.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.int64))
    basis = np.zeros((0, a.shape[1]), dtype=np.int64)
    pivots = []
    for start in range(0, a.shape[0], _RREF_BLOCK):
        chunk = a[start:start + _RREF_BLOCK] % p
        coeff = chunk[:, pivots]
        if coeff.any():
            chunk = (chunk - matmul_mod(coeff, basis, p)) % p
        new_rows, new_pivots = _eliminate_dense(chunk[chunk.any(axis=1)], p)
        if not new_pivots:
            continue
        coeff = basis[:, new_pivots]
        if coeff.any():
            basis = (basis - matmul_mod(coeff, new_rows, p)) % p
        basis = np.vstack([basis, new_rows])
        pivots.extend(new_pivots)
        order = np.argsort(pivots, kind="stable")
        basis = basis[order]
        pivots = [pivots[i] for i in order]
    return basis, pivots


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
    return basis * np.array([inv_mod(v, p) for v in lead])[:, None] % p


def kernel_mod(a, p):
    """Right-kernel basis rows, each scaled so its first nonzero entry is 1."""
    return _kernel_basis(*rref_mod(a, p), np.shape(a)[-1], p)


def stack_kernels(stack, p):
    """kernel_mod of each member of a C-contiguous (B, m, n) int64 stack
    of residues mod p, by one column loop that reduces it in place."""
    kernels = []
    for rows, where in zip(stack, _eliminate_columns(stack, p)):
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
    mult[r], to row bucket[r] of the (w + _SLACK) x w block S A, and only
    that block is kept.  Folded blocks at most _PANEL wide are eliminated
    as one stack per width (stack_kernels), wider ones by kernel_mod.
    ker A lies in ker S A, so an empty kernel of S A is that of A.  A
    nonempty one, K, is kept once A K^T = 0 holds on the triplets built
    again; otherwise the answer is kernel_mod(A).  Both give the one basis
    kernel_mod returns, which depends on the kernel alone.  A system with
    at most w + _SLACK rows goes to kernel_mod as it is.
    """
    out, stacks, sketches, folded = {}, {}, {}, []
    for key in keys:
        rows, cols, vals, (m, w) = build(key)
        if m <= w + _SLACK:
            out[key] = kernel_mod(_fold(rows, cols, vals, (m, w), p), p)
        else:
            if (m, w) not in sketches:
                sketches[m, w] = _sketch(m, w, p)
            bucket, mult = sketches[m, w]
            block = _fold(bucket[rows], cols, vals % p * mult[rows], (w + _SLACK, w), p)
            folded.append(key)
            if w > _PANEL:
                out[key] = kernel_mod(block, p)
            else:
                if w not in stacks:
                    # room for every key; pages no block is written to stay unmapped
                    stacks[w] = [], np.empty((len(keys), w + _SLACK, w), dtype=np.int64)
                done, stack = stacks[w]
                stack[len(done)] = block
                done.append(key)
        del rows, cols, vals      # so that no two systems are alive at once
    for done, stack in stacks.values():
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
    `count` systems of at most w unknowns: the elimination of a wide fold
    holds about 8 blocks of (w + _SLACK) x w entries, the narrow folds wait
    in stacks of at most count x (_PANEL + _SLACK) x _PANEL entries, and
    their batched elimination rewrites two slices of _UPDATE_CELLS entries."""
    folded = 8 * (w + _SLACK) * w
    narrow = count * (_PANEL + _SLACK) * _PANEL + 2 * _UPDATE_CELLS
    return 8 * (folded + narrow)


def inv_mod_matrix(a, p):
    """Inverse of a square matrix over F_p; raises ValueError if singular."""
    d = a.shape[0]
    if a.shape != (d, d):
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    aug, piv = rref_mod(np.hstack([a % p, np.eye(d, dtype=np.int64)]), p)
    if piv != list(range(d)):
        raise ValueError("matrix not invertible")
    return aug[:, d:]


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


def primitive_root(p):
    """Smallest primitive root mod an odd prime p."""
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
            return g
    raise ValueError(f"no primitive root mod {p}")


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
    """
    if p <= 3:
        raise ValueError("p must be a prime > 3")
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
    whatever B_k is.  With w = floor(g x / p) fixed, each weight is one
    dot product w @ x^(k-1), and the next power is one multiplication by
    x^2, so the sweep takes O(p) memory and (p - 3)/2 numpy steps (see
    Buhler-Crandall-Ernvall-Metsankyla, Math. Comp. 61, 1993).

    The dot product sums p - 1 terms w x with w < g in int64, at most
    what g - 1 products of residues sum to; a p where that could reach
    2^62 raises ValueError before anything is allocated.
    is_irregular_pair answers one k by the recursion.
    """
    check_prime(p, least=3)
    g = primitive_root(p)
    check_int64_sums(g - 1, p)
    x = np.arange(1, p, dtype=np.int64)
    w = g * x // p
    x2 = x * x % p
    cur = x                # x^(k-1) at k = 2
    weights = []
    for k in range(2, p - 2, 2):
        if int(w @ cur) % p == 0:
            weights.append(k)
        cur = cur * x2 % p
    return weights
