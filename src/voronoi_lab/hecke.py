"""GL(N) Fourier coefficients from Satake parameters via Schur polynomials.

A coefficient source produces A(m_1, ..., m_{N-1}) for a degree-N form.  For
Satake-backed sources each prime-power block is a Schur polynomial in that
prime's parameters and blocks multiply across coprime parts, so the Hecke
relations hold by construction.  A raw table is its seed: each prime-power
block is a deterministic draw keyed by the seed and the index, with no Schur
structure, and serves identities that are pure finite arithmetic.

Index orientation (which end of the exponent tuple pairs with the standard
L-function) is an empirically pinned convention, not a formula quoted from a
reference: it is fixed so that the generating series of A(1, ..., 1, p^k) in
p^{-s} is the inverse of the degree-N Euler factor, and the regression tests
assert this together with the Hecke recursions that depend on it.
"""

from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np

from .numeric import split_product, split_quotient
from .residues import divisors, factorize, primes_up_to, valuation


def _hvec(x: tuple[complex, ...], kmax: int) -> list[complex]:
    """Complete homogeneous symmetric polynomials h_0..h_kmax of x."""
    h = [1 + 0j] + [0j] * kmax
    for xi in x:
        for k in range(1, kmax + 1):
            h[k] = h[k] + xi * h[k - 1]
    return h


def _det_fraction_free(a: list[list[complex]]) -> complex:
    """Bareiss (fraction-free) determinant with partial pivoting; destroys a."""
    n = len(a)
    sign = 1
    prev = 1 + 0j
    for k in range(n - 1):
        piv = max(range(k, n), key=lambda r: abs(a[r][k]))
        if abs(a[piv][k]) == 0.0:
            return 0j
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
            a[i][k] = 0j
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def schur(k: tuple[int, ...], x: tuple[complex, ...]) -> complex:
    """Schur polynomial S_{k_1,...,k_{N-1}}(x_1,...,x_N).

    The partition is lambda_j = k_j + ... + k_{N-1}; evaluation is the
    Jacobi-Trudi determinant det(h_{lambda_i - i + j}) over the complete
    homogeneous polynomials of x.
    """
    if any(ki < 0 for ki in k):
        raise ValueError("Schur indices must be nonnegative")
    rows = len(k)
    if rows == 0:
        return 1 + 0j
    lam = list(itertools.accumulate(reversed(k)))[::-1]
    h = _hvec(tuple(x), lam[0] + rows)
    mat = [
        [h[lam[i] - (i + 1) + (j + 1)] if 0 <= lam[i] - (i + 1) + (j + 1) else 0j for j in range(rows)]
        for i in range(rows)
    ]
    return _det_fraction_free(mat)


def _schur_batch(kvecs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """schur(kvecs[b], x[b]) for every b, bit for bit, in one batched elimination.

    kvecs is int[B, rows] and x complex128[B, N].  _hvec and _det_fraction_free
    run on split float64 real/imaginary arrays, one operation at a time in
    CPython's own order: products as split_product, quotients as
    split_quotient, the pivot the first maximum of
    np.hypot (abs), a zero pivot giving 0j and the sign applied as the product
    (sign + 0j) z.  numpy's complex ufuncs and np.linalg.det round differently.
    """
    nb, rows = kvecs.shape
    out = np.ones(nb, dtype=complex)
    if rows == 0 or nb == 0:
        return out
    lam = np.cumsum(kvecs[:, ::-1], axis=1)[:, ::-1]
    kmax = int(lam[:, 0].max()) + rows
    hr = np.zeros((kmax + 1, nb))
    hi = np.zeros((kmax + 1, nb))
    hr[0] = 1.0
    for xr, xi in zip(x.real.T, x.imag.T):
        for k in range(1, kmax + 1):
            pr, pi = split_product((xr, xi), (hr[k - 1], hi[k - 1]))
            hr[k] += pr
            hi[k] += pi
    idx = lam[:, :, None] - np.arange(rows)[None, :, None] + np.arange(rows)[None, None, :]
    cols = np.arange(nb)[:, None, None]
    inside = idx >= 0
    ar = np.where(inside, hr[np.maximum(idx, 0), cols], 0.0)
    ai = np.where(inside, hi[np.maximum(idx, 0), cols], 0.0)
    blocks = np.arange(nb)
    sign = np.ones(nb)
    dead = np.zeros(nb, dtype=bool)
    prev_r, prev_i = np.ones(nb), np.zeros(nb)
    with np.errstate(all="ignore"):  # dead blocks divide by 0; their result is 0j
        for k in range(rows - 1):
            size = np.hypot(ar[:, k:, k], ai[:, k:, k])
            piv = k + np.argmax(size, axis=1)
            dead |= size.max(axis=1) == 0.0
            swap = piv != k
            for a in (ar, ai):
                a[blocks, k], a[blocks, piv] = a[blocks, piv], a[blocks, k]
            sign[swap] = -sign[swap]
            t1r, t1i = split_product(
                (ar[:, k + 1 :, k + 1 :], ai[:, k + 1 :, k + 1 :]),
                (ar[:, k, k, None, None], ai[:, k, k, None, None]),
            )
            t2r, t2i = split_product(
                (ar[:, k + 1 :, k, None], ai[:, k + 1 :, k, None]),
                (ar[:, k, None, k + 1 :], ai[:, k, None, k + 1 :]),
            )
            ar[:, k + 1 :, k + 1 :], ai[:, k + 1 :, k + 1 :] = split_quotient(
                (t1r - t2r, t1i - t2i), (prev_r[:, None, None], prev_i[:, None, None])
            )
            prev_r, prev_i = ar[:, k, k].copy(), ai[:, k, k].copy()
    zr, zi = ar[:, -1, -1], ai[:, -1, -1]
    out.real, out.imag = split_product((sign, 0.0), (zr, zi))
    out[dead] = 0j
    return out


# ---------------------------------------------------------------------------
# Parameter families


def _row_products(alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(re, im) of math.prod(row, start=1 + 0j) for each row, bit for bit."""
    prod = (np.ones(len(alphas)), np.zeros(len(alphas)))
    for col in alphas.T:
        prod = split_product(prod, (col.real, col.imag))
    return prod


class SatakeParams:
    """Satake parameters on an ascending prime array, with product 1 at each prime.

    primes is int64[P] and alphas complex128[P, N]: row i holds
    (alpha_1(p), ..., alpha_N(p)) at p = primes[i].  Both are read-only.  The
    products are checked in one pass over the columns, in the order of
    math.prod, and the first prime whose product is not 1 is named.
    """

    __slots__ = ("degree", "primes", "alphas")

    def __init__(self, degree: int, primes, alphas):
        primes = np.array(primes, dtype=np.int64)
        alphas = np.array(alphas, dtype=complex)
        if primes.ndim != 1 or np.any(primes[1:] <= primes[:-1]):
            raise ValueError("primes must be one ascending array")
        if alphas.shape != (primes.size, degree):
            raise ValueError(f"expected {degree} parameters at each of {primes.size} primes")
        prod = _row_products(alphas)
        size = np.hypot(*prod)
        bad = np.hypot(prod[0] - 1, prod[1]) > 1e-12 * np.maximum(1.0, size)
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(
                f"parameter product at p = {primes[i]} is {complex(prod[0][i], prod[1][i])}, not 1"
            )
        primes.flags.writeable = alphas.flags.writeable = False
        self.degree, self.primes, self.alphas = degree, primes, alphas

    def rows(self, ps) -> np.ndarray:
        """alphas at each prime of ps, gathered in one searchsorted; the first
        prime without parameters raises."""
        ps = np.asarray(ps, dtype=np.int64)
        idx = np.searchsorted(self.primes, ps)
        found = idx < self.primes.size
        found[found] = self.primes[idx[found]] == ps[found]
        if not found.all():
            raise ValueError(f"prime {ps[(~found).argmax()]} not populated in SatakeParams")
        return self.alphas[idx]

    def alphas_at(self, p: int) -> tuple[complex, ...]:
        return tuple(self.rows((p,))[0].tolist())


def random_satake(degree: int, prime_bound: int, seed: int) -> SatakeParams:
    """N-1 parameters uniform on the unit circle, the last their inverse product."""
    primes = primes_up_to(prime_bound)
    angles = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, (len(primes), degree - 1))
    alphas = np.empty((len(primes), degree), dtype=complex)
    alphas[:, :-1] = np.exp(1j * angles)
    last = split_quotient((1.0, 0.0), _row_products(alphas[:, :-1]))
    alphas[:, -1].real, alphas[:, -1].imag = last
    return SatakeParams(degree, primes, alphas)


def isobaric_params(degree: int, shifts: tuple[complex, ...], prime_bound: int) -> SatakeParams:
    """alpha_i(p) = p^(-s_i) for balanced shifts (sum 0)."""
    if len(shifts) != degree:
        raise ValueError("need one shift per degree")
    total = sum(shifts)
    if abs(total) > 1e-12 * max(1.0, max((abs(s) for s in shifts), default=0.0)):
        raise ValueError(f"shifts must sum to zero, got {total}")
    primes = primes_up_to(prime_bound)
    alphas = np.empty((len(primes), degree), dtype=complex)
    # CPython's scalar power: numpy's power, log and exp differ in the last bit
    for j, s in enumerate(shifts):
        alphas[:, j] = [complex(p) ** (-s) for p in primes]
    return SatakeParams(degree, primes, alphas)


def rankin_selberg_params(f1: SatakeParams, f2: SatakeParams) -> SatakeParams:
    """All pairwise products alpha_i(p) beta_j(p), i major; degree N1*N2."""
    if not np.array_equal(f1.primes, f2.primes):
        raise ValueError("parameter families live on different prime sets")
    a, b = f1.alphas[:, :, None], f2.alphas[:, None, :]
    re, im = split_product((a.real, a.imag), (b.real, b.imag))
    alphas = np.empty(re.shape, dtype=complex)
    alphas.real, alphas.imag = re, im
    return SatakeParams(f1.degree * f2.degree, f1.primes, alphas.reshape(len(f1.primes), -1))


# ---------------------------------------------------------------------------
# Coefficient sources


def _hash_unit(seed: int, degree: int, key: tuple) -> complex:
    h = hashlib.sha256(f"{seed}|{degree}|{key}".encode()).digest()
    u = int.from_bytes(h[:8], "big") / 2**64
    v = int.from_bytes(h[8:16], "big") / 2**64
    return complex(2 * u - 1, 2 * v - 1)


class CoefficientSource:
    """Fourier coefficients A(m_1,...,m_{N-1}) of a degree-N symbol.

    Exactly one of satake and seed is given.  With SatakeParams (the random,
    isobaric and Rankin-Selberg builders) each prime block is a Schur value,
    and a read at a prime the parameters do not cover raises.  With a seed
    (raw_table_source) each prime block is one deterministic draw, and blocks
    multiply across coprime parts.  The block and row stores are only ever
    inserted into (atomic in CPython), so concurrent readers are safe.
    """

    def __init__(self, degree: int, satake: SatakeParams | None = None, seed: int | None = None):
        if degree < 2:
            raise ValueError("degree must be >= 2")
        if (satake is None) == (seed is None):
            raise ValueError("give exactly one of satake and seed")
        if satake is not None and satake.degree != degree:
            raise ValueError(f"need SatakeParams of degree {degree}")
        self.degree = degree
        self.satake = satake
        self.seed = seed
        # filled in by isobaric_source; lets downstream series evaluators
        # recover the L-function factorization without re-deriving shifts
        self.isobaric_shifts: tuple[complex, ...] | None = None
        self._blocks: dict[tuple[int, tuple[int, ...]], complex] = {}
        self._row_cache: dict[tuple, object] = {}

    # -- prime blocks -------------------------------------------------------

    def _block(self, p: int, kvec: tuple[int, ...]) -> complex:
        key = (p, kvec)
        hit = self._blocks.get(key)
        if hit is None:
            if self.satake is not None:
                hit = schur(kvec, self.satake.alphas_at(p))
            elif any(kvec):
                # raw table: a draw keyed by m, with p^k at the positions kvec prescribes
                hit = _hash_unit(self.seed, self.degree, tuple(p**e for e in reversed(kvec)))
            else:
                hit = 1 + 0j
            self._blocks[key] = hit
        return hit

    def coefficient(self, m: tuple[int, ...]) -> complex:
        """A(m); prime-power blocks assembled multiplicatively (coprime parts)."""
        m = tuple(int(v) for v in m)
        if len(m) != self.degree - 1:
            raise ValueError(f"need {self.degree - 1} indices, got {len(m)}")
        if any(v < 1 for v in m):
            raise ValueError("indices must be >= 1")
        out = 1 + 0j
        support: dict[int, list[int]] = {}
        for pos, v in enumerate(m):
            for p, e in factorize(v):
                support.setdefault(p, [0] * (self.degree - 1))[pos] = e
        for p, evec in support.items():
            # block indices pair the last coordinate of m with k_1
            out *= self._block(p, tuple(reversed(evec)))
        return out

    def _slot_blocks(self, pos: int, pairs: list[tuple[int, int]]) -> np.ndarray:
        """Block (p, k in slot pos, 0 elsewhere) for each pair.

        Satake-backed sources gather every pair's parameters in one
        SatakeParams.rows call, which raises as alphas_at does for a prime
        without parameters, and evaluate all of them in one _schur_batch, bit
        for bit the scalar schur.  Raw tables go through _block.
        """
        def kvec(k: int) -> tuple[int, ...]:
            evec = [0] * (self.degree - 1)
            evec[pos] = k
            return tuple(reversed(evec))

        if self.satake is None:
            return np.array([self._block(p, kvec(k)) for p, k in pairs], dtype=complex)
        pk = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        kvecs = np.zeros((len(pk), self.degree - 1), dtype=np.int64)
        kvecs[:, self.degree - 2 - pos] = pk[:, 1]
        return _schur_batch(kvecs, self.satake.rows(pk[:, 0]))

    def _base_row(self, pos: int, x: int) -> np.ndarray:
        """A with slot pos equal to e and every other slot 1, e = 0..x (entry 0 is 0).

        One sieve: each prime p <= sqrt(x) writes its blocks into the multiples
        of p, exact valuation last; every larger prime divides its multiples
        once, so those are written for all of them at once, one cofactor j at
        a time.  Blocks multiply in ascending prime order, as in coefficient;
        they come from one _slot_blocks call.
        """
        key = ("base", pos, x)
        row = self._row_cache.get(key)
        if row is not None:
            return row
        row = np.ones(x + 1, dtype=complex)
        row[0] = 0
        primes = np.array(primes_up_to(x), dtype=np.int64)
        split = int(np.searchsorted(primes, math.isqrt(x), side="right"))
        # every block the sieve reads, in its order: (p, k) with p^k <= x
        pairs = []
        for p in primes[:split].tolist():
            pk, k = p, 1
            while pk <= x:
                pairs.append((p, k))
                pk, k = pk * p, k + 1
        pairs += [(p, 1) for p in primes[split:].tolist()]
        blocks = iter(self._slot_blocks(pos, pairs).tolist())
        for p in primes[:split].tolist():
            factor = np.full(x // p, next(blocks))
            pk = p
            while pk * p <= x:
                factor[pk - 1 :: pk] = next(blocks)
                pk *= p
            row[p::p] *= factor
        big = primes[split:]
        if big.size:
            b1 = np.array(list(blocks))
            for j in range(1, x // int(big[0]) + 1):
                stop = int(np.searchsorted(big, x // j, side="right"))
                row[j * big[:stop]] *= b1[:stop]
        row.flags.writeable = False
        self._row_cache[key] = row
        return row

    def coefficient_row(
        self, prefix: tuple[int, ...], suffix: tuple[int, ...], x: int, scale: int = 1
    ) -> np.ndarray:
        """Read-only complex128[x+1] whose entry e is A(prefix, scale*e, suffix); entry 0 is 0.

        The same values as coefficient, built with array operations: split e into
        its part over the primes of the fixed slots and of scale, and the rest
        e'.  The entry is the base row (_base_row) at e' times one block per
        fixed prime.  A block that cannot be formed (a prime the Satake
        parameters do not cover) raises while the row is built, with the error
        coefficient raises.
        """
        key = (tuple(prefix), tuple(suffix), x, scale)
        row = self._row_cache.get(key)
        if row is not None:
            return row
        prefix = tuple(int(v) for v in prefix)
        suffix = tuple(int(v) for v in suffix)
        scale, x = int(scale), int(x)
        fixed = prefix + (scale,) + suffix
        if len(fixed) != self.degree - 1:
            raise ValueError(f"need {self.degree - 1} indices, got {len(fixed)}")
        if any(v < 1 for v in fixed):
            raise ValueError("indices must be >= 1")
        if x < 0:
            raise ValueError("row length x must be >= 0")
        pos = len(prefix)
        rest = np.arange(x + 1, dtype=np.int64)  # e stripped of the fixed primes
        factor = np.ones(x + 1, dtype=complex)
        for p in sorted({p for v in fixed for p, _ in factorize(v)}):
            exps = [valuation(v, p) for v in fixed]
            val = np.zeros(x + 1, dtype=np.int64)
            pk = p
            while pk <= x:
                val[pk::pk] += 1
                pk *= p
            table = []
            for k in range(int(val.max()) + 1):
                evec = list(exps)
                evec[pos] += k
                table.append(self._block(p, tuple(reversed(evec))))
            factor *= np.array(table)[val]
            rest //= p**val
        row = self._base_row(pos, x)[rest] * factor
        row[0] = 0
        row.flags.writeable = False
        self._row_cache[key] = row
        return row


def random_satake_source(degree: int, prime_bound: int, seed: int) -> CoefficientSource:
    return CoefficientSource(degree, satake=random_satake(degree, prime_bound, seed))


def isobaric_source(degree: int, shifts: tuple[complex, ...], prime_bound: int) -> CoefficientSource:
    src = CoefficientSource(degree, satake=isobaric_params(degree, shifts, prime_bound))
    src.isobaric_shifts = tuple(complex(sh) for sh in shifts)
    return src


def rankin_selberg_source(f1: SatakeParams, f2: SatakeParams) -> CoefficientSource:
    return CoefficientSource(f1.degree * f2.degree, satake=rankin_selberg_params(f1, f2))


def raw_table_source(degree: int, seed: int) -> CoefficientSource:
    return CoefficientSource(degree, seed=seed)


def verify_hecke_relations(
    f: CoefficientSource, n: int, m: tuple[int, ...]
) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """Both sides of the two Hecke recursions.

    First pair: A(1,..,1,n) A(m_{N-1},..,m_1) against the divisor sum over
    d_0 d_1 ... d_{N-1} = n with d_i | m_i of A(m_{N-1} d_{N-2}/d_{N-1}, ...,
    m_1 d_0/d_1).  Second pair: A(n,1,..,1) A(m_1,..,m_{N-1}) against the sum
    of A(m_1 d_0/d_1, ..., m_{N-1} d_{N-2}/d_{N-1}).
    """
    deg = f.degree
    if len(m) != deg - 1:
        raise ValueError(f"need {deg - 1} indices")
    last = (1,) * (deg - 2) + (n,)
    first = (n,) + (1,) * (deg - 2)
    lhs_a = f.coefficient(last) * f.coefficient(tuple(reversed(m)))
    lhs_b = f.coefficient(first) * f.coefficient(m)
    rhs_a = 0j
    rhs_b = 0j
    for dtail in itertools.product(*(divisors(mi) for mi in m)):
        dp = math.prod(dtail)
        if n % dp != 0:
            continue
        d = (n // dp,) + dtail  # d[i] = d_i, i = 0..N-1
        idx_a = tuple(m[deg - j - 1] * d[deg - 1 - j] // d[deg - j] for j in range(1, deg))
        idx_b = tuple(m[j - 1] * d[j - 1] // d[j] for j in range(1, deg))
        rhs_a += f.coefficient(idx_a)
        rhs_b += f.coefficient(idx_b)
    return (lhs_a, rhs_a), (lhs_b, rhs_b)
