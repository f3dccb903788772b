"""Timing comparison of the jit and pure-numpy Kloosterman kernels.

Both code paths compute identical arrays (the suites run on either), so the
benchmark also asserts agreement to 1e-12 while it times them.  Run as
``python -m voronoi_lab.bench``.
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass

import numpy as np

from ._kernels import (
    HAVE_NUMBA,
    USE_NUMBA,
    kl_layer_numba,
    kl_layer_numpy,
    kloosterman_vector_kernel_numba,
    kloosterman_vector_kernel_numpy,
)
from .numeric import roots_of_unity
from .residues import inverse_table, unit_residues

__all__ = ["BenchRow", "run_benchmark", "main"]


@dataclass(frozen=True)
class BenchRow:
    kernel: str
    modulus: int
    numpy_seconds: float
    numba_seconds: float | None
    max_abs_diff: float | None

    @property
    def speedup(self) -> float | None:
        if self.numba_seconds is None or self.numba_seconds == 0:
            return None
        return self.numpy_seconds / self.numba_seconds


def _best_of(fn, args, repeats: int) -> tuple[float, np.ndarray]:
    out = fn(*args)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def run_benchmark(moduli=(199, 840, 2310), repeats: int = 5) -> list[BenchRow]:
    rows = []
    rng = np.random.default_rng(12)
    for m in moduli:
        m = int(m)
        units = unit_residues(m)
        invs = inverse_table(m)[units]
        roots = np.asarray(roots_of_unity(m), dtype=np.complex128)
        tail = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        layer_args = (units, invs, 3, m, roots, tail)
        vector_args = (units, invs, 5, m, roots)
        for kernel, np_fn, nb_fn, args in (
            ("layer", kl_layer_numpy, kl_layer_numba, layer_args),
            ("vector", kloosterman_vector_kernel_numpy, kloosterman_vector_kernel_numba, vector_args),
        ):
            t_np, out_np = _best_of(np_fn, args, repeats)
            if HAVE_NUMBA:
                t_nb, out_nb = _best_of(nb_fn, args, repeats)
                diff = float(np.max(np.abs(out_np - out_nb)))
                if diff > 1e-12 * max(1.0, float(np.max(np.abs(out_np)))):
                    raise AssertionError(f"kernel mismatch at modulus {m}: {diff}")
            else:
                t_nb, diff = None, None
            rows.append(BenchRow(kernel, m, t_np, t_nb, diff))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--moduli", type=int, nargs="+", default=[199, 840, 2310],
        help="layer moduli to time",
    )
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    print(f"numba available: {HAVE_NUMBA}; dispatch uses numba: {USE_NUMBA}")
    rows = run_benchmark(args.moduli, args.repeats)
    header = f"{'kernel':8s} {'modulus':>8s} {'numpy':>12s} {'numba':>12s} {'speedup':>8s}"
    print(header)
    for row in rows:
        nb = f"{row.numba_seconds * 1e3:9.3f} ms" if row.numba_seconds is not None else "       n/a"
        sp = f"{row.speedup:7.1f}x" if row.speedup is not None else "     n/a"
        print(f"{row.kernel:8s} {row.modulus:8d} {row.numpy_seconds * 1e3:9.3f} ms {nb} {sp}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
