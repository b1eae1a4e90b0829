"""Timing comparison: compiled angular-reduction kernel vs the NumPy fallback.

Runs the raw reduce_axial kernel on a large product grid and full
ball4_integrate calls under each backend, then prints a small table.

Usage: python3 benchmarks/compare_backends.py [--repeats N]
"""

import argparse
import time

import numpy as np

import devfactor._kernels as kernels
from devfactor._kernels import KIND_INV_SQUARE, _ball4_py
from devfactor.quadrature import (
    ball4_integrate,
    chebyshev_pair,
    shifted_denominator_integrand,
)

try:
    from devfactor._kernels import _ball4
except ImportError:
    _ball4 = None


def time_call(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_reduce(impl, repeats):
    x, wf, wc = chebyshev_pair(24)  # 49 angular nodes
    r = np.geomspace(0.01, 100.0, 4000)

    def run():
        impl.reduce_axial(KIND_INV_SQUARE, 0.7, 1.3, r, x, wf, wc)

    return time_call(run, repeats)


def bench_ball(impl, repeats):
    # quadrature looks the kernel up at call time; swap the dispatch attribute.
    saved = kernels.reduce_axial
    kernels.reduce_axial = impl.reduce_axial
    p = np.array([0.5, 0.0, 0.0, 0.0])
    f = shifted_denominator_integrand(p, 1.25)

    def run():
        res = ball4_integrate(f, 1000.0, tol=1e-10)
        assert res.converged

    try:
        return time_call(run, repeats)
    finally:
        kernels.reduce_axial = saved


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    backends = {"numpy": _ball4_py}
    if _ball4 is None:
        print("compiled extension not built; timing the fallback only")
    else:
        backends["compiled"] = _ball4

    rows = []
    for name, impl in backends.items():
        rows.append((name, bench_reduce(impl, args.repeats),
                     bench_ball(impl, args.repeats)))

    print(f"{'backend':<10} {'reduce_axial 4000x49':>22} {'ball4 tol 1e-10':>18}")
    for name, t_reduce, t_ball in rows:
        print(f"{name:<10} {t_reduce * 1e3:>19.3f} ms {t_ball * 1e3:>15.3f} ms")
    if len(rows) == 2:
        base = {name: t for name, t, _ in rows}
        ball = {name: t for name, _, t in rows}
        print(f"\nspeedup compiled/numpy: reduce_axial "
              f"{base['numpy'] / base['compiled']:.2f}x, "
              f"ball4 {ball['numpy'] / ball['compiled']:.2f}x")


if __name__ == "__main__":
    main()
