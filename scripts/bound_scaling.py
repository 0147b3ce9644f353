"""Sweep the diameter bound over a (q, k) grid and fit a power law.

Builds every construction in the grid, tabulates B, then regresses
log B on log q and log k. Prints the table head, the fitted exponents,
and the worst residuals so outliers are easy to spot.

Usage: python3 scripts/bound_scaling.py [--q-max 40] [--k-max 14] [--L 5.0]
"""

import argparse
from math import exp, log
from time import perf_counter

import numpy as np

from shiu.bounds import bound_table


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q-max", type=int, default=40)
    ap.add_argument("--k-max", type=int, default=14)
    ap.add_argument("--L", type=float, default=5.0)
    args = ap.parse_args()
    if args.q_max < 4 or args.k_max < 3:
        ap.error("need --q-max >= 4 and --k-max >= 3, so that q and k both vary")

    t0 = perf_counter()
    rows = bound_table(
        range(3, args.q_max + 1),
        range(2, args.k_max + 1),
        L=args.L,
    )
    print(f"built {len(rows)} grid cells in {perf_counter() - t0:.2f}s")

    # least squares for log B ~ c + e_q*log q + e_k*log k; every row has B > 0
    design = np.array([[1.0, log(r.q), log(r.k)] for r in rows])
    ys = np.array([log(r.B) for r in rows])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    c, e_q, e_k = map(float, coef)
    rms = float(np.sqrt(np.mean((ys - design @ coef) ** 2)))
    print(f"fit over {len(rows)} points: B ~ {exp(c):.3g} * q^{e_q:.3f}"
          f" * k^{e_k:.3f} (rms residual {rms:.3f})")

    def predicted(r):
        return c + e_q * log(r.q) + e_k * log(r.k)

    worst = sorted(rows, key=lambda r: abs(log(r.B) - predicted(r)))[-5:]
    print("largest deviations from the fit:")
    for r in reversed(worst):
        ratio = r.B / exp(predicted(r))
        print(f"  q={r.q:3d} a={r.a:3d} k={r.k:3d} t={r.t:3d} "
              f"B={r.B:6d} observed/fitted={ratio:.2f}")

    in_window = sum(r.t_in_window for r in rows)
    print(f"shifts inside the (k-1)*max(k,L)+k window: "
          f"{in_window}/{len(rows)}")


if __name__ == "__main__":
    main()
