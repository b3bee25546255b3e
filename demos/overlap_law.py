#!/usr/bin/env python3
"""Measure the non-orthogonality of the cubic-phase coherent family.

States with different dispersion labels are never orthogonal: the
overlap magnitude decays only algebraically, |<eps|eps'>| proportional
to |eps - eps'|^(-1/3), with an Ai(0) prefactor and no dependence on
the translation label.  The demo evaluates the overlaps with the
steepest-descent cubic-phase quadrature, fits the exponent on a log-log grid,
and compares the measured prefactor with (2 hbar m^2)^(1/3) Ai(0) /
(hbar m).

Run:  python3 demos/overlap_law.py [--out-dir DIR]
"""

import argparse
import os

import numpy as np

from airylab.cli import emit_svg_plot
from airylab.experiments import overlap_scan


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default=None, help="write SVG artifacts here")
    args = ap.parse_args()

    deltas = [0.5, 1.0, 2.0, 4.0, 8.0]
    report = overlap_scan(deltas, tol_exponent=0.01, tol_label_dep=1e-8)

    print("overlap demo: |<eps, xi | eps', xi>| vs eps - eps'")
    print(f"{'delta':>7}  {'|overlap|':>12}")
    for d, mag in zip(report.metrics["deltas"],
                      report.metrics["abs_overlaps"]):
        print(f"{d:7.2f}  {mag:12.8f}")
    print(f"fitted exponent     : {report.metrics['exponent']:+.10f}")
    print(f"target              : -1/3")
    print(f"prefactor           : {report.metrics['prefactor']:.8f}")
    print(f"expected prefactor  : {report.metrics['prefactor_expected']:.8f}")
    print(f"label dependence    : {report.metrics['label_dependence']:.2e}")
    print(f"verdict             : {'PASS' if report.passed else 'FAIL'}")

    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        d = np.asarray(report.metrics["deltas"])
        mags = np.asarray(report.metrics["abs_overlaps"])
        path = os.path.join(args.out_dir, "overlap_law.svg")
        emit_svg_plot([("log |overlap|", np.log(d), np.log(mags)),
                       ("-1/3 slope", np.log(d),
                        report.metrics["intercept"] - np.log(d) / 3.0)], path)
        print(f"wrote {path}")

    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
