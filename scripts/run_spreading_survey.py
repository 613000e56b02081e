#!/usr/bin/env python3
"""Survey the spreading law over random composite coins.

Draws random multi-rotation coins, runs the exact walk, fits the log-log
variance slope, and reconciles the t -> infinity variance coefficient against
its closed form.  Writes one CSV row per coin, with the coin's largest speed
``max_speed`` = |C00| (0 for the non-spreading coins); a slope or ratio that
is undefined (too few steps, or a vanishing variance) is an empty field.
"""

import argparse
import math
from pathlib import Path

import numpy as np

from coinwalk.asymptotics import moment_integrals
from coinwalk.cli import _OPTIONS
from coinwalk.coins import random_coin_spec
from coinwalk.export import write_csv
from coinwalk.walk import InitialCondition, loglog_slope, moment_series


# the CLI's bounds of the options these scripts share with it
_BOUNDS = {opt.name: opt.bounds for opt in _OPTIONS}


def _int_in(lo, hi=math.inf):
    """argparse ``type`` for an integer in ``[lo, hi]``."""

    def integer(text):
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"{value} is outside [{lo}, {hi}]")
        return value

    return integer


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--coins", type=_int_in(0), default=20)
    ap.add_argument("--steps", type=_int_in(*_BOUNDS["steps"]), default=1000)
    ap.add_argument("--seed", type=_int_in(0), default=0)
    ap.add_argument("--outdir", default="out")
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    init = InitialCondition(np.array([1.0, 0.0]))
    n_rotations = np.empty(args.coins, dtype=np.int64)
    columns = np.empty((5, args.coins))  # max_speed, slope, var_ratio, variance_coeff, abs_err
    for i in range(args.coins):
        coin = random_coin_spec(rng, int(rng.integers(2, 5)))
        ms = moment_series(init, coin, args.steps)
        am = moment_integrals(coin, init)
        slope = loglog_slope(ms.variance)
        slope = math.nan if slope is None else slope
        var_ratio = float(ms.variance[args.steps]) / args.steps**2 if args.steps else math.nan
        n_rotations[i] = len(coin.rotations)
        columns[:, i] = (
            am.max_speed,
            slope,
            var_ratio,
            am.variance_coeff,
            abs(var_ratio - am.variance_coeff),
        )
        print(
            f"coin {i:2d}: {len(coin.rotations)} rotations, slope {slope:.4f}, "
            f"Var/t^2 {var_ratio:.5f} vs integral {am.variance_coeff:.5f}"
        )

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    out = outdir / "spreading_survey.csv"
    write_csv(
        out,
        ["coin", "n_rotations", "max_speed", "loglog_slope", "var_ratio", "variance_coeff", "abs_err"],
        [np.arange(args.coins), n_rotations, *columns],
    )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
