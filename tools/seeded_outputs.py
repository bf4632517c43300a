#!/usr/bin/env python3
"""Run a fixed list of seeded bayes-screen commands and print one sha256 per
output file.

    python3 tools/seeded_outputs.py OUT [--src DIR]

Every command runs as ``python -m bayes_screen.cli`` with OUT as its working
directory and paths relative to it, so ``meta.json`` does not depend on
where OUT is. Each command's stdout is kept as ``<step>.stdout`` and hashed
with the files. ``--src`` picks the package source to run (default: the
``src`` next to this script). Running this on two commits and comparing the
printed lines checks that they write byte-identical outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

FIT = ["--iters", "3000", "--burn", "1000", "--chains", "2", "--record-beta"]

# (step, argv): run in order; later steps read what earlier ones wrote
STEPS = [
    ("simulate1", ["simulate", "--example", "1", "--n", "100", "--p", "15", "--s", "2",
                   "--rho", "0.5", "--seed", "11", "--out", "sim1"]),
    ("simulate2", ["simulate", "--example", "2", "--n", "60", "--p", "200", "--s", "4",
                   "--seed", "12", "--out", "sim2"]),
    ("fit_fixed", ["fit", "--data", "sim1/dataset.csv", "--prior", "fixed", "--c-preset", "bic",
                   *FIT, "--seed", "13", "--out", "fit_fixed"]),
    ("fit_gzs", ["fit", "--data", "sim1/dataset.csv", "--prior", "gzs", "--thin", "3",
                 *FIT, "--seed", "14", "--out", "fit_gzs"]),
    ("fit_ghg", ["fit", "--data", "sim1/dataset.csv", "--prior", "ghg", "--ghg-b", "1",
                 *FIT, "--seed", "15", "--out", "fit_ghg"]),
    ("fit_screened", ["fit", "--data", "sim2/dataset.csv", "--prior", "gzs", "--mn", "20",
                      *FIT, "--seed", "16", "--out", "fit_screened"]),
    ("exact", ["exact", "--data", "sim1/dataset.csv", "--tn", "4", "--c-preset", "bic",
               "--seed", "17", "--out", "exact"]),
    *[(f"replicate_t{t}", ["replicate", "--example", "1", "--n", "60", "--p", "12", "--s", "2",
                           "--prior", "gzs", "--iters", "1500", "--burn", "500", "--reps", "4",
                           "--threads", str(t), "--record-beta", "--seed", "18",
                           "--out", f"replicate_t{t}"]) for t in (1, 2)],
    ("diagnose", ["diagnose", "--scalars", "fit_gzs/scalars_chain0.csv", "fit_gzs/scalars_chain1.csv",
                  "--out", "diagnose"]),
    ("riesz_exact", ["check-riesz", "--data", "sim1/dataset.csv", "--r", "2", "--mode", "exact"]),
    ("riesz_sampled", ["check-riesz", "--data", "sim2/dataset.csv", "--r", "3", "--mode", "sampled",
                       "--budget", "2000", "--seed", "19"]),
]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=Path, help="output directory; must not exist")
    ap.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    args = ap.parse_args(argv)

    args.out.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(args.src.resolve())}
    for step, cmd in STEPS:
        with open(args.out / f"{step}.stdout", "wb") as fh:
            proc = subprocess.run([sys.executable, "-m", "bayes_screen.cli", *cmd],
                                  cwd=args.out, env=env, stdout=fh)
        if proc.returncode != 0:
            print(f"{step}: exit code {proc.returncode}", file=sys.stderr)
            return 1
    for path in sorted(p for p in args.out.rglob("*") if p.is_file()):
        print(hashlib.sha256(path.read_bytes()).hexdigest(), path.relative_to(args.out).as_posix())
    return 0


if __name__ == "__main__":
    sys.exit(main())
