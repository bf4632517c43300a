"""Start-up cost: ``scipy.stats`` loads only for the g-prior quadrature."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs in a fresh interpreter with the output directory as argv[1]; its last
# stdout line is a JSON list of [step, scipy.stats loaded after the step].
SCRIPT = r"""
import contextlib, io, json, sys

seen = []

def step(name):
    seen.append([name, "scipy.stats" in sys.modules])

import bayes_screen
step("import bayes_screen")
from bayes_screen import cli
step("import bayes_screen.cli")

tmp = sys.argv[1]
data = f"{tmp}/sim/dataset.csv"
chain = ["--iters", "60", "--burn", "10", "--chains", "2", "--seed", "3"]
calls = {
    "simulate": ["simulate", "--example", "1", "--n", "20", "--p", "5", "--s", "2",
                 "--seed", "7", "--out", f"{tmp}/sim"],
    "fit fixed": ["fit", "--data", data, "--prior", "fixed", "--c", "5", *chain,
                  "--out", f"{tmp}/fixed"],
    "fit gzs": ["fit", "--data", data, "--prior", "gzs", *chain, "--out", f"{tmp}/gzs"],
    "fit ghg": ["fit", "--data", data, "--prior", "ghg", *chain, "--out", f"{tmp}/ghg"],
    "exact": ["exact", "--data", data, "--tn", "2", "--c", "5", "--out", f"{tmp}/exact"],
    "replicate": ["replicate", "--example", "1", "--n", "20", "--p", "5", "--s", "2",
                  "--iters", "60", "--burn", "10", "--reps", "2", "--threads", "1",
                  "--out", f"{tmp}/rep"],
    "diagnose": ["diagnose", "--scalars", f"{tmp}/gzs/scalars_chain0.csv",
                 f"{tmp}/gzs/scalars_chain1.csv", "--out", f"{tmp}/diag"],
    "check-riesz": ["check-riesz", "--data", data, "--r", "2", "--mode", "exact"],
}
for name, argv in calls.items():
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, (name, code)
    step(name)

from bayes_screen import GZS, PriorConfig, log_unnorm_posterior_g
from bayes_screen.io import read_dataset

prior = PriorConfig(nu=6.0, m_n=5, c_prior=GZS(a=1.0, b_n=2.0))
log_unnorm_posterior_g((0,), read_dataset(data), prior, t_n=5)
step("log_unnorm_posterior_g")
print(json.dumps(seen))
"""


def test_scipy_stats_loads_only_for_g_prior_quadrature(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert [name for name, loaded in seen if loaded] == ["log_unnorm_posterior_g"]
