#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of bayes-screen's public commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark repeats whole rounds of ``bayes_screen.cli.main`` calls in this
process (closed loop, one client) for ``--seconds`` seconds, at least
MIN_ROUNDS times. A round is one ``fit``, one ``exact`` and one ``replicate``
call, sized by the workload, on a dataset the round draws from ``--seed``
and its own index (plain numpy, see ``oracle.py``) and writes as the
program's CSV input; the program's ``--seed`` is derived the same way. New
data and chains every round average the data-dependent part of the metrics
(such as the sigma^2 ESS) over the run. Every round's outputs are checked
against the benchmark's own computations, and one JSON line is printed:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics over the rounds after the first.
Rates are total work over total time of those rounds, not medians: the
host's speed drifts over seconds, and a mean over the whole run averages
that drift where a median picks one side of it.
``--trace 1`` runs the same rounds, then the last round again TRACE_PAIRS
times untraced and traced in turn, the traced ones with span wrappers
installed on the program's module attributes (``tracing.py``; ``replicate``
at ``--threads 1`` so that every span is in this process), and reports the
per-layer metrics and the tracing overhead instead.
"""

from __future__ import annotations

import argparse
import contextlib
import io as _io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
MIN_ROUNDS = 4  # the first round is a warm-up: it is run and checked, not timed
SETUP_REPEATS = 3
THREADS = 2
TRACE_PAIRS = 2  # untraced/traced round pairs of a --trace 1 run
NU = 6.0  # the CLI's default inverse-chi^2 dof, used by the exact-score check
TV_BOUND = 0.05  # lowdim_oracle: pooled visit frequencies vs the exact posterior


@dataclass(frozen=True)
class Workload:
    name: str
    make_data: object  # rng -> (x, y, beta)
    prior: list  # prior flags shared by fit and replicate
    m_n: int
    chains: int
    iters: int
    burn: int
    exact_tn: int
    generator: list  # replicate's --example ... flags: the same design as make_data
    rep_iters: int
    rep_burn: int
    reps: int
    check: object = None  # workload's own check: (workload, fit dir, x, y, beta, scores) -> None


def check_lowdim(w, fit_dir, x, y, beta, scores):
    """Pooled visit frequencies within TV_BOUND of the exact t_n-marginal
    (exact_tn = m_n, so ``scores`` holds every model the chains can visit)."""
    pooled = {}
    for i in range(w.chains):
        for g, cnt in oracle.read_counts(fit_dir / f"models_chain{i}.csv").items():
            pooled[g] = pooled.get(g, 0) + cnt
    total = sum(pooled.values())
    tv = oracle.tv_distance({g: v / total for g, v in pooled.items()}, oracle.tn_marginal(scores, w.m_n))
    require(tv <= TV_BOUND, f"visit frequencies are {tv:.4f} in TV from the exact posterior")


def check_highdim(w, fit_dir, x, y, beta, scores):
    """Modal model = true support; posterior mean of beta on the support
    agrees with U^-1 X'y within 6 Monte Carlo standard errors."""
    counts = oracle.read_counts(fit_dir / "models_chain0.csv")
    support = np.flatnonzero(beta)
    truth = "+".join(str(j + 1) for j in support)
    modal = max(counts, key=counts.get)
    require(modal == truth, f"modal model {{{modal}}} is not the true support {{{truth}}}")
    header = (fit_dir / "beta_chain0.csv").read_text().split("\n", 1)[0].split(",")
    draws = oracle.read_table(fit_dir / "beta_chain0.csv")
    c_bar = float(np.mean(oracle.read_table(fit_dir / "scalars_chain0.csv")[:, 2]))
    xs = x[:, support]
    ref = np.linalg.solve(xs.T @ xs + np.eye(support.size) / c_bar, xs.T @ y)
    for j, r in zip(support, ref):
        col = draws[:, header.index(f"beta{j + 1}")]
        se = np.std(col) / math.sqrt(oracle.ess(col))
        require(abs(col.mean() - r) <= 6.0 * se + 1e-12,
                f"posterior mean of beta{j + 1} is {col.mean():.5f}, U^-1 X'y gives {r:.5f} (se {se:.5f})")


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="lowdim_oracle",
            make_data=lambda rng: oracle.example1(rng, 100, 15, 2, rho=0.5),
            prior=["--prior", "fixed", "--c-preset", "bic", "--mn", "6"],
            m_n=6, chains=3, iters=2000, burn=500, exact_tn=6,
            generator=["--example", "1", "--n", "100", "--p", "15", "--s", "2", "--rho", "0.5"],
            rep_iters=2500, rep_burn=500, reps=4,
            check=check_lowdim,
        ),
        Workload(
            name="highdim_select",
            make_data=lambda rng: oracle.example2_setting1(rng, 200, 1000, 8),
            prior=["--prior", "gzs", "--d", "3", "--mn", "100"],
            m_n=100, chains=1, iters=600, burn=100, exact_tn=1,
            generator=["--example", "2", "--setting", "I", "--n", "200", "--p", "1000", "--s", "8"],
            rep_iters=200, rep_burn=100, reps=2,
            check=check_highdim,
        ),
        Workload(
            name="replicate_ghg",
            make_data=lambda rng: oracle.example1(rng, 100, 200, 4, rho=0.0),
            prior=["--prior", "ghg", "--d", "3", "--mn", "50"],
            m_n=50, chains=1, iters=1000, burn=200, exact_tn=1,
            generator=["--example", "1", "--n", "100", "--p", "200", "--s", "4"],
            rep_iters=1500, rep_burn=500, reps=4,
        ),
    ]
}


class CheckFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# --- the program's calls ------------------------------------------------------

def round_seed(seed, round_no):
    """The program's --seed in round ``round_no`` of a run with ``seed``."""
    return seed * 1000 + round_no


def calls(w, data_csv, out, seed, threads):
    """(kind, argv, operations) of one round."""
    return [
        ("fit", ["fit", "--data", str(data_csv), *w.prior, "--chains", str(w.chains),
                 "--iters", str(w.iters), "--burn", str(w.burn), "--record-beta",
                 "--seed", str(seed), "--out", str(out / "fit")], 1),
        ("exact", ["exact", "--data", str(data_csv), "--tn", str(w.exact_tn), "--c-preset", "bic",
                   "--mn", str(w.m_n), "--seed", str(seed), "--out", str(out / "exact")], 1),
        ("replicate", replicate_argv(w, out / "replicate", seed, threads), w.reps),
    ]


def replicate_argv(w, out, seed, threads):
    return ["replicate", *w.generator, *w.prior, "--iters", str(w.rep_iters), "--burn", str(w.rep_burn),
            "--reps", str(w.reps), "--threads", str(threads), "--record-beta",
            "--seed", str(seed), "--out", str(out)]


def invoke(cli, argv, tracer=None):
    """One in-process CLI call; returns (exit code, seconds)."""
    main = cli.main if tracer is None else tracer.span("cli.main", cli.main)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(_io.StringIO()):
            rc = main(argv)
    except Exception:  # a crash is a failed operation, reported with its traceback
        traceback.print_exc()
        rc = -1
    return rc, time.perf_counter() - start


def failed_ops(kind, rc, ops, out):
    """Failed operations of one call: the replications marked FAILED when
    replicate exits with 3 (all failed) or 4 (some failed), else the whole
    call unless it exited with 0."""
    if rc == 0:
        return 0
    if kind == "replicate" and rc in (3, 4):
        return (out / "summary.csv").read_text().count(",FAILED,")
    return ops


def run_round(cli, w, data_csv, out, seed, threads, tally, tracer=None):
    """Time each call of one round into a fresh ``out``; returns
    ({kind: seconds}, {kinds of the calls that exited with 0})."""
    shutil.rmtree(out, ignore_errors=True)
    walls, ok = {}, set()
    for kind, argv, ops in calls(w, data_csv, out, seed, threads):
        rc, walls[kind] = invoke(cli, argv, tracer)
        tally["attempted"] += ops
        tally["failed"] += failed_ops(kind, rc, ops, out / kind)
        if rc == 0:
            ok.add(kind)
        else:
            print(f"perfbench: {kind} exited with code {rc}: {' '.join(argv)}", file=sys.stderr)
    return walls, ok


# --- checks -------------------------------------------------------------------

def check_fit(w, fit_dir, x, y, beta, scores):
    """Visit counts, t_n range and beta sparsity of every chain, then the
    workload's own check; returns the sigma^2 effective sample size summed
    over chains."""
    kept = w.iters - w.burn
    total_ess = 0.0
    for i in range(w.chains):
        counts = oracle.read_counts(fit_dir / f"models_chain{i}.csv")
        require(sum(counts.values()) == kept, f"chain {i}: visit counts sum to {sum(counts.values())}, not {kept}")
        scalars = oracle.read_table(fit_dir / f"scalars_chain{i}.csv")
        t_n = scalars[:, 3]
        require(scalars.shape[0] == kept, f"chain {i}: {scalars.shape[0]} scalar rows, expected {kept}")
        require(np.all((1 <= t_n) & (t_n <= w.m_n)), f"chain {i}: t_n outside [1, {w.m_n}]")
        draws = oracle.read_table(fit_dir / f"beta_chain{i}.csv")
        require(draws.shape[0] == kept, f"chain {i}: {draws.shape[0]} beta rows, expected {kept}")
        require(np.all(np.count_nonzero(draws, axis=1) <= t_n), f"chain {i}: a beta row has more non-zeros than its t_n")
        total_ess += oracle.ess(scalars[:, 1])
    require((fit_dir / "diagnostics.csv").exists() and (fit_dir / "meta.json").exists(), "fit wrote no diagnostics")
    if w.check is not None:
        w.check(w, fit_dir, x, y, beta, scores)
    return total_ess


def check_exact(w, exact_dir, scores):
    """enumeration.csv against the benchmark's own scores of every model of
    size <= t_n; returns its row count."""
    rows = [line.split(",") for line in (exact_dir / "enumeration.csv").read_text().splitlines()[1:]]
    mine = {g: v for g, v in scores.items() if oracle.size_of(g) <= w.exact_tn}
    probs = oracle.normalise(mine)
    require(sorted(g for g, _, _ in rows) == sorted(mine), "enumeration.csv does not list every model of size <= t_n")
    for g, score, prob in rows:
        require(math.isclose(float(score), mine[g], rel_tol=1e-9, abs_tol=1e-9),
                f"model {{{g}}}: log score {score}, expected {mine[g]!r}")
        require(abs(float(prob) - probs[g]) <= 1e-9, f"model {{{g}}}: probability {prob}, expected {probs[g]!r}")
    total = math.fsum(float(p) for _, _, p in rows)
    require(abs(total - 1.0) <= 1e-9, f"enumeration probabilities sum to {total!r}")
    return len(rows)


def check_aggregate(w, rep_dir):
    """aggregate.csv against a recomputation from the rows of summary.csv."""
    lines = (rep_dir / "summary.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    require(len(rows) == w.reps and all(r["selected_gamma"] != "FAILED" for r in rows), "replications failed")
    agg = dict(line.split(",") for line in (rep_dir / "aggregate.csv").read_text().splitlines()[1:])
    for key, mine in oracle.aggregate(rows).items():
        if mine is None or agg[key] == "":
            same = mine is None and agg[key] == ""
        else:
            same = math.isclose(float(agg[key]), mine, rel_tol=1e-12)
        require(same, f"aggregate {key} = {agg[key]}, recomputed {mine!r}")


def same_summary(rep_dir, serial_dir):
    require((rep_dir / "summary.csv").read_bytes() == (serial_dir / "summary.csv").read_bytes(),
            f"summary.csv differs between --threads {THREADS} and --threads 1")


# --- main ---------------------------------------------------------------------

def import_program():
    """bayes_screen from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import bayes_screen.cli as cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import bayes_screen from {SRC}: {exc}")
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        sys.exit(f"perfbench: bayes_screen imported from {cli.__file__}, not from {SRC}")
    return cli


def dataset(w, seed, round_no):
    """Round ``round_no``'s dataset: (x, y, true beta)."""
    return w.make_data(np.random.default_rng([seed, sorted(WORKLOADS).index(w.name), round_no]))


def setup(w, seed, data_csv):
    """Draw the first dataset, write its CSV, and import the program in a
    fresh interpreter; repeated SETUP_REPEATS times, the median is setup_s."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        oracle.write_csv(data_csv, *dataset(w, seed, 0)[:2])
        subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import bayes_screen.cli",
                        str(SRC)], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    cli = import_program()
    w = WORKLOADS[args.workload]

    work = RUN_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    data_csv, out = work / "data.csv", work / "out"
    setup_s = setup(w, args.seed, data_csv)
    problems = []

    def checked(check, *args):
        try:
            return check(*args)
        except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(repr(exc))
            return math.nan

    tally = {"attempted": 0, "failed": 0}
    rounds, ess, models = [], [], []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        round_no = len(rounds)
        x, y, beta = dataset(w, args.seed, round_no)
        oracle.write_csv(data_csv, x, y)
        scores = oracle.model_scores(x, y, float(x.shape[0]), NU, w.exact_tn)  # c = n: the BIC preset
        walls, ok = run_round(cli, w, data_csv, out, round_seed(args.seed, round_no), THREADS, tally)
        rounds.append(walls)
        # a failed call is counted in `failed`; the checks speak of the others
        ess.append(checked(check_fit, w, out / "fit", x, y, beta, scores) if "fit" in ok else math.nan)
        models.append(checked(check_exact, w, out / "exact", scores) if "exact" in ok else math.nan)
        if "replicate" in ok:
            checked(check_aggregate, w, out / "replicate")
    # The last round again with replicate at --threads 1, untraced and (with
    # --trace 1) traced, alternating TRACE_PAIRS times: every summary.csv must
    # equal the --threads 2 one, and the untraced rounds are the base of the
    # tracing overhead.
    seed = round_seed(args.seed, round_no)
    tracer = untraced = None
    if args.trace:
        import tracing  # imports the program, so only after import_program()

        tracer, untraced, written = tracing.Tracer(), 0.0, 0
    for _ in range(TRACE_PAIRS if args.trace else 1):
        walls, serial_ok = run_round(cli, w, data_csv, work / "serial", seed, 1, tally)
        if {"replicate"} <= ok & serial_ok:
            checked(same_summary, out / "replicate", work / "serial" / "replicate")
        if tracer is None:
            break
        untraced += sum(walls.values())
        tracer.install()
        try:
            _, traced_ok = run_round(cli, w, data_csv, work / "traced", seed, 1, tally, tracer)
        finally:
            tracer.uninstall()
        written += sum(p.stat().st_size for p in (work / "traced").rglob("*") if p.is_file())
        if {"replicate"} <= ok & traced_ok:
            checked(same_summary, out / "replicate", work / "traced" / "replicate")

    print(f"perfbench: {len(rounds)} rounds; " + "; ".join(
        f"{kind} " + " ".join(f"{r[kind]:.3f}" for r in rounds) for kind in rounds[0]), file=sys.stderr)
    timed = rounds[1:]
    mean = {kind: statistics.fmean(r[kind] for r in timed) for kind in timed[0]}
    if tracer is not None:
        metrics = tracing.layer_metrics(tracer, untraced, TRACE_PAIRS * THREADS * mean["replicate"], written)
        from bayes_screen.kernel import active_kernel_name

        tracer.write(RUN_DIR / f"trace-{w.name}-seed{args.seed}.json", {
            "workload": w.name, "seed": args.seed, "kernel": active_kernel_name(),
            "python": sys.version.split()[0], "numpy": np.__version__, "metrics": metrics,
        })
    else:
        self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (sum(mean.values()), "s"),
            "fit_sweeps_per_s": (w.chains * w.iters / mean["fit"], "sweeps/s"),
            "fit_ess_per_s": (statistics.fmean(ess[1:]) / mean["fit"], "1/s"),
            "exact_models_per_s": (statistics.fmean(models[1:]) / mean["exact"], "models/s"),
            "replications_per_s": (w.reps / mean["replicate"], "reps/s"),
            "peak_rss_mb": ((self_rss + child_rss) / 1024.0, "MB"),
        }
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    metrics = {k: v for k, v in metrics.items() if math.isfinite(v["value"])}
    print(json.dumps({"correct": not problems, **tally, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
