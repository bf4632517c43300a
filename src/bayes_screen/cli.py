"""Command-line front end.

Subcommands: simulate, fit, exact, replicate, diagnose, check-riesz.
All randomness derives from --seed; per-replication and per-chain streams
are derived deterministically, so reruns (including multi-process
replication runs) are bit-identical.

A flat key=value config file can supply any long option for the chosen
subcommand; explicit flags override the file, which overrides defaults.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, diagnostics, hyperc, io
from .data import GHG, GZS, FixedC, PriorConfig, ValidationError
from .exact import LogScore, check_sparse_riesz, enumerate_posterior, map_model
# perfbench/tracing.py wraps cli.log_unnorm_posterior, so the name stays here
from .exact import log_unnorm_posterior  # noqa: F401
from .gibbs import ChainAbort, ChainConfig, chain_seed, merge_chains, run_chain
from .inference import aggregate_records, credible_intervals, summarize_run
from .simgen import Example1Spec, Example2Spec, gen_example1, gen_example2

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ABORT = 3
EXIT_PARTIAL = 4


# --- config file --------------------------------------------------------------

def load_config_file(path) -> dict:
    """Flat key=value file; keys are long option names (dashes or underscores)."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key=value")
        key, val = line.split("=", 1)
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def apply_config_defaults(parser: argparse.ArgumentParser, values: dict) -> None:
    """Install config-file values as parser defaults (flags still win)."""
    converted = {}
    for action in parser._actions:
        if action.dest in values:
            raw = values[action.dest]
            if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
                converted[action.dest] = raw.lower() in ("1", "true", "yes", "on")
            elif action.type is not None:
                converted[action.dest] = action.type(raw)
            else:
                converted[action.dest] = raw
    unknown = set(values) - set(converted)
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(sorted(unknown))}")
    parser.set_defaults(**converted)


# --- shared argument groups ----------------------------------------------------

def add_generator_args(sp):
    sp.add_argument("--example", type=int, choices=(1, 2), required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--s", type=int, required=True, help="true model size s_n")
    sp.add_argument("--rho", type=float, default=0.0, help="example 1 AR(1) correlation")
    sp.add_argument("--sigma2", type=float, default=1.0, help="example 1 error variance")
    sp.add_argument("--setting", choices=("I", "II"), default="I", help="example 2 setting")
    sp.add_argument("--sigma", type=float, default=None, help="example 2 error sd")
    sp.add_argument("--a", type=float, default=None, help="example 2 signal floor")
    sp.add_argument("--r", type=float, default=None, help="example 2 collinearity")


def add_prior_args(sp):
    sp.add_argument("--prior", choices=("fixed", "gzs", "ghg"), default="gzs")
    sp.add_argument("--c", type=float, default=None, help="fixed c value")
    sp.add_argument("--c-preset", choices=("bic", "ric", "benchmark"), default=None)
    sp.add_argument("--d", type=float, default=3.0, help="g-prior exponent (b_n or GHG d)")
    sp.add_argument("--gzs-a", type=float, default=0.0)
    sp.add_argument("--ghg-b", type=float, default=0.0)
    sp.add_argument("--nu", type=float, default=6.0)
    sp.add_argument("--mn", type=int, default=None, help="size cap m_n (default n/2)")
    sp.add_argument("--sigma-kappa", type=float, default=0.5)


def add_chain_args(sp):
    sp.add_argument("--iters", type=int, default=10000)
    sp.add_argument("--burn", type=int, default=5000)
    sp.add_argument("--thin", type=int, default=1)
    sp.add_argument("--chains", type=int, default=1)
    sp.add_argument("--record-beta", action="store_true")


def generator_spec(args):
    if args.example == 1:
        return Example1Spec(
            n=args.n, p=args.p, s_n=args.s, rho=args.rho, sigma_sq=args.sigma2, seed=0
        )
    sigma = args.sigma
    if sigma is None:
        sigma = {5: 1.0, 14: 2.0}.get(args.s, 1.5) if args.setting == "II" else 1.5
    a = args.a
    if a is None:
        if args.setting == "I":
            mult = 4.0 if args.s <= 8 else 5.0
        else:
            mult = 2.0 if args.s == 5 else 4.0
        a = mult * math.log(args.n) / math.sqrt(args.n)
    return Example2Spec(
        setting=args.setting, n=args.n, p=args.p, s_n=args.s, sigma=sigma, a=a, r=args.r, seed=0
    )


def generate(spec, seed: int):
    spec = type(spec)(**{**spec.__dict__, "seed": seed})
    if isinstance(spec, Example1Spec):
        return gen_example1(spec)
    return gen_example2(spec)


def fixed_c_value(args, n: int, p: int) -> float:
    if args.c is not None:
        return args.c
    if args.c_preset is not None:
        return hyperc.preset_c(args.c_preset, n, p)
    raise ValidationError("fixed prior needs --c or --c-preset")


def prior_from_args(args, n: int, p: int) -> PriorConfig:
    if args.prior == "fixed":
        c_prior = FixedC(fixed_c_value(args, n, p))
    elif args.prior == "gzs":
        c_prior = GZS(a=args.gzs_a, b_n=args.d)
    else:
        c_prior = GHG(d=args.d, b=args.ghg_b)
    m_n = args.mn if args.mn is not None else PriorConfig.default_m_n(n)
    return PriorConfig(nu=args.nu, m_n=m_n, c_prior=c_prior)


def resolved_config(args) -> dict:
    return {k: v for k, v in vars(args).items() if k not in ("func", "config")}


# --- subcommands ----------------------------------------------------------------

def cmd_simulate(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    spec = generator_spec(args)
    dataset, truth = generate(spec, args.seed)
    io.write_dataset(outdir / "dataset.csv", dataset)
    io.write_ground_truth(outdir / "truth.csv", truth)
    io.write_meta(outdir / "meta.json", resolved_config(args), args.seed)
    print(f"seed={args.seed} spec={spec}")
    print(f"wrote {outdir / 'dataset.csv'} and {outdir / 'truth.csv'}")
    return EXIT_OK


def _run_chains(dataset, prior, args, replication: int = 0):
    tuning = hyperc.MhTuning(sigma_kappa=args.sigma_kappa)
    outputs = []
    for chain in range(args.chains):
        cfg = ChainConfig(
            n_iter=args.iters,
            n_burn=args.burn,
            thin=args.thin,
            seed=chain_seed(args.seed, replication, chain),
            record_beta=args.record_beta,
        )
        outputs.append(run_chain(dataset, prior, cfg, tuning))
    return outputs


def _chain_diagnostics(sigma_sq_chains, c_chains):
    """(quantity, rhat, ess_min) rows over per-chain sigma^2 and c draws."""
    rows = []
    for name, chains in (
        ("sigma_sq", sigma_sq_chains),
        ("log_c", [np.log(ch) for ch in c_chains]),
    ):
        length = min(len(ch) for ch in chains)
        stacked = np.array([ch[:length] for ch in chains])
        rhat = diagnostics.gelman_rubin(stacked) if len(chains) >= 2 else float("nan")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # constant chains (fixed c) are fine here
            ess_min = min(diagnostics.ess(ch) for ch in chains)
        rows.append((name, rhat, ess_min))
    return rows


def _write_diagnostics(path, rows) -> None:
    lines = ["quantity,rhat,ess_min"] + [f"{q},{io.format_float(r)},{io.format_float(e)}" for q, r, e in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_fit(args) -> int:
    draws = ChainConfig(n_iter=args.iters, n_burn=args.burn, thin=args.thin).n_draws
    if draws < diagnostics.MIN_ESS_LENGTH:
        raise ValidationError(
            f"each chain would keep {draws} draws, ceil((iters - burn) / thin); "
            f"diagnostics need at least {diagnostics.MIN_ESS_LENGTH}"
        )
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    dataset = io.read_dataset(args.data)
    prior = prior_from_args(args, dataset.n, dataset.p)
    outputs = _run_chains(dataset, prior, args)
    for i, out in enumerate(outputs):
        io.write_chain_output(outdir, out, thin=args.thin, label=f"chain{i}")
    merged = merge_chains(outputs)

    diag_rows = _chain_diagnostics([o.sigma_sq_draws for o in outputs], [o.c_draws for o in outputs])
    _write_diagnostics(outdir / "diagnostics.csv", diag_rows)
    io.write_meta(outdir / "meta.json", resolved_config(args), args.seed)

    map_gamma = merged.modal_model()
    print(f"MAP model: {{{map_gamma.label()}}} "
          f"(visit frequency {merged.visit_frequency(map_gamma):.4f})")
    top = sorted(merged.model_counts.items(), key=lambda kv: (-kv[1], kv[0].included))[:10]
    print("top models (gamma: frequency):")
    for gamma, cnt in top:
        print(f"  {gamma.label() or '(null)'}: {cnt / merged.n_kept:.4f}")
    if len(map_gamma) > 0:
        cis = credible_intervals(
            map_gamma,
            c=float(np.mean(merged.c_draws)),
            sigma_sq=float(np.mean(merged.sigma_sq_draws)),
            d=dataset,
            alpha=args.alpha,
        )
        print(f"{100 * (1 - args.alpha):.0f}% credible intervals at the MAP model:")
        for j, center, hw in cis.entries:
            print(f"  beta{j + 1}: {center:.4f} +/- {hw:.4f}")
    if merged.mh_accept_rate is not None:
        print(f"MH acceptance rate on log c: {merged.mh_accept_rate:.3f}")
    for q, rhat, ess_min in diag_rows:
        print(f"R-hat[{q}] = {rhat:.4f}  min ESS = {ess_min:.0f}")
    return EXIT_OK


def cmd_exact(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    dataset = io.read_dataset(args.data)
    c = fixed_c_value(args, dataset.n, dataset.p)
    m_n = args.mn if args.mn is not None else PriorConfig.default_m_n(dataset.n)
    prior = PriorConfig(nu=args.nu, m_n=m_n, c_prior=FixedC(c))
    try:
        post = enumerate_posterior(dataset, prior, c, args.tn)
    except ValidationError as exc:
        if "too large" in str(exc):
            raise ValidationError(str(exc) + " - use `fit` for stochastic search") from exc
        raise
    io.write_enumeration(outdir / "enumeration.csv", post.entries, post.log_scores)
    io.write_meta(outdir / "meta.json", resolved_config(args), args.seed)
    best = map_model(LogScore(value=v, gamma=g) for g, v in post.log_scores.items())
    print(f"enumerated {len(post.entries)} models; MAP = {{{best.label() or 'null'}}} "
          f"prob {post.prob(best):.4f}")
    return EXIT_OK


def _replicate_one(payload):
    """Worker: generate data, run chains, summarize. Top-level for pickling."""
    (rep, spec, args_dict) = payload
    args = argparse.Namespace(**args_dict)
    dataset, truth = generate(spec, chain_seed(args.seed, rep, 2**31))
    prior = prior_from_args(args, dataset.n, dataset.p)
    try:
        outputs = _run_chains(dataset, prior, args, replication=rep)
    except ChainAbort as exc:
        return rep, None, str(exc)
    merged = merge_chains(outputs)
    record = summarize_run(merged, truth, dataset, alpha=args.alpha)
    return rep, record, None


def cmd_replicate(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    spec = generator_spec(args)
    payloads = [(rep, spec, resolved_config(args)) for rep in range(args.reps)]
    if args.threads > 1:
        with ProcessPoolExecutor(max_workers=args.threads) as pool:
            results = list(pool.map(_replicate_one, payloads))
    else:
        results = [_replicate_one(pl) for pl in payloads]
    results.sort(key=lambda t: t[0])

    records, failures = [], []
    lines = ["rep,selected_gamma,freq_true,fcr,mean_ci_len,size,err"]
    for rep, record, error in results:
        if record is None:
            failures.append((rep, error))
            lines.append(f"{rep},FAILED,,,,,")
            continue
        records.append(record)
        mean_len = (
            float(np.mean(record.interval_lengths))
            if record.interval_lengths is not None and record.interval_lengths.size
            else None
        )
        lines.append(
            f"{rep},{record.selected.label()},{record.freq_true!r},"
            f"{io.format_float(record.fcr)},{io.format_float(mean_len)},"
            f"{record.size},{io.format_float(record.err)}"
        )
    (outdir / "summary.csv").write_text("\n".join(lines) + "\n")

    if records:
        summary = aggregate_records(records)
        agg_lines = [
            "metric,value",
            f"F(0.5),{summary.f_values[0.5]!r}",
            f"F(0.9),{summary.f_values[0.9]!r}",
            f"MSSM,{summary.mssm!r}",
            f"ME,{io.format_float(summary.me)}",
            f"err_sd,{io.format_float(summary.err_sd)}",
            f"FCR,{io.format_float(summary.mean_fcr)}",
            f"mean_ci_length,{io.format_float(summary.mean_ci_length)}",
        ]
        (outdir / "aggregate.csv").write_text("\n".join(agg_lines) + "\n")
        print(f"replications: {len(records)} ok, {len(failures)} failed")
        for line in agg_lines[1:]:
            print("  " + line.replace(",", " = "))
    io.write_meta(outdir / "meta.json", resolved_config(args), args.seed)

    for rep, error in failures:
        print(f"replication {rep} failed: {error}", file=sys.stderr)
    if failures and records:
        return EXIT_PARTIAL
    if failures:
        return EXIT_ABORT
    return EXIT_OK


def cmd_diagnose(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    scalars = [np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2) for path in args.scalars]
    rows = _chain_diagnostics([s[:, 1] for s in scalars], [s[:, 2] for s in scalars])
    _write_diagnostics(outdir / "diagnostics.csv", rows)
    for name, rhat, ess_min in rows:
        print(f"R-hat[{name}] = {rhat:.4f}  min ESS = {ess_min:.0f}")
    return EXIT_OK


def cmd_check_riesz(args) -> int:
    dataset = io.read_dataset(args.data)
    report = check_sparse_riesz(dataset.x, r=args.r, mode=args.mode, budget=args.budget, seed=args.seed)
    print(f"mode={report.mode} models_checked={report.n_models}")
    print(f"lambda_min={report.lambda_min!r}")
    print(f"lambda_max={report.lambda_max!r}")
    print(f"c0_estimate={report.c0_estimate!r}"
          + (" (lower bound only: sampled mode)" if report.lower_bound_only else ""))
    if report.condition_violated:
        print("condition violated (singular submatrix found)")
    return EXIT_OK


# --- parser ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bayes-screen", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="generate a dataset + ground-truth sidecar")
    add_generator_args(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("fit", help="run MCMC chains on a dataset")
    sp.add_argument("--data", required=True)
    add_prior_args(sp)
    add_chain_args(sp)
    sp.add_argument("--alpha", type=float, default=0.05)
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("exact", help="enumerate the posterior over small model spaces")
    sp.add_argument("--data", required=True)
    sp.add_argument("--tn", type=int, required=True)
    sp.add_argument("--c", type=float, default=None)
    sp.add_argument("--c-preset", choices=("bic", "ric", "benchmark"), default=None)
    sp.add_argument("--nu", type=float, default=6.0)
    sp.add_argument("--mn", type=int, default=None)
    sp.set_defaults(func=cmd_exact)

    sp = sub.add_parser("replicate", help="generator -> fit -> summarize loop")
    add_generator_args(sp)
    add_prior_args(sp)
    add_chain_args(sp)
    sp.add_argument("--reps", type=int, default=1)
    sp.add_argument("--alpha", type=float, default=0.05)
    sp.add_argument("--threads", type=int, default=1)
    sp.set_defaults(func=cmd_replicate)

    sp = sub.add_parser("diagnose", help="Gelman-Rubin / ESS over scalars.csv files")
    sp.add_argument("--scalars", nargs="+", required=True)
    sp.set_defaults(func=cmd_diagnose)

    sp = sub.add_parser("check-riesz", help="eigenvalue check over small submodels")
    sp.add_argument("--data", required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    sp.add_argument("--budget", type=int, default=10**5)
    sp.set_defaults(func=cmd_check_riesz)

    for name, action in sub.choices.items():
        action.add_argument("--seed", type=int, default=0)
        action.add_argument("--out", default=".")
        action.add_argument("--config", default=None)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        # peek at --config so file values become subparser defaults; a
        # trailing --config has no path, which argparse reports (exit 2)
        if "--config" in argv[:-1]:
            values = load_config_file(argv[argv.index("--config") + 1])
            if argv and argv[0] in parser._subparsers._group_actions[0].choices:
                subparser = parser._subparsers._group_actions[0].choices[argv[0]]
                apply_config_defaults(subparser, values)
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ChainAbort as exc:
        print(f"chain aborted: {exc}", file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
