"""Span tracing installed from outside the program.

``Tracer.install()`` replaces public functions on ``bayes_screen`` module
attributes (and the ``SamplerState.gamma`` property) with wrappers that
record a span per call: name, start, end and the id of the enclosing
span. Nothing inside the program is edited; ``uninstall()`` puts every
original back. Spans stay in memory and are written out once, at the end.

A span's name is ``<layer>.<what>``; a layer's self time is the summed
duration of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import bayes_screen.cli as cli
import bayes_screen.data as data
import bayes_screen.diagnostics as diagnostics
import bayes_screen.exact as exact
import bayes_screen.gibbs as gibbs
import bayes_screen.io as bio

# (module, attribute, span name)
WRAPPED = [
    (cli, "merge_chains", "gibbs.merge"),
    (gibbs, "update_sigma_sq", "gibbs.sigma"),
    (gibbs, "update_t_n", "gibbs.tn"),
    (cli, "log_unnorm_posterior", "exact.rescore"),
    (bio, "read_dataset", "io.read"),
    (bio, "write_chain_output", "io.write"),
    (bio, "write_enumeration", "io.write"),
    (bio, "write_meta", "io.write"),
    (cli, "gen_example1", "simgen.generate"),
    (cli, "gen_example2", "simgen.generate"),
    (cli, "summarize_run", "inference.summarize"),
    (cli, "aggregate_records", "inference.aggregate"),
    (cli, "credible_intervals", "inference.intervals"),
    (diagnostics, "gelman_rubin", "diagnostics.rhat"),
    (diagnostics, "ess", "diagnostics.ess"),
    (cli, "_replicate_one", "cli.replication"),
]


class Tracer:
    def __init__(self):
        # (id, name, start, end, parent id or -1), appended as spans end; flat
        # tuples of scalars, which the garbage collector stops tracking
        self.spans = []
        self.stack = [-1]
        self.next_id = 0
        self.counts = defaultdict(float)
        self._saved = []

    def span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((sid, name, start, clock(), parent))
                stack.pop()

        return traced

    # --- wrappers that also count ------------------------------------------------

    def _kernel(self, kern):
        """The sweep kernel, with flips, changed coefficients and model size
        counted around it in a ``trace.`` span so that the counting is
        charged to the tracer, not to the driver."""
        counts, timed = self.counts, self.span("kernel.sweep", kern)

        def count_sweep(x, col_sq, beta, gamma_mask, *rest):
            mask0, beta0 = gamma_mask.copy(), beta.copy()
            k = timed(x, col_sq, beta, gamma_mask, *rest)
            n, p = x.shape
            changed = int((beta != beta0).sum())
            counts["kernel.sweeps"] += 1
            counts["kernel.coords"] += p
            counts["kernel.flips"] += int((gamma_mask != mask0).sum())
            counts["kernel.active"] += k
            # each coordinate reads its column and the residual (2 * 8n bytes);
            # a changed coefficient also reads the column and rewrites the residual
            counts["kernel.bytes"] += 8 * n * (2 * p + 3 * changed)
            return k

        return self.span("trace.kernel", count_sweep)

    def _get_sweep_kernel(self, orig):
        def get(impl=None):
            return self._kernel(orig(impl))

        return get

    def _update_c(self, orig):
        counts = self.counts

        def update(*args):
            accepted, skipped = orig(*args)
            if accepted is not None:
                counts["hyperc.proposals"] += 1
                counts["hyperc.accepts"] += bool(accepted)
            counts["hyperc.skips"] += bool(skipped)
            return accepted, skipped

        return self.span("hyperc.c_update", update)

    def _score(self, orig):
        counts = self.counts

        def score(*args):
            counts["exact.score_calls"] += 1
            return orig(*args)

        return score

    def _counted(self, name, orig, key, size):
        """A span that also adds ``size(result)`` to ``counts[key]``."""
        counts, timed = self.counts, self.span(name, orig)

        def call(*args, **kwargs):
            out = timed(*args, **kwargs)
            counts[key] += size(out)
            return out

        return call

    def install(self) -> None:
        patches = [(mod, attr, self.span(name, getattr(mod, attr))) for mod, attr, name in WRAPPED]
        patches += [
            (cli, "run_chain",
             self._counted("gibbs.run_chain", cli.run_chain, "gibbs.distinct_models", lambda o: len(o.model_counts))),
            (cli, "enumerate_posterior",
             self._counted("exact.enumerate", cli.enumerate_posterior, "exact.models", lambda o: len(o.entries))),
            (gibbs, "get_sweep_kernel", self._get_sweep_kernel(gibbs.get_sweep_kernel)),
            (gibbs, "_update_c", self._update_c(gibbs._update_c)),
            (exact, "_score_given_c", self._score(exact._score_given_c)),
            (data.SamplerState, "gamma", property(self.span("gibbs.visit", data.SamplerState.gamma.fget))),
        ]
        for mod, attr, fn in patches:
            self._saved.append((mod, attr, mod.__dict__[attr]))
            setattr(mod, attr, fn)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    # --- summaries -------------------------------------------------------------

    def self_times(self) -> dict:
        """Self seconds per span name."""
        names = {sid: name for sid, name, *_ in self.spans}
        own = defaultdict(float)
        for _, name, start, end, parent in self.spans:
            own[name] += end - start
            if parent >= 0:
                own[names[parent]] -= end - start
        return own

    def total(self, name) -> float:
        return sum(end - start for _, n, start, end, _ in self.spans if n == name)

    def write(self, path, extra: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**extra, "counts": dict(self.counts), "spans": self.spans}, fh)


def layer_metrics(tr: Tracer, untraced_s: float, fanout_base_s: float, bytes_written: int) -> dict:
    """Per-layer metrics of the traced rounds. ``untraced_s`` is the time of
    the same rounds without tracing (the base of the overhead);
    ``fanout_base_s`` is THREADS x the untraced --threads 2 time of as many
    replicate calls as were traced."""
    own = tr.self_times()

    def layer(prefix):
        return sum(v for k, v in own.items() if k.startswith(prefix))

    c = tr.counts
    sweeps = max(c["kernel.sweeps"], 1)
    wall = tr.total("cli.main")
    kernel_s = layer("kernel.")
    metrics = {
        "kernel.self_s": (kernel_s, "s"),
        "kernel.sweeps": (c["kernel.sweeps"], "count"),
        "kernel.coord_updates_per_s": (c["kernel.coords"] / kernel_s, "1/s"),
        "kernel.share": (kernel_s / tr.total("gibbs.run_chain"), "ratio"),
        "kernel.flips_per_sweep": (c["kernel.flips"] / sweeps, "count"),
        "kernel.active_mean": (c["kernel.active"] / sweeps, "count"),
        "kernel.bytes_per_sweep": (c["kernel.bytes"] / sweeps, "bytes"),
        "gibbs.self_s": (layer("gibbs."), "s"),
        "gibbs.sigma_s": (own["gibbs.sigma"], "s"),
        "gibbs.tn_s": (own["gibbs.tn"], "s"),
        "gibbs.visit_s": (own["gibbs.visit"], "s"),
        "gibbs.distinct_models": (c["gibbs.distinct_models"], "count"),
        "hyperc.c_update_s": (layer("hyperc."), "s"),
        "hyperc.mh_proposals": (c["hyperc.proposals"], "count"),
        "hyperc.mh_accept_ratio": (c["hyperc.accepts"] / max(c["hyperc.proposals"], 1), "ratio"),
        "hyperc.c_skips": (c["hyperc.skips"], "count"),
        "exact.enumerate_s": (own["exact.enumerate"], "s"),
        "exact.rescore_s": (own["exact.rescore"], "s"),
        "exact.models": (c["exact.models"], "count"),
        "exact.score_calls_per_model": (c["exact.score_calls"] / max(c["exact.models"], 1), "count"),
        "io.read_s": (own["io.read"], "s"),
        "io.write_s": (own["io.write"], "s"),
        "io.bytes_written": (bytes_written, "bytes"),
        "simgen.generate_s": (layer("simgen."), "s"),
        "inference.summarize_s": (layer("inference."), "s"),
        "diagnostics.s": (layer("diagnostics."), "s"),
        "cli.self_s": (layer("cli."), "s"),
        "cli.fanout_efficiency": (tr.total("cli.replication") / fanout_base_s, "ratio"),
        "trace.self_s": (layer("trace."), "s"),
        "trace.overhead_pct": (100.0 * (wall / untraced_s - 1.0), "%"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}
