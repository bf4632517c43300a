"""perfbench's tracer wraps program functions by name from outside the
package. Installing it here makes a deleted or renamed hook fail Tier-1,
not a later ``perfbench/run.py --trace 1`` run."""

from pathlib import Path

from bayes_screen import cli, data
from bayes_screen.gibbs import ChainConfig

from conftest import fixed_prior, make_dataset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    from bayes_screen.kernel import active_kernel_name

    assert active_kernel_name() == "python"
    gamma = data.SamplerState.__dict__["gamma"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        d, _ = make_dataset(n=20, p=4, s=1)
        cli.run_chain(d, fixed_prior(10.0, m_n=4), ChainConfig(n_iter=20, n_burn=5))
    finally:
        tracer.uninstall()
    assert data.SamplerState.__dict__["gamma"] is gamma
    assert tracer.counts["kernel.sweeps"] == 20
    assert sum(name == "gibbs.visit" for _, name, *_ in tracer.spans) == 15
