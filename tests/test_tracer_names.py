"""The benchmark tracer (perfbench/tracing.py) wraps homcoh functions by name.

A renamed or removed function makes `Tracer.install` fail, and so makes
`perfbench/run.py --trace 1` fail; these tests show it in the unit suite,
together with the S-pair counts the tracer takes from Buchberger's calls.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from homcoh import catalog, cdga, cli, groebner, linalg, obstruct, poly
from homcoh.poly import weyl_invariant_generators

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = (linalg, cdga, groebner, poly, catalog, obstruct, cli)
OWNERS = (*MODULES, cdga.FreeCDGA, catalog.Catalog, poly.Polynomial)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def homcoh_namespace():
    return SimpleNamespace(**{m.__name__.rpartition(".")[2]: m for m in MODULES})


def test_tracer_installs_on_homcoh_and_restores_every_original():
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = load_tracer()
    try:
        tracer.install(homcoh_namespace())
        wrapped = [name for owner, attrs in zip(OWNERS, before)
                   for name, value in attrs.items() if vars(owner)[name] is not value]
        assert "substitute_linear" in wrapped and "literal_quotient_dims" in wrapped
    finally:
        tracer.uninstall()
    for owner, attrs in zip(OWNERS, before):
        assert vars(owner).keys() == attrs.keys()
        assert all(vars(owner)[name] is value for name, value in attrs.items())


def test_tracer_counts_the_s_pairs_of_buchberger():
    """buchberger passes each s_polynomial result straight to normal_form."""
    gens = [f for f, _ in weyl_invariant_generators("A", 3)]
    tracer = load_tracer()
    try:
        tracer.install(homcoh_namespace())
        groebner.buchberger(gens)
    finally:
        tracer.uninstall()
    values = tracer.metrics(1, 0.0)
    assert values["groebner.buchberger.calls"] == 1
    assert 0 < values["groebner.spairs_nonzero"] <= values["groebner.spairs"]
    assert values["groebner.normal_form.calls"] > values["groebner.spairs"]
