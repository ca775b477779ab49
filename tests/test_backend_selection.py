"""The retired ``backend=`` generator-spec argument.

Spec strings and generator params once chose a graph storage backend
(``"pa:n=...,backend=array"``). Only ``Graph`` remains, but job records
and experiment specs on disk still carry the argument, so
``backend=object|array`` is a deprecated no-op: it warns and builds the
same graph as the unpinned spec. Any other value fails fast, and the
CLI's ``--backend`` flag is gone.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.graph.generators import GENERATORS
from repro.graph.graph import Graph
from repro.sim.experiment import ExperimentSpec

SPECS = ("pa:n=60,m=3", "erdos_renyi:n=50,p=0.1", "random_tree:n=50")


@pytest.mark.parametrize("backend", ["object", "array"])
@pytest.mark.parametrize("spec", SPECS)
def test_backend_pin_warns_and_builds_the_unpinned_graph(spec, backend):
    plain = GENERATORS.make(spec, seed=4)
    with pytest.warns(DeprecationWarning, match="backend="):
        pinned = GENERATORS.make(f"{spec},backend={backend}", seed=4)
    assert type(pinned) is Graph
    assert pinned == plain
    assert list(pinned.nodes()) == list(plain.nodes())
    assert list(pinned.edges()) == list(plain.edges())


@pytest.mark.parametrize("backend", ["object", "array"])
def test_backend_in_generator_params_is_a_no_op_too(backend):
    plain = GENERATORS.make("pa:n=60,m=3", seed=4)
    with pytest.warns(DeprecationWarning, match="backend="):
        pinned = GENERATORS.make(
            "pa:m=3", seed=4, overrides={"n": 60, "backend": backend}
        )
    assert pinned == plain
    assert list(pinned.edges()) == list(plain.edges())


@pytest.mark.parametrize("backend", ["object", "array"])
def test_backend_pin_passes_validation(backend):
    spec = f"pa:m=3,backend={backend}"
    with pytest.warns(DeprecationWarning):
        assert GENERATORS.validate_spec(spec) == "pa"
    with pytest.warns(DeprecationWarning):
        ExperimentSpec(
            name="retired-backend",
            generator=spec,
            sizes=(32,),
            healers=("dash",),
            repetitions=1,
        )


def test_unknown_backend_fails_fast():
    with pytest.raises(ConfigurationError) as exc:
        GENERATORS.make("pa:n=10,backend=columnar", seed=1)
    assert "columnar" in str(exc.value)
    with pytest.raises(ConfigurationError):
        GENERATORS.validate_spec("pa:backend=columnar")


def test_cli_backend_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--n", "20", "--backend", "array"])
    assert exc.value.code == 2
    assert "--backend" in capsys.readouterr().err
