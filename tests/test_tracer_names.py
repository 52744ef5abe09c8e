"""The names the benchmark's tracer wraps still exist in `gridbase`.

`perfbench/tracer.py` wraps functions by module attribute, so a renamed
or deleted function would surface only when the benchmark runs. These
tests import the tracer as it is and check every name it reads.
"""

import dataclasses
import importlib.util
import inspect
from pathlib import Path

import pytest

from gridbase import baseline_opt
from gridbase import hvac_model as hm
from gridbase import kernels
from gridbase import scenario as sc
from gridbase import sensitivity as sn

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_resolves_to_a_callable(tracer):
    assert tracer.BOUNDARIES
    for module, attr, name, layer, _hook in tracer.BOUNDARIES:
        assert callable(getattr(module, attr, None)), name
        assert layer in tracer.LAYERS, name


def test_kernels_names_the_benchmark_reads():
    assert isinstance(kernels.BACKEND, str)
    assert callable(kernels.objective_batch)


def test_sample_bound_takes_n_samples_fourth():
    """The tracer's sample_bound hook reads a positional n_samples as
    args[3]."""
    params = list(inspect.signature(sn.sample_bound).parameters)
    assert params[3] == "n_samples"


def test_objective_batch_takes_the_rows_of_x_and_w_first():
    """The tracer's objective_batch hook reads the rows of x and w as
    args[0] and args[1]."""
    params = list(inspect.signature(kernels.objective_batch).parameters)
    assert params[:2] == ["xv", "wv"]


@pytest.mark.parametrize("fn, first, cls, attr", [
    (sc.run_day, "profile", sc.DayProfile, "hours"),
    (baseline_opt.solve_baseline, "w", hm.ExogenousVector, "zones")],
    ids=["run_day", "solve_baseline"])
def test_hour_keys_are_read_from_the_first_argument(fn, first, cls, attr):
    """The tracer keys spans by hour: it reads `args[0].hours` of each
    `run_day` call and `args[0].zones` of each `solve_baseline` call, so
    both first parameters stay first and positional, and their types keep
    the field it reads."""
    param = next(iter(inspect.signature(fn).parameters.values()))
    assert param.name == first
    assert param.kind in (param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD)
    assert attr in {f.name for f in dataclasses.fields(cls)}
