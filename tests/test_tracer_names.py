"""The names the benchmark's tracer wraps still exist in `gridbase`.

`perfbench/tracer.py` wraps functions by module attribute, so a renamed
or deleted function would surface only when the benchmark runs. These
tests import the tracer as it is and check every name it reads.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from gridbase import kernels
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
