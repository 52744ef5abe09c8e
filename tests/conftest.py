"""Shared fixtures: nominal parameters, representative hours, and
session-cached baseline solves (each hour is solved once per session),
and the environment for child interpreters."""

import dataclasses
import os
from pathlib import Path

import numpy as np
import pytest

import gridbase
from gridbase import hvac_model as hm
from gridbase import scenario as sc
from gridbase.baseline_opt import SolverConfig, solve_baseline

FIXTURE_SEED = 42


def scaled_params(n, plant=False):
    """Nominal parameters for n zones, with the design flow scaled by n/5;
    with `plant`, both plant ratings (`Q_b_rated`, `Q_e_rated`) too, so
    the plant grows with the zones it serves."""
    base = hm.HvacParameters()
    ratings = dict(Q_b_rated=base.Q_b_rated * n / 5,
                   Q_e_rated=base.Q_e_rated * n / 5) if plant else {}
    return dataclasses.replace(base, zone_count=n,
                               m_design=base.m_design * n / 5, **ratings)


@pytest.fixture(scope="session")
def params():
    return hm.HvacParameters()


@pytest.fixture(scope="session")
def hot_hour(params):
    """A fully pinned cooling hour (chiller on, boiler off)."""
    return hm.make_exogenous(
        34.0,
        np.array([-5200.0, -4100.0, -6300.0, -3800.0, -4700.0]),
        np.array([23.0, 23.5, 22.5, 24.0, 23.0]),
        np.array([0.10, 0.08, 0.12, 0.07, 0.09]),
        params,
    )


@pytest.fixture(scope="session")
def moderate_hour(params):
    """An economizer-interior hour (free cooling, both coils off)."""
    return hm.make_exogenous(
        18.0,
        np.array([-2500.0, -1800.0, -3100.0, -1500.0, -2200.0]),
        np.array([23.0, 23.5, 22.5, 24.0, 23.0]),
        np.array([0.10, 0.08, 0.12, 0.07, 0.09]),
        params,
    )


@pytest.fixture(scope="session")
def cold_hour(params):
    """A heating hour (boiler on, ventilation-pinned flows)."""
    return hm.make_exogenous(
        -2.0,
        np.array([3000.0, 2400.0, 2800.0, 2600.0, 2500.0]),
        np.full(5, 22.0),
        np.full(5, 0.05),
        params,
    )


@pytest.fixture(scope="session")
def zero_load_hour(params):
    return hm.make_exogenous(
        22.0, np.zeros(5), np.full(5, 22.0), np.full(5, 0.12), params)


@pytest.fixture(scope="session")
def solver_config():
    return SolverConfig()


@pytest.fixture(scope="session")
def solve_cached(solver_config):
    """Memoized solve keyed by the exact exogenous vector."""
    cache = {}

    def solve(w):
        key = w.to_vector().tobytes()
        if key not in cache:
            cache[key] = solve_baseline(w, solver_config)
        return cache[key]

    return solve


@pytest.fixture(scope="session")
def day_profiles():
    return {day: sc.synth_profile(day, seed=FIXTURE_SEED)
            for day in sc.DAY_TYPES}


@pytest.fixture
def child_env():
    """Environment for a fresh interpreter that must import the same
    `gridbase` as this process: the current environment with the source
    root of the imported package first on PYTHONPATH, so a checkout run
    with ``PYTHONPATH=src`` needs no install."""
    env = dict(os.environ)
    src_root = str(Path(gridbase.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src_root, env.get("PYTHONPATH"))))
    return env
