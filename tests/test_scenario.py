import csv
import dataclasses
import json
import math
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gridbase import baseline_opt
from gridbase import hvac_model as hm
from gridbase import scenario as sc
from gridbase.errors import GridbaseError, ProfileParseError

FIXTURE_SEED = 42


# ---------------------------------------------------------------------------
# profile file format
# ---------------------------------------------------------------------------

def test_profile_round_trip_bit_exact(tmp_path, day_profiles):
    for day, prof in day_profiles.items():
        path = tmp_path / f"{day}.csv"
        sc.write_profile(prof, path)
        back = sc.load_profile(path)
        assert back.label == prof.label
        for a, b in zip(back.hours, prof.hours):
            assert a.hour_index == b.hour_index
            assert a.t_oa == b.t_oa
            assert np.array_equal(a.zones.q_zone, b.zones.q_zone)
            assert np.array_equal(a.zones.t_sp, b.zones.t_sp)
            assert np.array_equal(a.zones.m_oa_min, b.zones.m_oa_min)


def test_profile_units_j_per_hr(tmp_path):
    """A file in joules per hour loads as watts."""
    path = tmp_path / "j.csv"
    _write_lines(path, ["#label=demo,units=J_per_hr",
                        ",".join(sc._header_fields(2)),
                        "9,20,22,-7200000,0.05,22,3600000,0.05",
                        "10,21,22,9000000,0.05,22,-1800000,0.05"])
    prof = sc.load_profile(path)
    assert [list(h.zones.q_zone) for h in prof.hours] == [
        [-2000.0, 1000.0], [2500.0, -500.0]]


@pytest.mark.parametrize("label", ["a,b", "x\ny", " pad "],
                         ids=["comma", "line-break", "whitespace"])
def test_write_profile_refuses_a_label_that_does_not_read_back(
        tmp_path, day_profiles, label):
    path = tmp_path / "x.csv"
    prof = dataclasses.replace(day_profiles["hot"], label=label)
    with pytest.raises(ValueError, match="label"):
        sc.write_profile(prof, path)
    assert not path.exists()


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _valid_lines(n_rows=2):
    header = ",".join(sc._header_fields(2))
    rows = [f"{9 + k},20.0" + ",22.0,-1000.0,0.05" * 2
            for k in range(n_rows)]
    return ["#label=demo,units=W", header] + rows


def test_load_profile_parses_minimal_file(tmp_path):
    path = tmp_path / "p.csv"
    _write_lines(path, _valid_lines())
    prof = sc.load_profile(path)
    assert prof.label == "demo"
    assert [h.hour_index for h in prof.hours] == [9, 10]
    assert prof.hours[0].zones.count == 2


# Each case names its id, so adding a case renames no other. The ids are
# the ones pytest numbered these cases with before, kept so that each
# case's history stays under one name; the comments say what each tests.
@pytest.mark.parametrize("mutate,expect_line", [
    pytest.param(lambda ls: [""], 1, id="blank-header"),  # line 1 is blank
    pytest.param(lambda ls: ["#label=demo,units=furlongs"] + ls[1:], 1,
                 id="<lambda>-1_1"),                             # bad units
    pytest.param(lambda ls: ["#labeldemo"] + ls[1:], 1,
                 id="<lambda>-1_2"),                          # bad metadata
    pytest.param(lambda ls: ["#label=demo,colour=red"] + ls[1:], 1,
                 id="unknown-metadata-key"),
    pytest.param(lambda ls: [ls[0], "a,b,c"] + ls[2:], 2,
                 id="<lambda>-2"),                              # bad header
    pytest.param(lambda ls: ls[:2] + ["9,20.0,22.0"], 3,
                 id="<lambda>-3_0"),                             # short row
    pytest.param(lambda ls: ls[:2] + [ls[2].replace("20.0", "warm", 1)], 3,
                 id="<lambda>-3_1"),                       # non-numeric cell
    pytest.param(lambda ls: ls[:2] + [ls[2].replace("9,", "9.5,", 1)], 3,
                 id="<lambda>-3_2"),                       # fractional hour
    pytest.param(lambda ls: ls[:2] + [ls[2] + ",0.0"], 3,
                 id="<lambda>-3_3"),                              # long row
    pytest.param(lambda ls: ls[:2] + [ls[2], ls[2]], 4,
                 id="<lambda>-4"),                           # repeated hour
    # hours 9, 11, 10: the row that breaks the order is reported
    pytest.param(
        lambda ls: ls[:3] + [ls[3].replace("10,", "11,", 1), ls[3]], 5,
        id="<lambda>-5"),
    pytest.param(lambda ls: ls[:2], 3, id="<lambda>-3_4"),   # no data rows
    pytest.param(lambda ls: ls[:2] + [ls[2].replace("9,", "-1,", 1)] + ls[3:],
                 3, id="negative-hour"),
    pytest.param(lambda ls: [ls[0], ls[1].replace("Q_zone", "Q_room")]
                 + ls[2:], 2, id="header-names"),
    pytest.param(lambda ls: ls[:3] + [ls[3].replace(",0.05", ",-0.05", 1)], 4,
                 id="negative-ventilation"),
])
def test_load_profile_errors_carry_line_numbers(tmp_path, mutate,
                                                expect_line):
    path = tmp_path / "bad.csv"
    _write_lines(path, mutate(_valid_lines()))
    with pytest.raises(ProfileParseError) as err:
        sc.load_profile(path)
    assert err.value.line == expect_line


def test_load_profile_rejects_excess_ventilation(tmp_path):
    lines = _valid_lines()
    lines[3] = lines[3].replace("0.05", "2.0")  # 4.0 kg/s total > design
    path = tmp_path / "vent.csv"
    _write_lines(path, lines)
    with pytest.raises(ProfileParseError) as err:
        sc.load_profile(path)
    assert err.value.line == 4
    assert "ventilation" in str(err.value)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["hour", "T_oa_C", "T_sp_C_2", "Q_zone_1",
                                    "m_oa_min_kg_s_2"])
def test_load_profile_rejects_non_finite_cells(tmp_path, column, value):
    lines = _valid_lines()
    cells = lines[3].split(",")
    cells[sc._header_fields(2).index(column)] = value
    lines[3] = ",".join(cells)
    path = tmp_path / "nonfinite.csv"
    _write_lines(path, lines)
    with pytest.raises(ProfileParseError) as err:
        sc.load_profile(path)
    assert err.value.line == 4
    assert column in str(err.value)


def test_load_profile_refuses_an_empty_file(tmp_path):
    # the table's "empty file" case writes one line break, not 0 bytes
    path = tmp_path / "empty.csv"
    path.write_bytes(b"")
    with pytest.raises(ProfileParseError, match="empty profile file") as err:
        sc.load_profile(path)
    assert err.value.line == 1


def test_load_profile_skips_a_blank_line(tmp_path):
    lines = _valid_lines()
    path = tmp_path / "blank.csv"
    _write_lines(path, lines[:3] + ["  "] + lines[3:])
    assert [h.hour_index for h in sc.load_profile(path).hours] == [9, 10]


def test_day_profile_requires_increasing_hours(params):
    z = hm.ZoneInputs(np.zeros(5), np.full(5, 22.0), np.full(5, 0.05))
    h = sc.ProfileHour(9, 20.0, z)
    with pytest.raises(ValueError):
        sc.DayProfile(label="x", hours=(h, h))
    with pytest.raises(ValueError):
        sc.DayProfile(label="x", hours=())


def test_day_profile_refuses_negative_hour():
    """run_day seeds an hour's sampling with seed ^ hour_index, which numpy
    refuses below 0; the profile refuses such an hour before any solve."""
    z = hm.ZoneInputs(np.zeros(5), np.full(5, 22.0), np.full(5, 0.05))
    with pytest.raises(ValueError, match="hour_index must be >= 0"):
        sc.DayProfile(label="x", hours=(sc.ProfileHour(-1, 20.0, z),
                                        sc.ProfileHour(9, 20.0, z)))


def test_day_profile_refuses_mixed_zone_counts():
    """write_profile writes every hour with the first hour's columns, so a
    day whose hours differ in zone count would lose zones on the way."""
    def hour(k, n):
        return sc.ProfileHour(k, 20.0, hm.ZoneInputs(
            np.zeros(n), np.full(n, 22.0), np.full(n, 0.05)))

    with pytest.raises(ValueError, match=r"zone count: \[3, 5\]"):
        sc.DayProfile(label="x", hours=(hour(9, 3), hour(10, 5)))


# ---------------------------------------------------------------------------
# synthetic days
# ---------------------------------------------------------------------------

def test_synth_profile_deterministic():
    a = sc.synth_profile("hot", seed=7)
    b = sc.synth_profile("hot", seed=7)
    for ha, hb in zip(a.hours, b.hours):
        assert ha.t_oa == hb.t_oa
        assert np.array_equal(ha.zones.q_zone, hb.zones.q_zone)
    c = sc.synth_profile("hot", seed=8)
    assert any(x.t_oa != y.t_oa for x, y in zip(a.hours, c.hours))


def test_synth_profile_day_character(day_profiles):
    hot = day_profiles["hot"]
    cold = day_profiles["cold"]
    assert all(h.t_oa > 30.0 for h in hot.hours)
    assert all(np.all(h.zones.q_zone < 0) for h in hot.hours)
    assert all(h.t_oa < 8.0 for h in cold.hours)
    assert all(np.all(h.zones.q_zone > 0) for h in cold.hours)


def test_synth_profile_rejects_unknown_day():
    with pytest.raises(ValueError):
        sc.synth_profile("monsoon", seed=0)


# ---------------------------------------------------------------------------
# day runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def moderate_results(day_profiles):
    return sc.run_day(day_profiles["moderate"], ("T_oa",), 0.01,
                      n_samples=256, seed=FIXTURE_SEED)


def test_run_day_covers_all_hours(day_profiles, moderate_results):
    hours = [h.hour_index for h in day_profiles["moderate"].hours]
    assert [r.hour_index for r in moderate_results] == hours
    for r in moderate_results:
        assert math.isfinite(r.j0) and r.j0 > 0
        assert r.beta_sample <= r.beta_holder * (1 + 1e-9)
        assert abs(r.k_plus) <= r.beta_sample * (1 + 1e-9)
        assert abs(r.k_minus) <= r.beta_sample * (1 + 1e-9)


def test_run_day_thread_count_invariant(day_profiles, moderate_results):
    with ThreadPoolExecutor(7) as pool:
        wide = sc.run_day(day_profiles["moderate"], ("T_oa",), 0.01,
                          n_samples=256, seed=FIXTURE_SEED, mapper=pool.map)
    for a, b in zip(wide, moderate_results):
        assert a.j0 == b.j0
        assert a.beta_sample == b.beta_sample
        assert a.k_plus == b.k_plus


def test_run_day_is_serial_by_default(day_profiles, moderate_results,
                                      monkeypatch):
    threads = []
    real = sc.solve_baseline

    def spy(w, cfg=None, x_init=None):
        threads.append(threading.get_ident())
        return real(w, cfg, x_init)

    monkeypatch.setattr(sc, "solve_baseline", spy)
    serial = sc.run_day(day_profiles["moderate"], ("T_oa",), 0.01,
                        n_samples=256, seed=FIXTURE_SEED)
    assert threads == [threading.get_ident()] * len(serial)
    assert [r.j0 for r in serial] == [r.j0 for r in moderate_results]


def test_first_solve_imports_scipy_under_threads(child_env, tmp_path):
    """In a fresh interpreter the first solve, reached from two worker
    threads at once, imports scipy.optimize and gives a serial run's
    bytes."""
    threaded, serial = tmp_path / "threaded.csv", tmp_path / "serial.csv"
    code = f"""
import sys
from concurrent.futures import ThreadPoolExecutor
import gridbase.scenario as sc

prof = sc.synth_profile("hot", 42, n_hours=2)
assert "scipy.optimize" not in sys.modules
with ThreadPoolExecutor(5) as pool:
    results = sc.run_day(prof, ["T_oa"], 0.05, mapper=pool.map)
assert "scipy.optimize" in sys.modules
sc.export_results(results, {str(threaded)!r}, "csv")
sc.export_results(sc.run_day(prof, ["T_oa"], 0.05), {str(serial)!r}, "csv")
"""
    out = subprocess.run([sys.executable, "-c", code], env=child_env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert threaded.read_bytes() == serial.read_bytes()


def test_run_day_on_a_process_pool(child_env, tmp_path):
    """Hours mapped over a spawned 2-process pool export a serial run's
    CSV and JSON bytes."""
    code = f"""
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
import gridbase.scenario as sc

if __name__ == "__main__":
    prof = sc.synth_profile("moderate", 42)
    with ProcessPoolExecutor(2, mp_context=get_context("spawn")) as pool:
        pooled = sc.run_day(prof, ["T_oa"], 0.05, n_samples=256, seed=42,
                            mapper=pool.map)
    serial = sc.run_day(prof, ["T_oa"], 0.05, n_samples=256, seed=42)
    for name, results in (("pooled", pooled), ("serial", serial)):
        for fmt in ("csv", "json"):
            sc.export_results(results, f"{{name}}.{{fmt}}", fmt)
"""
    out = subprocess.run([sys.executable, "-c", code], env=child_env,
                         cwd=tmp_path, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    for fmt in ("csv", "json"):
        assert ((tmp_path / f"pooled.{fmt}").read_bytes()
                == (tmp_path / f"serial.{fmt}").read_bytes())


def test_run_day_reads_a_one_shot_mask_once():
    """A generator mask serves every hour, not only the first."""
    prof = sc.synth_profile("moderate", FIXTURE_SEED, n_hours=3)
    listed = sc.run_day(prof, ["T_oa"], 0.05, n_samples=64)
    once = sc.run_day(prof, (lab for lab in ["T_oa"]), 0.05, n_samples=64)
    for a, b in zip(once, listed, strict=True):
        assert (a.k_plus, a.beta_holder, a.beta_sample) == (
            b.k_plus, b.beta_holder, b.beta_sample)
    assert all(r.beta_sample > 0 for r in listed)


def test_run_day_refuses_zero_samples(day_profiles):
    with pytest.raises(ValueError, match="n_samples"):
        sc.run_day(day_profiles["hot"], ("T_oa",), 0.05, n_samples=0)


def test_run_day_seeds_solver_starts(day_profiles, monkeypatch):
    # run_day's seed also seeds the solver's random starts, as --seed does
    seed = 7
    seen = []
    real = sc.solve_baseline

    def spy(w, cfg=None, x_init=None):
        seen.append(cfg)
        return real(w, cfg, x_init)

    monkeypatch.setattr(sc, "solve_baseline", spy)
    prof = sc.DayProfile(label="one",
                         hours=day_profiles["moderate"].hours[:2])
    sc.run_day(prof, ("T_oa",), 0.01, n_samples=16, seed=seed)
    assert len(seen) == 2 and all(c.rng_seed == seed for c in seen)


def test_run_day_builds_one_scaling_per_hour(day_profiles, monkeypatch):
    """Each solved hour builds its `Scaling` once, in the solve; the
    certificate carries it to the operator and the K stages."""
    built = []
    of = baseline_opt.Scaling.of
    monkeypatch.setattr(baseline_opt.Scaling, "of",
                        staticmethod(lambda w: built.append(w) or of(w)))
    for day in sc.DAY_TYPES:
        sc.run_day(day_profiles[day], ("T_oa",), 0.05, n_samples=16)
    assert len(built) == sum(len(p.hours) for p in day_profiles.values())
    assert len(built) == 21


def test_run_day_hot_day_has_no_heating(day_profiles):
    results = sc.run_day(day_profiles["hot"], ("T_oa",), 0.01,
                         n_samples=64, seed=0)
    for r in results:
        assert r.x0.q_h == 0.0
        assert r.x0.q_c > 0.0


def test_run_day_bad_hour_recorded_not_fatal(day_profiles, params):
    z = hm.ZoneInputs(np.array([9e7, 0, 0, 0, 0.0]), np.full(5, 22.0),
                      np.full(5, 0.05))
    hours = day_profiles["moderate"].hours[:2] + (sc.ProfileHour(20, 20.0, z),)
    prof = sc.DayProfile(label="mixed", hours=hours)
    results = sc.run_day(prof, ("T_oa",), 0.01, n_samples=64, seed=0)
    assert math.isfinite(results[0].j0)
    assert math.isnan(results[2].j0)
    assert results[2].warnings  # the failure reason is preserved


def test_run_day_all_failed_raises(params):
    z = hm.ZoneInputs(np.array([9e7, 0, 0, 0, 0.0]), np.full(5, 22.0),
                      np.full(5, 0.05))
    prof = sc.DayProfile(label="doomed",
                         hours=(sc.ProfileHour(9, 20.0, z),))
    with pytest.raises(GridbaseError):
        sc.run_day(prof, ("T_oa",), 0.01, n_samples=16, seed=0)


def test_run_day_empty_mask(day_profiles):
    prof = sc.DayProfile(label="one",
                         hours=day_profiles["moderate"].hours[:1])
    (r,) = sc.run_day(prof, (), 0.0, n_samples=4, seed=0)
    assert r.k_plus == 0.0 and r.k_minus == 0.0
    assert r.beta_holder == 0.0 and r.beta_sample == 0.0


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_export_csv_reparses_exactly(tmp_path, moderate_results):
    path = tmp_path / "out.csv"
    sc.export_results(moderate_results, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(moderate_results)
    for row, r in zip(rows, moderate_results):
        assert int(row["hour"]) == r.hour_index
        assert float(row["J0_W"]) == r.j0
        assert float(row["K_plus_W"]) == r.k_plus
        assert float(row["beta_holder_W"]) == r.beta_holder
        assert float(row["beta_sample_W"]) == r.beta_sample


def test_export_json_schema(tmp_path, moderate_results):
    path = tmp_path / "out.json"
    sc.export_results(moderate_results, path, format="json")
    rows = json.loads(path.read_text())
    assert len(rows) == len(moderate_results)
    expected = {"hour_index", "j0", "x0", "lambda_max",
                "active_set_labels", "k_plus", "k_minus", "relative_plus",
                "relative_minus", "beta_holder", "beta_sample", "warnings"}
    for row, r in zip(rows, moderate_results):
        assert set(row) == expected
        assert row["j0"] == r.j0
        assert row["x0"]["m_sa"] == list(r.x0.m_sa)


def test_export_json_is_strict_with_a_failed_hour(tmp_path, day_profiles):
    """A failed hour's NaN figures are written as null, so a parser that
    refuses NaN and Infinity reads the file; CSV keeps writing nan."""
    z = hm.ZoneInputs(np.array([9e7, 0, 0, 0, 0.0]), np.full(5, 22.0),
                      np.full(5, 0.05))
    hours = day_profiles["moderate"].hours[:1] + (sc.ProfileHour(20, 20.0, z),)
    results = sc.run_day(sc.DayProfile(label="mixed", hours=hours),
                         ("T_oa",), 0.01, n_samples=64, seed=0)
    path = tmp_path / "out.json"
    sc.export_results(results, path, format="json")

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    ok, failed = json.loads(path.read_text(), parse_constant=refuse)
    assert ok["j0"] == results[0].j0
    assert failed["x0"] is None and failed["warnings"]
    for key in ("j0", "lambda_max", "k_plus", "k_minus", "relative_plus",
                "relative_minus", "beta_holder", "beta_sample"):
        assert failed[key] is None
    sc.export_results(results, tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_text().splitlines()[2].startswith(
        "20,nan,nan")


def test_export_rejects_empty_and_unknown_format(tmp_path,
                                                 moderate_results):
    with pytest.raises(ValueError):
        sc.export_results([], tmp_path / "x.csv")
    with pytest.raises(ValueError):
        sc.export_results(moderate_results, tmp_path / "x.xml",
                          format="xml")
