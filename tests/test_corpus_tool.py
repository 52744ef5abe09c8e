"""`tools/corpus.py`: its comparison rule on hand-written listings, and the
size of each corpus in `CORPORA`, counted without a solve.

The tool is a script, not a module of `gridbase`, so it is loaded by path,
as `test_tracer_names.py` loads the benchmark's tracer.
"""

import importlib.util
import os
from pathlib import Path

import pytest

from gridbase import hvac_model as hm

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "corpus.py"
KEY = "day-toa/42/0/n5-cold-s42"


@pytest.fixture(scope="module")
def corpus():
    spec = importlib.util.spec_from_file_location("corpus_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _listing(path, *outcomes):
    """An hour listing: one (outcome, J0) per hour, from hour 9 on."""
    path.write_text("".join(
        f"{KEY} h{9 + i}  {outcome}  {j0}  0123  4567  89ab\n"
        for i, (outcome, j0) in enumerate(outcomes)))
    return str(path)


def _compare(corpus, tmp_path, capsys, base, head):
    code = corpus.main(["compare", _listing(tmp_path / "base.txt", *base),
                        _listing(tmp_path / "head.txt", *head)])
    return code, capsys.readouterr().out


def test_compare_fails_on_a_lost_certified_hour(corpus, tmp_path, capsys):
    code, out = _compare(
        corpus, tmp_path, capsys,
        [("certified", "1.5"), ("InfeasibleHourError", "-")],
        [("InfeasibleHourError", "-"), ("InfeasibleHourError", "-")])
    assert code == 1
    assert out.splitlines() == [
        f"lost: {KEY} h9  InfeasibleHourError",
        "1 certified hours lost; 0 other lines differ"]


def test_compare_counts_a_missing_hour_as_lost(corpus, tmp_path, capsys):
    code, out = _compare(corpus, tmp_path, capsys,
                         [("certified", "1.5"), ("certified", "2.5")],
                         [("certified", "1.5")])
    assert code == 1
    assert out.splitlines() == [
        f"lost: {KEY} h10  missing",
        "1 certified hours lost; 0 other lines differ"]


def test_compare_passes_a_moved_j0(corpus, tmp_path, capsys):
    code, out = _compare(corpus, tmp_path, capsys,
                         [("certified", "1.5"), ("certified", "2.5")],
                         [("certified", "1.5"), ("certified", "2.6")])
    assert code == 0
    assert out.splitlines() == [
        f"moved: {KEY} h10", "0 certified hours lost; 1 other lines differ"]
    # hours 9 to 33 all move: the first 20 keys in sorted order are named
    code, out = _compare(corpus, tmp_path, capsys,
                         [("certified", "1.5")] * 25,
                         [("certified", "2.5")] * 25)
    assert code == 0
    assert out.splitlines() == [
        *(f"moved: {KEY} h{hour}" for hour in range(10, 30)),
        "0 certified hours lost; 25 other lines differ"]


def test_compare_takes_two_listings(corpus, tmp_path):
    with pytest.raises(SystemExit) as exc:
        corpus.main(["compare", _listing(tmp_path / "base.txt")])
    assert exc.value.code == 2


@pytest.mark.parametrize("name, n_days, n_lines", [
    ("fixtures", 108, 216), ("outcomes", 384, 2688), ("wide", 2160, 15120)])
def test_corpus_sizes(corpus, monkeypatch, name, n_days, n_lines):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    fmt, rows = corpus.CORPORA[name]
    days = dict(corpus.days(rows))
    hours = sum(len(day.profile.hours) for day in days.values())
    assert len(days) == n_days and hours == 7 * n_days
    assert (2 * n_days if fmt == "fixtures" else hours) == n_lines


def test_plant_days_scale_the_plant_with_the_zones(corpus, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    base = hm.HvacParameters()
    days = corpus.plant_days(3)
    assert [(d.n_zones, d.seed) for d in days] == [(13, 3)] * 3 + [(20, 3)] * 3
    for day in days:
        n, p = day.n_zones, day.params
        assert p.zone_count == n
        assert p.m_design == base.m_design * n / 5
        assert p.Q_b_rated == base.Q_b_rated * n / 5
        assert p.Q_e_rated == base.Q_e_rated * n / 5


def test_cli_corpus_size(corpus, monkeypatch):
    """41 lines: on each of 3 days, 10 documents and 2 exports, then the 3
    documents of `CLI_ONCE` and the 2 files its `synth` and `run-day`
    write; every path the tables name is relative."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    fmt, rows = corpus.CORPORA["cli"]
    runs = [argv for _, day in corpus.days(rows)
            for argv in corpus.cli_table(day)] + list(corpus.CLI_ONCE)
    files = sum("--out" in argv for argv in runs)
    assert fmt == "cli" and (len(runs), files) == (33, 8)
    assert len(runs) + files == 41
    assert not any(os.path.isabs(arg) for argv in runs for arg in argv)
    assert all(argv[-2] == "--out" for argv in runs if "--out" in argv)
