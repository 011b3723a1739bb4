"""The operational-target table of ``python -m repro.experiments``.

One row per target drives the CLI loop, the Makefile rule and the CI
smoke matrix; these tests pin the loop's ordering and failure contract
with stubbed rows, and the table's agreement with the build files.
"""

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

import repro.experiments.__main__ as cli
from repro.checkpoint.audit import check_replay_audits, render_replay_audits
from repro.experiments.accountability import check_accountability_smoke
from repro.experiments.profiling import check_wallclock_smoke

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def calls(monkeypatch, tmp_path):
    """Replace every row's run/render/check with recording stubs; the
    returned list collects the names of the rows that ran."""
    monkeypatch.chdir(tmp_path)
    ran: list[str] = []

    def stub(row):
        def run(args):
            ran.append(row.name)
            return {"scenario": row.name}
        return replace(row, run=run, check=lambda record: [],
                       render=lambda record: f"rendered {record['scenario']}")

    monkeypatch.setattr(cli, "SCENARIOS", tuple(stub(row) for row in cli.SCENARIOS))
    return ran


@pytest.mark.parametrize("sweep", ["throughput", "chaos-soak", "topology-sweep",
                                   "state-sweep"])
def test_sweep_and_its_smoke_both_run_in_table_order(calls, capsys, sweep):
    smoke = sweep.replace("-sweep", "").replace("-soak", "") + "-smoke"
    assert cli.main([smoke, sweep]) == 0
    assert calls == [sweep, smoke]
    out = capsys.readouterr().out
    assert out == f"rendered {sweep}\n\nrendered {smoke}\n"
    rows = {row.name: row for row in cli.SCENARIOS}
    for name in (sweep, smoke):
        with open(rows[name].artifact) as handle:
            assert json.load(handle) == {"scenario": name}


def test_failed_check_exits_1_and_skips_later_targets(calls, monkeypatch, capsys):
    rows = tuple(
        replace(row, check=lambda record: ["boom"]) if row.name == "chaos-soak" else row
        for row in cli.SCENARIOS)
    monkeypatch.setattr(cli, "SCENARIOS", rows)
    assert cli.main(["chaos-smoke", "chaos-soak"]) == 1
    assert calls == ["chaos-soak"]
    captured = capsys.readouterr()
    assert captured.out == "rendered chaos-soak\n"
    assert "chaos-soak FAILURE: boom" in captured.err


def test_help_and_docstring_list_every_target(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    out = capsys.readouterr().out
    for row in cli.SCENARIOS:
        assert f"  {row.name} " in out
        assert f"  {row.name} " in cli.__doc__


def test_smoke_rows_have_a_make_target_and_a_ci_matrix_row():
    makefile = (ROOT / "Makefile").read_text().replace("\\\n", " ")
    make_targets = re.search(r"^SCENARIOS :=(.*)$", makefile, re.M).group(1).split()
    assert "$(SCENARIOS):\n\tPYTHONPATH=src $(PYTHON) -m repro.experiments $@" in makefile
    ci_rows = re.findall(r"- args: (.+)\n\s+artifact: (.+)\n",
                         (ROOT / ".github/workflows/ci.yml").read_text())
    ci_artifacts = {args.split()[0]: artifact for args, artifact in ci_rows}
    assert len(ci_artifacts) == len(ci_rows)

    names = {row.name for row in cli.SCENARIOS}
    smoke = {row.name: row.artifact for row in cli.SCENARIOS if row.smoke}
    assert set(make_targets) <= names
    assert set(smoke) <= set(make_targets)
    assert ci_artifacts == smoke


def test_accountability_check_wants_an_int_slash_count():
    run = {"seed": 505, "reproducible": True,
           "record": {"accountability": {"slashes_attributed": "2",
                                         "seeded_equivocations": 1}}}
    failures = check_accountability_smoke({"runs": [run] * 3})
    assert "seed 505: slashes_attributed is not an int" in failures


def test_wallclock_check_wants_delivery_and_the_floor():
    record = {"outstanding": 0, "events_per_sec": 7_500.0,
              "floor_events_per_sec": 500.0}
    assert check_wallclock_smoke(record) == []
    failures = check_wallclock_smoke({**record, "outstanding": 3,
                                      "events_per_sec": 420.0})
    assert failures == ["3 packets never delivered",
                        "420 events/s wall is below the 500 floor"]


def test_replay_audit_render_and_check():
    audits = [{"config": {"seed": 401}, "match": True, "events_replayed": 10_000,
               "checkpoint_bytes": 13_100_000, "divergences": []},
              {"config": {"seed": 402}, "match": False, "events_replayed": 9_000,
               "checkpoint_bytes": 12_000_000, "divergences": ["sim_now: 1 != 2"]}]
    record = {"audits": audits}
    assert render_replay_audits(record) == (
        "replay-audit seed 401: ok (10000 events replayed, checkpoint 13.1 MB)\n\n"
        "replay-audit seed 402: DIVERGED (9000 events replayed, checkpoint 12.0 MB)")
    assert check_replay_audits(record) == ["seed 402: sim_now: 1 != 2"]
