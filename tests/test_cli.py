import json
import os
import subprocess
import sys
import zipfile
from dataclasses import fields
from pathlib import Path

import pytest

import sdedge
from sdedge.authn import MODES
from sdedge.cli import main
from sdedge.report import Throughput
from sdedge.scenario import PERSONAL_AP_CHOICES, Params, bundled_scenario_path


def test_run_emits_csv(tmp_path, capsys):
    out = tmp_path / "fig6.csv"
    code = main(["run", "fig6", "--set", "mode=None", "--out", str(out), "--format", "csv"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# schema=sdedge.metrics/1")
    assert lines[1] == "t,stream_id,mbps"
    # 0.1 s cadence over [0, 40]: 401 sample rows
    assert len(lines) == 2 + 401
    assert "wrote csv report" in capsys.readouterr().out


def test_json_and_csv_agree_numerically(tmp_path):
    csv_path = tmp_path / "r.csv"
    json_path = tmp_path / "r.json"
    assert main(["run", "fig6", "--seed", "5", "--out", str(csv_path), "--format", "csv"]) == 0
    assert main(["run", "fig6", "--seed", "5", "--out", str(json_path), "--format", "json"]) == 0
    doc = json.loads(json_path.read_text())
    csv_rows = [
        line.split(",") for line in csv_path.read_text().splitlines()[2:]
    ]
    assert len(csv_rows) == len(doc["throughput"])
    for (t_csv, sid_csv, v_csv), (t_js, sid_js, v_js) in zip(csv_rows, doc["throughput"]):
        assert float(t_csv) == t_js and sid_csv == sid_js and float(v_csv) == v_js


def test_reports_are_reproducible_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["run", "fig2", "--seed", "9", "--out", str(a), "--format", "json"])
    main(["run", "fig2", "--seed", "9", "--out", str(b), "--format", "json"])
    assert a.read_bytes() == b.read_bytes()


def test_run_expands_the_throughput_rows_once_per_reader(tmp_path, monkeypatch):
    # one expansion for the summary, which the JSON document and the printed
    # line share, and one for the JSON rows
    calls = []
    expand = Throughput.expand
    monkeypatch.setattr(Throughput, "expand", lambda self: calls.append(1) or expand(self))
    assert main(["run", "fig5", "--format", "json", "--out", str(tmp_path / "r.json")]) == 0
    assert len(calls) == 2


def test_validate_ok(capsys):
    assert main(["validate", "fig5"]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_reports_all_errors(tmp_path, capsys):
    bad = tmp_path / "broken.scenario"
    bad.write_text(
        "[topology]\ncontroller C1\n"
        "ap AP9 pos=0,0 radius=5 capacity=11 techs=wifi partition=GHOST\n"
        "[flows]\nflow F1 md=NOBODY dst=C1 type=t demand=1 tech=wifi start=0\n"
    )
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "GHOST" in err and "NOBODY" in err


def test_validate_reports_the_line_of_an_out_of_range_param(tmp_path, capsys):
    bad = tmp_path / "x.scenario"
    bad.write_text("[params]\nduration = -1\n[topology]\ncontroller C1\n")
    assert main(["validate", str(bad)]) == 1
    assert f"{bad}:2:1: duration must be positive" in capsys.readouterr().err


def test_unknown_override_key_is_usage_error(capsys):
    assert main(["run", "fig2", "--set", "bogus=1"]) == 2
    assert "bogus" in capsys.readouterr().err


def test_controllers_beyond_declared_are_rejected_from_override_and_file(tmp_path, capsys):
    assert main(["run", "fig5", "--set", "controllers=9"]) == 2
    assert "controllers=9 but only 2 declared" in capsys.readouterr().err
    assert main(["run", "fig5", "--set", "controllers=2", "--set", "duration=1"]) == 0
    bad = tmp_path / "many.scenario"
    bad.write_text(bundled_scenario_path("fig5").read_text().replace("[params]\n", "[params]\ncontrollers = 9\n", 1))
    assert main(["validate", str(bad)]) == 1
    assert "controllers=9 but only 2 declared" in capsys.readouterr().err


def test_missing_scenario(capsys):
    assert main(["validate", "no-such-scenario"]) == 1


@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_directory_is_one_read_error(command, tmp_path, capsys):
    assert main([command, str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{tmp_path}:0:1: cannot read: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_file_that_is_not_utf8_is_one_read_error(command, tmp_path, capsys):
    path = tmp_path / "latin-1.scenario"
    path.write_bytes(b"[topology]\ncontroller C\xe9\n")
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{path}:0:1: cannot read: ") and "utf-8" in err and err.count("\n") == 1


def test_batch_reports_an_unreadable_entry_and_goes_on(tmp_path, capsys):
    (tmp_path / "a.scenario").mkdir()
    (tmp_path / "b.scenario").write_text(bundled_scenario_path("fig2").read_text())
    assert main(["batch", str(tmp_path), "--set", "duration=1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("a.scenario: FAILED: line 0, col 1: cannot read: ")
    assert captured.err.count("\n") == 1
    assert captured.out.startswith("b.scenario: delivered=")


def test_batch_runs_directory(tmp_path, capsys):
    src = bundled_scenario_path("fig2").read_text()
    (tmp_path / "one.scenario").write_text(src)
    (tmp_path / "two.scenario").write_text(src)
    out_dir = tmp_path / "results"
    code = main(["batch", str(tmp_path), "--out-dir", str(out_dir), "--format", "json"])
    assert code == 0
    assert sorted(p.name for p in out_dir.iterdir()) == ["one.json", "two.json"]


@pytest.mark.parametrize("pair", ["bogus=1", "duration=soon", "mode"])
def test_batch_with_a_bad_override_is_one_usage_error(pair, tmp_path, capsys):
    # a bad `--set` is the command line's fault, not each file's: it exits 2
    # with one usage error, as `run` does, not one FAILED line per file
    src = bundled_scenario_path("fig2").read_text()
    (tmp_path / "one.scenario").write_text(src)
    (tmp_path / "two.scenario").write_text(src)
    assert main(["batch", str(tmp_path), "--set", pair]) == 2
    err = capsys.readouterr().err
    assert err.count("usage error:") == 1 and "FAILED" not in err and "Traceback" not in err


def test_batch_fails_only_the_file_at_fault(tmp_path, capsys):
    (tmp_path / "bad.scenario").write_text("[topology]\nap AP1 pos=0,0\n")
    (tmp_path / "good.scenario").write_text(bundled_scenario_path("fig2").read_text())
    assert main(["batch", str(tmp_path), "--set", "duration=1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("FAILED") == 1 and "bad.scenario: FAILED" in captured.err
    assert captured.out.startswith("good.scenario: delivered=")


def test_validate_reads_bundled_scenarios_from_a_zipped_package(tmp_path):
    # a package imported from a zip has no scenario files on disk: the
    # bundled text must be read from the archive, not from a temporary copy
    package = Path(sdedge.__file__).parent
    archive = tmp_path / "sdedge.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for f in sorted(package.rglob("*")):
            if f.is_file() and "__pycache__" not in f.parts:
                zf.write(f, Path("sdedge") / f.relative_to(package))
    code = (
        "import sys, sdedge.cli; "
        "assert sdedge.cli.__file__.startswith(sys.argv[1]), sdedge.cli.__file__; "
        "sys.exit(sdedge.cli.main(['validate', 'fig5c']))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(archive)], cwd=tmp_path, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(archive)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("fig5c: ok")


@pytest.mark.parametrize("scenario,message", [
    ("fig2", "fig2:15: controller C10 key 10 outside [0, 2^2)"),
    ("fig5c", "fig5c:15: controller C3 collides with C1 at key 3"),
])
def test_ring_width_override_is_checked_against_the_controllers(scenario, message, capsys):
    assert main(["run", scenario, "--set", "m=2"]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_generated_overrides_run_or_are_usage_errors(capsys):
    """Any `--set` pairs on a bundled scenario either run to completion or are
    rejected as a usage error before t=0, each field drawn at its edges and
    past them: negative, zero, nan, inf and sub-grid (1e-12) floats, and ints
    outside their range."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    values = {f.name: [-1, 0, "nan", "inf", 1e-12, f.default / 2, f.default, 2 * f.default]
              for f in fields(Params) if f.type == "float"}
    values.update(
        duration=[-1, 0, "nan", "inf", 0.5, 2.0],  # short runs: the horizon is drawn on every run
        m=[1, 2, 5, 16, 32, 33], r=[0, 1, 3], controllers=[-1, 0, 1, 9],
        mode=list(MODES), personal_ap=list(PERSONAL_AP_CHOICES),
    )
    pair = st.sampled_from(sorted(values)).flatmap(lambda key: st.sampled_from(values[key]).map(f"{key}={{}}".format))

    # most cases are rejected before t=0, which is cheap; one in eight runs
    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(
        scenario=st.sampled_from(["fig2", "fig5", "fig5c", "fig6"]),
        duration=st.sampled_from(values["duration"]),
        pairs=st.lists(pair, max_size=4),
    )
    def run(scenario, duration, pairs):
        argv = ["run", scenario, "--set", f"duration={duration}"]
        for p in pairs:
            argv += ["--set", p]
        assert main(argv) in (0, 2), argv
        assert "Traceback" not in capsys.readouterr().err

    run()
