import ast
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import slowent
from slowent import cli, covernum, cutstack, expcli, lattice, recurrence, rng, symbolic, toys
from slowent.lattice import UsageError, pattern_distance

from oracles import (
    axis_extremes,
    brute_stage2_census,
    census_triple,
    census_violations_by_triple,
    merged_provenance_count,
    pair_type_key,
    pattern_from_text,
    q1_count_vector_weights,
    q1_triangle_violations_by_block,
    random_axiom_violations,
    random_pattern,
    recursive_site_type_counts,
)


def test_config_from_json_validation():
    with pytest.raises(UsageError):
        expcli.config_from_json({"kind": "nonsense"})
    with pytest.raises(UsageError):
        expcli.config_from_json({"kind": "recur", "seed": "abc"})
    with pytest.raises(UsageError):
        expcli.config_from_json({"kind": "recur", "sample_size": 0})
    # JSON true decodes to a bool, which Python counts as the int 1
    for field, value in (("seed", True), ("sample_size", True), ("scales", [4, True])):
        with pytest.raises(UsageError):
            expcli.config_from_json({"kind": "recur", field: value})
    cfg = expcli.config_from_json({"kind": "recur", "seed": 5})
    assert cfg.kind == "recur" and cfg.seed == 5
    # a misspelt field is refused by name, not dropped
    with pytest.raises(UsageError, match="'sampel_size'"):
        expcli.config_from_json({"kind": "ratio-et", "sampel_size": 3})
    # a repeated scale or epsilon would repeat a verdict name, so each is refused by field
    for field, value in (("scales", [2, 2]), ("scales", [4, 2]), ("epsilons", ["1/4", "2/8"]), ("epsilons", [0, "0/3"])):
        with pytest.raises(UsageError, match=f"'{field}'"):
            expcli.config_from_json({"kind": "cover", field: value})


def test_canonical_refuses_types_reports_do_not_carry():
    assert expcli._canonical({"a": (Fraction(1, 4), [True, None, 2.5])}) == {"a": ["1/4", [True, None, 2.5]]}
    for value in (b"\x01", {1}, frozenset({1}), [object()], {"k": complex(1, 2)}):
        with pytest.raises(TypeError):
            expcli._canonical(value)


def test_schedule_from_spec_variants(tmp_path):
    s1 = expcli.schedule_from_spec({"stages": 3, "theta": "1/3", "c": "2", "r1": 1})
    assert s1.radii == (1, 28, 185221)
    s2 = expcli.schedule_from_spec({"radii": [1, 28, 185221], "theta": "1/3", "c": 2})
    assert s2 == s1
    f = tmp_path / "sched.txt"
    from slowent.cutstack import schedule_to_text

    f.write_text(schedule_to_text(s1))
    s3 = expcli.schedule_from_spec({"file": str(f)})
    assert s3 == s1


def test_report_roundtrip_and_determinism(tmp_path):
    cfg = expcli.config_from_json({"kind": "metric-props", "seed": 3, "sample_size": 500})
    r1 = expcli.run_experiment(cfg)
    r2 = expcli.run_experiment(cfg)
    assert expcli.report_to_json(r1) == expcli.report_to_json(r2)
    path = expcli.write_report(r1, tmp_path / "out", fmt="json")
    doc = json.loads(path.read_text())
    assert doc["verdicts"][0]["status"] == "pass"
    assert "runtime_seconds" not in json.dumps(doc)
    assert (tmp_path / "out" / "timing.json").exists()


def test_csv_rows_derive_from_report(tmp_path):
    cfg = expcli.config_from_json({"kind": "recur", "seed": 3})
    report = expcli.run_experiment(cfg)
    expcli.write_report(report, tmp_path, fmt="csv")
    csv_lines = (tmp_path / "recurrence.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "n,point_id,R_size,alpha_pointwise"
    assert len(csv_lines) == 1 + len(report.tables["recurrence"])
    for row, line in zip(report.tables["recurrence"], csv_lines[1:]):
        assert str(row["R_size"]) in line


def test_default_scales():
    sched = expcli.schedule_from_spec({"stages": 3, "theta": "1/3", "c": "2", "r1": 1})
    scales = expcli.default_scales(sched)
    assert scales[0] == 2 and scales[-1] == 56
    assert all(scales[i] < scales[i + 1] for i in range(len(scales) - 1))


def _run_cli(*args: str, cwd: Path):
    # The child runs in ``cwd``, where a relative PYTHONPATH entry such as
    # ``src`` no longer resolves; put the directory holding the imported
    # package first so the child runs the same slowent as this process.
    env = os.environ.copy()
    pkg_root = str(Path(slowent.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "slowent.cli", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize(
    "files, args",
    [
        ({"bad.csv": "n,value\n4,abc\n"}, ("fit", "bad.csv", "--out", "fo")),
        ({"c.json": '{"kind": "recur", "scales": ["x"]}'}, ("recur", "--config", "c.json", "--out", "o")),
        ({"c.json": '{"kind": "recur", "schedule": {"theta": "abc"}}'}, ("recur", "--config", "c.json", "--out", "o")),
        ({"c.json": '{"kind": "recur", "schedule": 5}'}, ("recur", "--config", "c.json", "--out", "o")),
        ({"c.json": '{"kind": "cover", "epsilons": ["abc"]}'}, ("cover", "--config", "c.json", "--out", "o")),
        ({}, ("recur", "--theta", "abc", "--out", "o")),
        ({}, ("recur", "--theta", "0", "--out", "o")),
        ({"s.txt": "theta abc\nc 2\nr 1 1\n"}, ("schedule", "check", "s.txt")),
        ({}, ("names", "--n", "10000")),
        ({}, ("distmat", "--n", "10000", "--sample-size", "2", "--out", "o")),
        ({}, ("names", "--n", "100000000000000000")),
        ({}, ("ratio-et", "--sample-size", "-3", "--out", "o")),
        ({}, ("cover", "--sample-size", "-3", "--out", "o")),
        ({}, ("bowen", "--sample-size", "-3", "--out", "o")),
        ({}, ("recur", "--sample-size", "-3", "--out", "o")),
        ({}, ("recur", "--sample-size", "0", "--out", "o")),
        ({}, ("distmat", "--n", "-2", "--sample-size", "2", "--out", "o")),
        ({}, ("schedule", "build", "--stages", "10")),
        ({}, ("sample", "--stages", "14", "--count", "1")),
        ({"c.json": '{"kind": "cover", "seed": true}'}, ("cover", "--config", "c.json", "--out", "o")),
        ({}, ("sample", "--count", "-3")),
        ({"c.json": '{"kind": "recur", "scales": [2.7, "8"]}'}, ("recur", "--config", "c.json", "--out", "o")),
        ({"c.json": '{"kind": "cover", "epsilons": 5}'}, ("cover", "--config", "c.json", "--out", "o")),
        (
            {"c.json": '{"kind": "recur", "schedule": {"stages": 3.9, "theta": "1/3", "c": "2", "r1": 1}}'},
            ("recur", "--config", "c.json", "--out", "o"),
        ),
        (
            {"c.json": '{"kind": "recur", "schedule": {"stages": "3", "theta": "1/3", "c": "2", "r1": 1}}'},
            ("recur", "--config", "c.json", "--out", "o"),
        ),
        (
            {"c.json": '{"kind": "recur", "schedule": {"stages": 3, "theta": "1/3", "c": "2", "r1": true}}'},
            ("recur", "--config", "c.json", "--out", "o"),
        ),
        (
            {"c.json": '{"kind": "recur", "schedule": {"radii": [1, 28.0, 185221], "theta": "1/3", "c": 2}}'},
            ("recur", "--config", "c.json", "--out", "o"),
        ),
        ({}, ("verify", "--stages", "3", "--out", "o")),
        ({}, ("bowen", "--theta", "1/4", "--out", "o")),
        ({"s.txt": "theta 1/3\nc 2\nr 1 1\nr 2 28\n"}, ("metric-props", "--schedule-file", "s.txt", "--out", "o")),
        ({"c.json": '{"kind": "ratio-et"}'}, ("ratio-et", "--config", "c.json", "--stages", "3", "--out", "o")),
        (
            {"c.json": '{"kind": "cover"}', "s.txt": "theta 1/3\nc 2\nr 1 1\nr 2 28\n"},
            ("cover", "--config", "c.json", "--schedule-file", "s.txt", "--out", "o"),
        ),
        ({"c.json": '{"schedule": {"stages": 3}}'}, ("bowen", "--config", "c.json", "--out", "o")),
        ({"c.json": '{"kind": "verify", "schedule": {}}'}, ("verify", "--config", "c.json", "--out", "o")),
        (
            {"c.json": '{"schedule": {"stages": 3, "theta": "1/5", "c": "9", "r1": 4}}'},
            ("metric-props", "--config", "c.json", "--out", "o"),
        ),
        ({"c.json": "[1]"}, ("cover", "--config", "c.json", "--out", "o")),
        ({}, ("overlay", "--sample-size", "255", "--out", "o")),
        ({"c.json": '{"kind": "ratio-et", "sampel_size": 3}'}, ("ratio-et", "--config", "c.json", "--out", "o")),
        ({"v.csv": "n,value\n4,10\n8,inf\n"}, ("fit", "v.csv", "--out", "fo")),
        ({"v.csv": "n,value\n4,10\n8,nan\n"}, ("fit", "v.csv", "--out", "fo")),
        ({"v.csv": "n,value\n4,10\n8,1e400\n"}, ("fit", "v.csv", "--out", "fo")),
        ({"v.csv": f"n,value\n4,10\n{10**400},20\n"}, ("fit", "v.csv", "--scale", "exp", "--out", "fo")),
        ({"v.csv": f"n,value\n4,10\n{10**200},20\n"}, ("fit", "v.csv", "--scale", "exp", "--out", "fo")),
        (
            {"c.json": '{"kind": "recur", "schedule": {"stage": 6, "thetaa": "1/4"}}'},
            ("recur", "--config", "c.json", "--out", "o"),
        ),
        (
            {"c.json": '{"kind": "cover", "schedule": {"file": "s.txt", "stages": 3}}', "s.txt": "theta 1/3\nc 2\nr 1 1\nr 2 28\nr 3 185221\n"},
            ("cover", "--config", "c.json", "--out", "o"),
        ),
        (
            {"c.json": '{"kind": "cover", "schedule": {"radii": [1, 28, 185221], "theta": "1/3", "stages": 3}}'},
            ("cover", "--config", "c.json", "--out", "o"),
        ),
        (
            {"c.json": '{"kind": "cover", "schedule": {"radii": [1, 28, 185221], "theta": "1/3", "r1": 1}}'},
            ("cover", "--config", "c.json", "--out", "o"),
        ),
        (
            {"s.txt": "theta 1/3\nc 2\nr 1 1\nr 2 28\nr 3 185221\n"},
            ("recur", "--schedule-file", "s.txt", "--stages", "6", "--out", "o"),
        ),
        ({"s.txt": "theta 1/3\nc 2\nr 1 1\nr 2 28\nr 3 185221\n"}, ("sample", "--schedule-file", "s.txt", "--theta", "1/4")),
        ({"c.json": '{"kind": "cover", "epsilons": ["-1"], "sample_size": 4}'}, ("cover", "--config", "c.json", "--out", "o")),
        ({"c.json": '{"kind": "recur", "scales": []}'}, ("recur", "--config", "c.json", "--out", "o")),
        ({"c.json": '{"kind": "cover", "epsilons": [], "sample_size": 4}'}, ("cover", "--config", "c.json", "--out", "o")),
        ({}, ("cover", "--sample-size", str(covernum.EXACT_COVER_LIMIT + 1), "--out", "o")),
        ({"c.json": '{"kind": "cover", "scales": [2, 2], "sample_size": 4}'}, ("cover", "--config", "c.json", "--out", "o")),
        ({"c.json": '{"kind": "cover", "scales": [4, 2], "sample_size": 4}'}, ("cover", "--config", "c.json", "--out", "o")),
        (
            {"c.json": '{"kind": "cover", "scales": [2], "epsilons": ["1/4", "2/8"], "sample_size": 4}'},
            ("cover", "--config", "c.json", "--out", "o"),
        ),
    ],
    ids=[
        "fit-row",
        "config-scales",
        "config-theta",
        "config-schedule",
        "config-epsilons",
        "arg-theta",
        "arg-theta-zero",
        "schedule-file-theta",
        "names-window-cap",
        "distmat-window-cap",
        "names-stage-cap",
        "ratio-et-negative-size",
        "cover-negative-size",
        "bowen-negative-size",
        "recur-negative-size",
        "recur-zero-size",
        "distmat-negative-radius",
        "schedule-digit-bound",
        "sample-digit-bound",
        "config-seed-bool",
        "sample-negative-count",
        "config-scales-non-integer",
        "config-epsilons-non-list",
        "config-schedule-stages-float",
        "config-schedule-stages-string",
        "config-schedule-r1-bool",
        "config-schedule-radii-float",
        "verify-schedule-flag",
        "bowen-schedule-flag",
        "metric-props-schedule-flag",
        "config-with-schedule-flag",
        "config-with-schedule-file",
        "bowen-config-schedule",
        "verify-config-schedule",
        "metric-props-config-schedule",
        "config-not-object",
        "overlay-size-below-256",
        "config-unknown-field",
        "fit-value-inf",
        "fit-value-nan",
        "fit-value-past-float-range",
        "fit-exp-n-past-float-range",
        "fit-exp-n-squared-past-float-range",
        "config-schedule-unknown-field",
        "config-schedule-file-with-field",
        "config-schedule-radii-with-stages",
        "config-schedule-radii-with-r1",
        "schedule-file-with-flag",
        "sample-schedule-file-with-flag",
        "config-epsilons-negative",
        "config-scales-empty",
        "config-epsilons-empty",
        "cover-size-above-exact-limit",
        "config-scales-repeated",
        "config-scales-unsorted",
        "config-epsilons-repeated",
    ],
)
def test_cli_bad_input_exits_2(tmp_path, files, args):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    res = _run_cli(*args, cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    assert "usage error:" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("schedule", "check", "s.txt"),
        ("cover", "--config", "s.txt", "--out", "o"),
        ("fit", "s.txt", "--out", "fo"),
        ("recur", "--schedule-file", "s.txt", "--out", "o"),
        ("cover", "--config", "c.json", "--out", "o"),
    ],
    ids=["schedule-check", "config", "fit", "schedule-file", "config-schedule-file"],
)
def test_cli_non_utf8_file_exits_2(tmp_path, monkeypatch, capsys, args):
    # a UTF-16 file starts with the bytes ff fe, which UTF-8 cannot decode
    (tmp_path / "s.txt").write_bytes("theta 1/3\nc 2\nr 1 1\nr 2 28\n".encode("utf-16"))
    (tmp_path / "c.json").write_text('{"kind": "cover", "schedule": {"file": "s.txt"}}')
    monkeypatch.chdir(tmp_path)
    assert cli.main(list(args)) == 2
    assert "usage error:" in capsys.readouterr().err


def test_cli_ratio_et_on_a_one_stage_schedule_exits_2(tmp_path, capsys):
    # the ratio samples stage-3 points, so a schedule of fewer stages is a usage error
    assert cli.main(["ratio-et", "--stages", "1", "--out", str(tmp_path)]) == 2
    assert "usage error:" in capsys.readouterr().err


@pytest.mark.parametrize("point_seed", [99999999999999999999, -99999999999999999999, 2**63, -(2**63) - 1])
def test_cli_names_point_seed_past_int64_exits_2(capsys, point_seed):
    # the point seed is a stream index, which rng packs as an int64
    assert cli.main(["names", "--n", "1", "--point-seed", str(point_seed)]) == 2
    err = capsys.readouterr().err
    assert "usage error: --point-seed must be in the int64 range" in err and "Traceback" not in err


@pytest.mark.parametrize("point_seed", [2**63 - 1, -(2**63)])
def test_cli_names_point_seed_at_the_int64_ends_runs(capsys, point_seed):
    assert cli.main(["names", "--n", "1", "--point-seed", str(point_seed)]) == 0
    assert capsys.readouterr().out.startswith("box 1 default 0\n")


@pytest.mark.parametrize(
    "command, flag",
    [
        (command, flag)
        for command, dropped in (
            (("fit", "d.csv"), ("--seed", "--config", "--format")),
            (("sample",), ("--out", "--config", "--format")),
            (("names",), ("--out", "--config", "--format")),
            (("distmat", "--sample-size", "2"), ("--config", "--format")),
        )
        for flag in dropped
    ],
    ids=lambda value: value[0] if isinstance(value, tuple) else value,
)
def test_cli_rejects_common_flags_a_command_does_not_read(capsys, command, flag):
    # parsing fails before the command reads any file
    value = {"--seed": "1", "--config": "c.json", "--format": "csv", "--out": "o"}[flag]
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, flag, value])
    assert exc.value.code == 2
    assert f"usage error: unrecognized arguments: {flag}" in capsys.readouterr().err


def test_cli_config_without_sample_size_runs_the_command_default(tmp_path):
    (tmp_path / "c.json").write_text('{"kind": "cover"}')
    res = _run_cli("cover", "--config", "c.json", "--out", "config", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    res = _run_cli("cover", "--out", "plain", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    report = (tmp_path / "config" / "report.json").read_bytes()
    assert report == (tmp_path / "plain" / "report.json").read_bytes()
    assert json.loads(report)["config"]["sample_size"] == expcli.COMMANDS["cover"].sample_size


def test_cli_config_with_a_partial_schedule_records_the_filled_spec(tmp_path):
    (tmp_path / "c.json").write_text('{"kind": "cover", "schedule": {"stages": 5}}')
    res = _run_cli("cover", "--config", "c.json", "--out", "config", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    res = _run_cli("cover", "--stages", "5", "--out", "plain", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    report = (tmp_path / "config" / "report.json").read_bytes()
    assert report == (tmp_path / "plain" / "report.json").read_bytes()
    assert json.loads(report)["config"]["schedule_spec"] == {**expcli.DEFAULT_SCHEDULE_SPEC, "stages": 5}


def test_filled_schedule_spec_fills_only_the_fields_a_form_reads():
    fill = expcli.filled_schedule_spec
    assert fill({}) == expcli.DEFAULT_SCHEDULE_SPEC
    assert fill({"radii": [1, 4], "c": "3"}) == {"radii": [1, 4], "theta": "1/3", "c": "3"}
    assert fill({"file": "s.txt"}) == {"file": "s.txt"}
    # a field the form does not read is kept, for schedule_from_spec to refuse
    assert fill({"file": "s.txt", "stages": 5}) == {"file": "s.txt", "stages": 5}
    for spec in ({"radii": [1, 4], "r1": 1}, {"file": "s.txt", "stages": 5}):
        with pytest.raises(UsageError):
            expcli.schedule_from_spec(fill(spec))


@pytest.mark.parametrize("exponent", [149, 160, 200])
def test_cli_recur_at_huge_scales_ends_without_a_traceback(tmp_path, exponent):
    # r(6) of this schedule has 274 digits, so every window here is built;
    # float powers of |Q_n| and float(|R_n|) left float range from 10^149
    config = {"kind": "recur", "schedule": {"stages": 6, "theta": "1/3", "c": "5", "r1": 1}, "scales": [2, 10**exponent]}
    (tmp_path / "c.json").write_text(json.dumps(config))
    res = _run_cli("recur", "--config", "c.json", "--out", "o", cwd=tmp_path)
    assert res.returncode in (0, 2), res.stderr
    assert "Traceback" not in res.stderr


def test_cli_seed_overrides_config(tmp_path):
    (tmp_path / "r.json").write_text('{"seed": 5, "sample_size": 3}')
    res = _run_cli("ratio-et", "--config", "r.json", "--out", "o", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert json.loads((tmp_path / "o" / "report.json").read_text())["config"]["seed"] == 5
    res = _run_cli("ratio-et", "--config", "r.json", "--seed", "7", "--out", "o", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    config = json.loads((tmp_path / "o" / "report.json").read_text())["config"]
    assert (config["seed"], config["sample_size"]) == (7, 3)


def test_cli_bowen_csv_has_every_column(tmp_path):
    # the bowen table mixes translation rows (sep_base) and endomorphism rows (log2_bound)
    res = _run_cli("bowen", "--sample-size", "20", "--format", "csv", "--out", "o", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "o" / "bowen.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert "sep_base" in header and "log2_bound" in header
    assert all(len(line.split(",")) == len(header) for line in lines)


def test_cli_recur_sample_size_is_only_recorded(tmp_path):
    res = _run_cli("recur", "--help", cwd=tmp_path)
    assert "unused by this command" in " ".join(res.stdout.split())
    docs = []
    for size in ("3", "50"):
        res = _run_cli("recur", "--sample-size", size, "--out", size, cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        docs.append(json.loads((tmp_path / size / "report.json").read_text()))
    assert [doc["config"].pop("sample_size") for doc in docs] == [3, 50]
    assert docs[0] == docs[1]


@pytest.mark.parametrize("command", ["recur", "metric-props"])
def test_cli_seed_is_only_recorded(tmp_path, command):
    # both run exhaustive suites; the kinds benchmark still passes them --seed
    res = _run_cli(command, "--help", cwd=tmp_path)
    assert "--seed SEED unused by this command" in " ".join(res.stdout.split())
    docs = []
    for seed in ("1", "2"):
        res = _run_cli(command, "--seed", seed, "--out", seed, cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        docs.append(json.loads((tmp_path / seed / "report.json").read_text()))
    assert [doc["config"].pop("seed") for doc in docs] == [1, 2]
    assert docs[0] == docs[1]


def test_cli_schedule_build_and_check(tmp_path):
    res = _run_cli("schedule", "build", "--stages", "3", "--out-file", "s.txt", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    res = _run_cli("schedule", "check", "s.txt", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert "r=(1, 28, 185221)" in res.stdout


def test_cli_schedule_check_rejects_bad_file(tmp_path):
    (tmp_path / "bad.txt").write_text("theta 1/3\nc 2\nr 1 1\nr 2 29\n")
    res = _run_cli("schedule", "check", "bad.txt", cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    assert "usage error" in res.stderr


def test_cli_metric_props_exit_zero(tmp_path):
    res = _run_cli("metric-props", "--sample-size", "300", "--out", "o", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "o" / "report.json").exists()


def test_cli_names_round_trips(tmp_path):
    res = _run_cli("names", "--n", "3", "--seed", "4", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    p = pattern_from_text(res.stdout)
    assert p.box.radius == 3


@pytest.fixture(scope="session")
def verify_report():
    """One verify_all run over a valid variant and a broken one, shared by the structure tests."""
    cfg = expcli.config_from_json({"kind": "verify", "seed": 1})
    variants = (
        {"stages": 4, "theta": "1/3", "c": "2", "r1": 1},
        {"radii": [1, 28, 185222], "theta": "1/3", "c": 2},
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expcli, "DEFAULT_VARIANTS", variants)
        return expcli.verify_all(cfg)


def test_verify_all_structure(verify_report):
    names = {v.name for v in verify_report.verdicts}
    assert any("gamma1-count" in n for n in names)
    assert any("mass-increasing" in n for n in names)
    assert any(n.startswith("global/") for n in names)


def test_verify_all_flags_broken_schedule(verify_report):
    broken = [v for v in verify_report.verdicts if v.status == "fail" and "schedule validates" in v.invariant]
    assert broken
    assert all(v.name.endswith("/schedule-validates") for v in broken)


def test_cli_fit_writes_csv(tmp_path):
    data = "n,value\n4,16\n8,256\n16,65536\n"
    (tmp_path / "data.csv").write_text(data)
    res = _run_cli("fit", "data.csv", "--scale", "exp", "--out", "fo", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "fo" / "fit.csv").read_text().splitlines()
    assert lines[0] == "n,value,transformed_x,transformed_y"
    assert len(lines) == 4


def _peel_losing_copy(level, stage, sched):
    """An AxisSumset.peel that loses level `level`'s q = -k copy on the stage's full sumset."""
    lost = -(sched.s(level) // sched.m(level)) * sched.m(level)
    peel = lattice.AxisSumset.peel

    def planted(self, a, slacks):
        # the stage's sumset has one slack per level, coarsest first
        offsets, rest = peel(self, a, slacks)
        t = len(slacks) - level
        if len(slacks) == stage - 1 and t < len(offsets) and offsets[t] == lost:
            return offsets[:t], rest + sum(offsets[t:])
        return offsets, rest

    return planted


def _peel_short_at(level):
    """A cutstack._peel whose slack at level `level` is one short."""
    peel = cutstack._peel

    def planted(w, axis, slacks):
        # slacks run coarsest first, so level j's slack is slacks[len(slacks) - j]
        return peel(w, axis, tuple(slack - (len(slacks) - t == level) for t, slack in enumerate(slacks)))

    return planted


def _variant_verdict(sched, name):
    """The verdict named `name` of variant_suite on the schedule, labelled v."""
    report = expcli.Report(config={})
    expcli.variant_suite(report, sched, "v")
    (verdict,) = [v for v in report.verdicts if v.name == name]
    return verdict


@pytest.mark.parametrize("spec", expcli.DEFAULT_VARIANTS)
def test_planted_top_level_peel_defect_fails_roundtrip(monkeypatch, spec):
    # a peel that loses the top level's q = -k copy (k > 10^30 here, so a
    # uniform quotient draw would almost never meet it): at the top stage the
    # margin addresses with top quotient -k fail on x, and those with +k fail
    # through their negation on y, each level-top address at +-k with every
    # finer level at +k or at -k
    sched = expcli.schedule_from_spec(spec)
    monkeypatch.setattr(lattice.AxisSumset, "peel", _peel_losing_copy(sched.stages - 1, sched.stages, sched))
    roundtrip = _variant_verdict(sched, "v/decompose-roundtrip")
    assert roundtrip.status == "fail" and roundtrip.details["failures"] == 4


@pytest.mark.parametrize("spec", expcli.DEFAULT_VARIANTS)
def test_planted_short_slack_fails_roundtrip(monkeypatch, spec):
    # decompose peeling under the slack r(j) - r(1) - 1 at one level j: at
    # level 1 that slack is -1, so every margin address at every stage fails;
    # at j >= 2 the addresses whose finer levels all sit at +k or all at -k
    # fail, 8 M + 2 of them at a stage with M levels from j up, so
    # 4 n^2 + 6 n over the n = top - j + 1 stages that build level j
    sched = expcli.schedule_from_spec(spec)
    top = sched.stages - 1
    for level in range(1, top + 1):
        with monkeypatch.context() as m:
            m.setattr(cutstack, "_peel", _peel_short_at(level))
            roundtrip = _variant_verdict(sched, "v/decompose-roundtrip")
        n = top - level + 1
        expected = roundtrip.details["addresses"] if level == 1 else 4 * n * n + 6 * n
        assert roundtrip.status == "fail" and roundtrip.details["failures"] == expected, level


@pytest.mark.parametrize("spec", expcli.DEFAULT_VARIANTS)
def test_roundtrip_sends_each_margin_address_with_its_negation(monkeypatch, spec):
    # 5 addresses at one level and 8 L - 1 at L >= 2, at every built stage,
    # each among the 5^L per-axis extremes and sent on x with its negation on y
    sched = expcli.schedule_from_spec(spec)
    sites = {stage: [] for stage in range(2, sched.stages + 1)}
    decompose = cutstack.decompose

    def recording(v, stage, sched):
        sites[stage].append(v)
        return decompose(v, stage, sched)

    monkeypatch.setattr(cutstack, "decompose", recording)
    roundtrip = _variant_verdict(sched, "v/decompose-roundtrip")
    assert roundtrip.status == "pass"
    assert roundtrip.details == {"coverage": "every address, by the level lemma", "addresses": 113, "failures": 0}
    for stage, sent in sites.items():
        levels = stage - 1
        assert len(sent) == (5 if levels == 1 else 8 * levels - 1)
        xs = [x for x, _ in sent]
        assert all(y == -x for x, y in sent) and len(set(xs)) == len(xs)
        assert set(xs) == {-x for x in xs}
        assert set(xs) <= {sum(e) for e in axis_extremes(sched, stage)}


def _extremes_round_trip_holds(sched, stage):
    """Whether decompose inverts every per-axis extreme at the stage, sent on both axes."""
    for xs in axis_extremes(sched, stage):
        got = cutstack.decompose((sum(xs), sum(xs)), stage, sched)
        if got is None or got.levels != tuple(zip(xs, xs)):
            return False
    return True


@pytest.mark.parametrize("spec", expcli.DEFAULT_VARIANTS)
def test_margin_roundtrip_agrees_with_the_extremes_oracle(monkeypatch, spec):
    # at stages 2-6, sound and under a one-short slack or a lost q = -k copy
    # at each level, the margins pass exactly when all 5^(stage-1) extremes do
    sched = expcli.schedule_from_spec(spec)
    for stage in range(2, 7):
        assert expcli.roundtrip_failures(sched, stage)[1] == 0
        assert _extremes_round_trip_holds(sched, stage)
        for level in range(1, stage):
            for target, name, planted in (
                (cutstack, "_peel", _peel_short_at(level)),
                (lattice.AxisSumset, "peel", _peel_losing_copy(level, stage, sched)),
            ):
                with monkeypatch.context() as m:
                    m.setattr(target, name, planted)
                    assert expcli.roundtrip_failures(sched, stage)[1] > 0, (stage, level, name)
                    assert not _extremes_round_trip_holds(sched, stage), (stage, level, name)


def test_roundtrip_calls_stay_linear_in_the_stage_count(monkeypatch):
    # a 7-stage theta = 1/4, c = 5 schedule, whose radii reach 4,142 digits:
    # at most 10 (stage - 1) decompose calls at each built stage
    sched = expcli.schedule_from_spec({"stages": 7, "theta": "1/4", "c": "5", "r1": 1})
    calls = {}
    decompose = cutstack.decompose

    def counting(v, stage, sched):
        calls[stage] = calls.get(stage, 0) + 1
        return decompose(v, stage, sched)

    monkeypatch.setattr(cutstack, "decompose", counting)
    assert _variant_verdict(sched, "v/decompose-roundtrip").status == "pass"
    assert sorted(calls) == list(range(2, 8))
    assert all(count <= 10 * (stage - 1) for stage, count in calls.items()), calls


@pytest.mark.parametrize("spec", expcli.DEFAULT_VARIANTS)
def test_planted_axis_traversal_defect_fails_gamma1_count(monkeypatch, spec):
    # a traversal that loses the last value of every window
    sched = expcli.schedule_from_spec(spec)
    values = lattice.AxisSumset.values
    monkeypatch.setattr(lattice.AxisSumset, "values", lambda self, lo, hi, origin=0: values(self, lo, hi, origin)[:-1])
    report = expcli.Report(config={})
    expcli.variant_suite(report, sched, "v")
    (count,) = [v for v in report.verdicts if v.name == "v/gamma1-count"]
    k = sched.s(1) // sched.m(1)
    assert count.status == "fail" and count.details == {"formula": (2 * k + 1) ** 2, "exhaustive": (2 * k) ** 2}


@pytest.mark.parametrize("spec", expcli.DEFAULT_VARIANTS)
def test_planted_level_size_defect_fails_gamma_star_product(monkeypatch, spec):
    # |Gamma*_2| then reads 7 * 7 while the axis sumset still counts its own values
    sched = expcli.schedule_from_spec(spec)
    monkeypatch.setattr(cutstack, "gamma_size", lambda sched, i: 7)
    report = expcli.Report(config={})
    expcli.variant_suite(report, sched, "v")
    (product,) = [v for v in report.verdicts if v.name == "v/gamma-star-product"]
    assert product.status == "fail" and product.details == {"value": 49}


@pytest.mark.parametrize("spec", expcli.DEFAULT_VARIANTS)
def test_planted_whole_window_count_fails_alpha_vs_theta(monkeypatch, spec):
    # a core count that counts every site of Q_n measures alpha = 1, which
    # no theta in the variants brings within 0.1 of 1 - theta
    sched = expcli.schedule_from_spec(spec)
    monkeypatch.setattr(cutstack, "core_count", lambda p, n: (2 * n + 1) ** 2)
    report = expcli.Report(config={})
    expcli.variant_suite(report, sched, "v")
    (alpha,) = [v for v in report.verdicts if v.name == "v/alpha-vs-theta"]
    assert alpha.status == "fail" and alpha.details["measured"] == pytest.approx(1.0)


@pytest.mark.parametrize("spec", expcli.DEFAULT_VARIANTS)
def test_planted_box_level_size_fails_gamma_exponent_vs_theta(monkeypatch, spec):
    # |Gamma_i| read as |Q_{s(i)}|: the level sizes then grow like r(i+1)^2,
    # not like r(i+1)^(2 (1 - theta))
    sched = expcli.schedule_from_spec(spec)
    monkeypatch.setattr(cutstack, "gamma_size", lambda sched, i: (2 * sched.s(i) + 1) ** 2)
    report = expcli.Report(config={})
    expcli.variant_suite(report, sched, "v")
    (gamma,) = [v for v in report.verdicts if v.name == "v/gamma-exponent-vs-theta"]
    assert gamma.status == "fail" and gamma.details["measured"] > gamma.details["target"] + 0.1


def _global_verdict(monkeypatch, name):
    """The named global verdict of a verify_all run over no schedule variants."""
    monkeypatch.setattr(expcli, "DEFAULT_VARIANTS", ())
    report = expcli.verify_all(expcli.config_from_json({"kind": "verify", "seed": 2024}))
    (verdict,) = [v for v in report.verdicts if v.name == name]
    return verdict


def test_planted_symbol_blind_metric_fails_metric_axioms(monkeypatch):
    # Jaccard distance of the supports: two patterns that differ only in
    # their symbols read as distance 0
    def jaccard(a, b):
        union = a.cells.keys() | b.cells.keys()
        return Fraction(len(a.cells.keys() ^ b.cells.keys()), len(union)) if union else Fraction(0)

    monkeypatch.setattr(lattice, "pattern_distance", jaccard)
    axioms = _global_verdict(monkeypatch, "global/metric-axioms")
    assert axioms.status == "fail" and axioms.details["identity_violations"] == 465


def test_planted_erasure_defect_fails_erasure_identity(monkeypatch):
    # an erasure code that maps the letter b to 0 loses every b-cell of the base name
    monkeypatch.setattr(symbolic, "ERASURE", {0: 0, 1: 1, symbolic.A_SYMBOL: 1, symbolic.B_SYMBOL: 0})
    erasure = _global_verdict(monkeypatch, "global/erasure-identity")
    # 938 of the 1,000 cases carry a b letter (counted with oracles.fair_bit)
    assert erasure.status == "fail" and erasure.details == {"cases": 1000, "failures": 938}


def test_planted_default_defect_fails_erasure_identity(monkeypatch):
    # an erasure code that maps the default 0 to 1 paints every site off X x Y,
    # so no case recovers its base name, whatever its letters
    monkeypatch.setattr(symbolic, "ERASURE", {0: 1, 1: 1, symbolic.A_SYMBOL: 1, symbolic.B_SYMBOL: 1})
    erasure = _global_verdict(monkeypatch, "global/erasure-identity")
    assert erasure.status == "fail" and erasure.details == {"cases": 1000, "failures": 1000}


def test_planted_unthickened_provenance_fails_ratio_ergodic(monkeypatch):
    # provenance counts that drop the thickening count only the centres of
    # the stage-p copies, so "stage <= 2" reads fewer sites than "stage <= 1"
    monkeypatch.setattr(cutstack, "count_provenance_leq", lambda p, n, prov_stage: merged_provenance_count(p, n, prov_stage, 0))
    report = expcli.run_ratio_et(expcli.config_from_json({"kind": "ratio-et", "seed": 2024, "sample_size": 40}))
    (ratio,) = report.verdicts
    assert ratio.name == "ratio-ergodic" and ratio.status == "fail" and ratio.details["median_ratio"] < 0


def test_planted_decoder_shift_fails_stage2_census(monkeypatch, tmp_path, capsys):
    # a centroid decoder off by one in x: the census finds no decoder hit, and
    # verify's variants and recur read it through the same claim
    decode = recurrence.centroid_decode_axes

    def shifted(mean_x, mean_y):
        x, y = decode(mean_x, mean_y)
        return x + 1, y

    monkeypatch.setattr(recurrence, "centroid_decode_axes", shifted)
    for spec in [spec for spec in expcli.DEFAULT_VARIANTS if spec["c"] == "5"]:
        report = expcli.Report(config={})
        expcli.variant_suite(report, expcli.schedule_from_spec(spec), "v")
        (census,) = [v for v in report.verdicts if v.name == "v/stage2-census"]
        assert census.status == "fail" and census.details["decode_hits"] == 0
    assert cli.main(["recur", "--c", "5", "--out", str(tmp_path)]) == 1
    verdicts = json.loads((tmp_path / "report.json").read_text())["verdicts"]
    assert [(v["name"], v["status"]) for v in verdicts] == [("stage2-census", "fail"), ("rho-alpha-bound", "pass")]


def test_planted_greedy_undercount_fails_cover_sandwich(monkeypatch, tmp_path):
    # a greedy cover bound one too small: cover exits 1 with failing verdicts
    # (not 2 with a usage error), and verify's global suite reads it too
    greedy = covernum.greedy_cover_upper
    monkeypatch.setattr(covernum, "greedy_cover_upper", lambda *args: greedy(*args) - 1)
    assert cli.main(["cover", "--out", str(tmp_path)]) == 1
    verdicts = json.loads((tmp_path / "report.json").read_text())["verdicts"]
    assert len(verdicts) == 8
    assert all(v["name"].startswith("cover-sandwich-n") and v["status"] == "fail" for v in verdicts)
    sandwich = _global_verdict(monkeypatch, "global/cover-sandwich")
    assert sandwich.status == "fail" and sandwich.details["violations"] == 29


def test_planted_wide_ball_fails_gv_exhaustive(monkeypatch):
    # blocking a ball one too wide keeps the family separated at distance
    # 3 instead of 2, and it falls below the sphere-covering bound
    ball = symbolic._ball_masks
    monkeypatch.setattr(symbolic, "_ball_masks", lambda length, radius: ball(length, radius + 1))
    report = expcli.run_overlay(expcli.config_from_json({"kind": "overlay", "seed": 2024, "sample_size": 256}))
    (gv,) = [v for v in report.verdicts if v.name == "gv-exhaustive"]
    assert gv.status == "fail" and (gv.details["family"], gv.details["gv_bound"]) == (2048, 3855)


def test_planted_low_byte_draws_fail_gv_sampled(monkeypatch):
    # overlay-word draws cut to their low 8 bits: 2,000 names drawn from
    # only 2^8 words keep a family below 2^8, while the cube's still holds
    draw = rng.uniform_int

    def low_byte_words(seed, tag, *indices, **bounds):
        value = draw(seed, tag, *indices, **bounds)
        return value & 0xFF if tag == "overlay-word" else value

    monkeypatch.setattr(rng, "uniform_int", low_byte_words)
    report = expcli.run_overlay(expcli.config_from_json({"kind": "overlay", "seed": 2024, "sample_size": 2000}))
    gv = {v.name: v for v in report.verdicts if v.name.startswith("gv-")}
    assert gv["gv-exhaustive"].status == "pass"
    sampled = gv["gv-sampled"]
    assert sampled.status == "fail" and (sampled.details["sampled_names"], sampled.details["family"]) == (2000, 65)


def test_planted_lagging_stage_area_fails_mass_increasing(monkeypatch):
    # stage i >= 3 laid out over Q_{r(i-1)}: the stage-3 mass is the stage-2
    # area at a thinner width, so the masses fall where the gapped variants
    # assert that they rise
    radius = cutstack.Schedule.arrangement_radius
    monkeypatch.setattr(cutstack.Schedule, "arrangement_radius", lambda self, i: radius(self, i - (i >= 3)))
    for spec in [spec for spec in expcli.DEFAULT_VARIANTS if spec["c"] == "5"]:
        report = expcli.Report(config={})
        expcli.variant_suite(report, expcli.schedule_from_spec(spec), "v")
        (mass,) = [v for v in report.verdicts if v.name == "v/mass-increasing"]
        masses = [Fraction(m) for m in mass.details["masses"]]
        assert mass.status == "fail" and masses[2] < masses[1]


def test_planted_endomorphism_orbits_fail_bowen_isometry(monkeypatch):
    # the toral endomorphism in place of the translations: it stretches
    # orbits, so its separation counts exceed the u = 0 counts at every n >= 1
    endo = toys.ToralEndoAction()
    monkeypatch.setattr(toys.TranslationAction, "pair_bowen", lambda self, points, n: endo.pair_bowen(points, n))
    report = expcli.run_bowen(expcli.config_from_json({"kind": "bowen", "seed": 2024, "sample_size": 200}), n_list=(0, 1, 2, 4))
    (isometry,) = [v for v in report.verdicts if v.name == "bowen-isometry"]
    assert isometry.status == "fail"
    rows = [row for row in report.tables["bowen"] if row["action"] == "translation"]
    assert all((row["sep"] == row["sep_base"]) == (row["n"] == 0) for row in rows)


def test_distmat_memory_grows_with_the_sample_not_its_pairs(tmp_path, capsys):
    # at n = 3 each point's return-site set is small, so the 44,850 pairs of
    # 300 points would dominate: held as Fractions in a MetricSample plus one
    # dict per row they took 15 MiB; written one row at a time, under 1 MiB
    tracemalloc.start()
    try:
        assert cli.main(["distmat", "--sample-size", "300", "--n", "3", "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lines = (tmp_path / "distmat.csv").read_text().splitlines()
    assert lines[0] == "i,j,distance" and len(lines) == 1 + 300 * 299 // 2
    assert peak <= 2**20


def test_cover_at_windows_near_the_cell_cap_stays_small(tmp_path, capsys):
    # at n = 3353 each of the 20 points' windows holds 4,995,225 return sites, just
    # under GENERIC_CELL_CAP; as 2-D site sets they took about 395 MiB a point
    (tmp_path / "c.json").write_text(json.dumps({"kind": "cover", "scales": [3353], "sample_size": 20}))
    tracemalloc.start()
    try:
        code = cli.main(["cover", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    verdicts = json.loads((tmp_path / "o" / "report.json").read_text())["verdicts"]
    assert verdicts and all(v["status"] == "pass" for v in verdicts)
    assert peak < 64 * 2**20


def test_cover_past_the_cell_cap_still_exits_2(tmp_path, capsys):
    # the cells of Q_3400 are counted, since its box holds more sites than the cap, and refused
    (tmp_path / "c.json").write_text(json.dumps({"kind": "cover", "scales": [3400], "sample_size": 20}))
    assert cli.main(["cover", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "o")]) == 2
    assert "window Q_3400 holds 5139289 core cells" in capsys.readouterr().err


def _strict_json(data: bytes):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(data, parse_constant=refuse)


@pytest.mark.parametrize("command", sorted(expcli.COMMANDS))
def test_default_reports_are_strict_json(tmp_path, capsys, command):
    assert cli.main([command, "--out", str(tmp_path)]) == 0
    _strict_json((tmp_path / "report.json").read_bytes())


def _bench_kinds_commands() -> tuple:
    """The (kind, sample size) pairs of the benchmark's `kinds` workload, read from bench/worker.py."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "bench" / "worker.py").read_text())
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "KINDS_COMMANDS"]
    return ast.literal_eval(value)


@pytest.mark.parametrize(
    "argv", [["verify"], *([kind, "--sample-size", str(size)] for kind, size in _bench_kinds_commands())], ids=lambda argv: argv[0]
)
def test_reports_never_repeat_a_verdict_name(tmp_path, capsys, argv):
    # the benchmark's commands at its seed and sample sizes
    cli.main([*argv, "--seed", "2024", "--out", str(tmp_path)])
    names = [v["name"] for v in json.loads((tmp_path / "report.json").read_text())["verdicts"]]
    assert names and len(set(names)) == len(names), sorted(n for n in set(names) if names.count(n) > 1)


def test_recur_at_one_scale_writes_a_null_slope(tmp_path, capsys):
    # one sample has a limsup but no regression slope, which was written as a bare NaN
    (tmp_path / "c.json").write_text('{"kind": "recur", "scales": [5]}')
    assert cli.main(["recur", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "o")]) == 0
    exponents = _strict_json((tmp_path / "o" / "report.json").read_bytes())["exponents"]
    assert exponents["alpha_slope"] is None
    assert exponents["alpha_limsup"] > 0


def test_report_to_json_refuses_non_finite_floats():
    for value in (float("nan"), float("inf")):
        report = expcli.Report(config={})
        report.exponents["x"] = value
        with pytest.raises(ValueError):
            expcli.report_to_json(report)


def test_overlay_resolves_each_erasure_window_once(monkeypatch):
    # each erasure case builds its base name and overlay from one window
    calls = dict.fromkeys(("capped_window_axes", "name01"), 0)
    for name in calls:
        real = getattr(cutstack, name)

        def spy(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(cutstack, name, spy)
    report = expcli.run_overlay(expcli.config_from_json({"kind": "overlay", "sample_size": 300}))
    erasure = next(v for v in report.verdicts if v.name == "erasure-identity")
    assert erasure.status == "pass" and erasure.details == {"cases": 300, "failures": 0}
    assert calls == {"capped_window_axes": 300, "name01": 0}


def test_overlay_reads_one_letter_digest_per_row(letter_digests):
    # the 1,000 erasure cases at seed 2024 hold 115,184 sites in 9,278 rows,
    # and no window of radius <= 27 reaches past one 64-column block
    report = expcli.run_overlay(expcli.config_from_json({"kind": "overlay", "seed": 2024, "sample_size": 1000}))
    erasure = next(v for v in report.verdicts if v.name == "erasure-identity")
    assert erasure.status == "pass" and erasure.details == {"cases": 1000, "failures": 0}
    assert letter_digests["digests"] == 9278


def test_rerun_into_the_same_directory_writes_the_same_report(tmp_path, capsys):
    assert cli.main(["verify", "--out", str(tmp_path)]) == 0
    first = (tmp_path / "report.json").read_bytes()
    assert cli.main(["verify", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "report.json").read_bytes() == first
    assert json.loads((tmp_path / "timing.json").read_text())["runtime_seconds"] > 0


def test_overlay_refuses_samples_too_small_to_reach_the_target():
    with pytest.raises(UsageError, match="256"):
        expcli.run_overlay(expcli.config_from_json({"kind": "overlay", "sample_size": 255}))


@pytest.mark.parametrize("variant", range(3))
def test_stage2_census_matches_2d_oracle(variant):
    # the three variants whose 2-D census is cheap: 361, 3025 and 5329 positions
    sched = expcli.schedule_from_spec(expcli.DEFAULT_VARIANTS[variant])
    n = 2 * sched.r(2)
    census = expcli.stage2_recurrence_census(sched, n)
    assert census["positions"] == (361, 3025, 5329)[variant]
    assert census == brute_stage2_census(sched, n)


def test_run_experiment_rejects_unknown_kind():
    with pytest.raises(UsageError):
        expcli.run_experiment(
            expcli.ExperimentConfig(
                kind="nonsense",
                seed=2024,
                schedule_spec=dict(expcli.DEFAULT_SCHEDULE_SPEC),
                sample_size=50,
                scales=None,
                eps_list=("1/4", "1/8"),
            )
        )


def test_bench_layers_resolve():
    # the traced benchmark run wraps these by name; a rename must fail here
    path = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    names = layers.LIBRARY + layers.PHASES + [layers.MAIN] + [(m, q) for m, q, _ in layers.CLOSURES]
    for module, qualname in names:
        obj = importlib.import_module(module)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module, qualname)


def test_metric_axioms_hold_on_random_triples():
    assert random_axiom_violations(seed=2024, triples=2000) == {"symmetry": 0, "identity": 0, "triangle": 0}


@pytest.mark.parametrize("max_cells", [0, 1, 2, 4])
def test_site_type_counts_is_lazy_and_matches_recursion(max_cells):
    # a materialized census of 10,842 vectors costs about 5 MiB of peak memory
    steps = expcli.site_type_counts(expcli.SITE_TYPES, max_cells)
    assert inspect.isgenerator(steps)
    expected = list(recursive_site_type_counts(expcli.SITE_TYPES, max_cells))
    assert [counts for counts, *_ in steps] == expected
    assert len(expected) == {0: 1, 1: 24, 2: 272, 4: 10_842}[max_cells]


def test_site_type_counts_keys_the_pairs_of_each_triple():
    # the keys move with the loads in each odometer step; count them afresh per triple
    pair_keys = set()
    for counts, *keys in expcli.site_type_counts(expcli.SITE_TYPES, 4):
        a, b, c = census_triple(counts)
        assert keys == [pair_type_key(a, b), pair_type_key(a, c), pair_type_key(b, c)]
        pair_keys.update(keys)
    assert len(pair_keys) == 1_102


def test_census_triple_lays_out_sites_in_box_order():
    counts = list(range(1, 14))  # one site of the first type, two of the second, ...
    with pytest.raises(UsageError):
        census_triple(counts)
    counts = [0] * 13
    counts[0], counts[-1] = 2, 3
    a, b, c = census_triple(counts)
    sites = list(expcli.CENSUS_BOX.sites())[:5]
    assert expcli.SITE_TYPES[0] == (0, 0, 1) and expcli.SITE_TYPES[-1] == (1, 2, 2)
    assert a.cells == dict.fromkeys(sites[2:], 1)
    assert b.cells == dict.fromkeys(sites[2:], 2)
    assert c.cells == {**dict.fromkeys(sites[:2], 1), **dict.fromkeys(sites[2:], 2)}


def test_site_type_census_covers_random_triples():
    census = {counts for counts, *_ in expcli.site_type_counts(expcli.SITE_TYPES, 4)}
    assert len(census) == 10_842
    for i in range(500):
        triple = [random_pattern(11, tag, i) for tag in ("a", "b", "c")]
        counts = [0] * len(expcli.SITE_TYPES)
        for u in set().union(*(p.cells for p in triple)):
            t = tuple(p.cells.get(u, 0) for p in triple)
            if next(x for x in t if x) == 2:
                t = tuple(3 - x if x else 0 for x in t)
            counts[expcli.SITE_TYPES.index(t)] += 1
        assert tuple(counts) in census
        a, b, c = triple
        x, y, z = census_triple(counts)
        assert (pattern_distance(x, y), pattern_distance(y, z), pattern_distance(x, z)) == (
            pattern_distance(a, b),
            pattern_distance(b, c),
            pattern_distance(a, c),
        )
        assert (x == y) == (a == b)


def test_census_pair_lays_out_its_pair_type_key():
    # every key the census reads, laid out in box order, counts back to itself
    keys = {key for _, *pair_keys in expcli.site_type_counts(expcli.SITE_TYPES, 4) for key in pair_keys}
    for key in keys:
        p, q = expcli.census_pair(key)
        assert pair_type_key(p, q) == key
        support = p.cells.keys() | q.cells.keys()
        assert support == set(expcli.CENSUS_SITES[: len(support)])
    assert len(keys) == 1_102


def test_census_pair_stands_for_every_pair_of_its_key():
    # pairs placed anywhere on the 25 sites of Q_2; the census measures one
    # layout per key, so each pair must agree with the layout of its key
    for i in range(1000):
        p, q = (random_pattern(28, tag, i) for tag in ("p", "q"))
        x, y = expcli.census_pair(pair_type_key(p, q))
        assert (pattern_distance(x, y), pattern_distance(y, x)) == (pattern_distance(p, q), pattern_distance(q, p))
        assert (x == y) == (p == q)


def _halved_when_longer(a, b):
    # asymmetric: halves the distance when a has more cells than b
    d = pattern_distance(a, b)
    return d / 2 if len(a.cells) > len(b.cells) else d


def _squared(a, b):
    # symmetric, with the right identity, but d(a, c) can pass d(a, b) + d(b, c)
    return pattern_distance(a, b) ** 2


@pytest.mark.parametrize(
    "metric, q1_violations",
    [(pattern_distance, 0), (_halved_when_longer, 20_232), (_squared, 97_344)],
    ids=["real", "asymmetric", "squared"],
)
def test_metric_axiom_suite_census_matches_the_triple_by_triple_census(monkeypatch, metric, q1_violations):
    monkeypatch.setattr(lattice, "pattern_distance", metric)
    expected, stats = census_violations_by_triple(), expcli.metric_axiom_suite()
    assert {key: stats[key] for key in expected} == expected
    if metric is _halved_when_longer:
        assert expected["symmetry_violations"] > 0 and expected["triangle_violations"] > 0
    # the weighted one-symbol census against the ordered 130 x 130 x 130 block
    assert stats["exhaustive_triangle_violations"] == q1_triangle_violations_by_block() == q1_violations
    # each one-symbol count vector stands for its arrangements on the 9 sites of Q_1
    weights = q1_count_vector_weights(expcli.ONE_SYMBOL_TYPES)
    assert len(weights) == 436 and sum(weights.values()) == 130**3
    assert weights == {c: expcli.arrangements(c, 9) for c, *_ in expcli.site_type_counts(expcli.ONE_SYMBOL_TYPES, 3)}


def test_metric_axiom_suite_builds_each_pattern_and_repeated_pair_once(monkeypatch):
    # two patterns per pair type, each of the 1,102 pair types measured in
    # both orders; the Q_1 triples read only pair types already measured
    calls = {"patterns": 0, "distances": 0}
    post_init = lattice.Pattern.__post_init__

    def counted_post_init(self):
        calls["patterns"] += 1
        post_init(self)

    def counted_distance(a, b):
        calls["distances"] += 1
        return pattern_distance(a, b)

    monkeypatch.setattr(lattice.Pattern, "__post_init__", counted_post_init)
    monkeypatch.setattr(lattice, "pattern_distance", counted_distance)
    assert expcli.metric_axioms_hold(expcli.metric_axiom_suite())
    assert calls["patterns"] == 2 * 1_102 == 2_204
    assert calls["distances"] == 2 * 1_102 == 2_204


def test_metric_axiom_suite_never_holds_the_census():
    # the measured pair types fit well under the bound; a memo of every
    # pair, or the census as a list, does not
    tracemalloc.start()
    try:
        expcli.metric_axiom_suite()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * 2**20


def test_metric_axiom_pass_condition_counts_every_violation(monkeypatch):
    # run_metric_props and verify_all's global/metric-axioms share this predicate
    stats = expcli.metric_axiom_suite()
    assert expcli.metric_axioms_hold(stats)
    for key in ("symmetry_violations", "identity_violations", "triangle_violations", "exhaustive_triangle_violations"):
        assert not expcli.metric_axioms_hold({**stats, key: 1})
    monkeypatch.setattr(expcli, "metric_axiom_suite", lambda: {**stats, "identity_violations": 1})
    report = expcli.run_metric_props(expcli.config_from_json({"kind": "metric-props"}))
    assert [v.name for v in report.failed()] == ["metric-axioms"]


# asserted claims with a planted-defect test above, and the test that plants it
PLANTED = {
    "schedule-validates": test_verify_all_flags_broken_schedule,
    "decompose-roundtrip": test_planted_top_level_peel_defect_fails_roundtrip,
    "gamma1-count": test_planted_axis_traversal_defect_fails_gamma1_count,
    "gamma-star-product": test_planted_level_size_defect_fails_gamma_star_product,
    "metric-axioms": test_planted_symbol_blind_metric_fails_metric_axioms,
    "erasure-identity": test_planted_erasure_defect_fails_erasure_identity,
    "ratio-ergodic": test_planted_unthickened_provenance_fails_ratio_ergodic,
    "stage2-census": test_planted_decoder_shift_fails_stage2_census,
    "cover-sandwich": test_planted_greedy_undercount_fails_cover_sandwich,
    "gv-exhaustive": test_planted_wide_ball_fails_gv_exhaustive,
    "gv-sampled": test_planted_low_byte_draws_fail_gv_sampled,
    "mass-increasing": test_planted_lagging_stage_area_fails_mass_increasing,
    "alpha-vs-theta": test_planted_whole_window_count_fails_alpha_vs_theta,
    "gamma-exponent-vs-theta": test_planted_box_level_size_fails_gamma_exponent_vs_theta,
    "bowen-isometry": test_planted_endomorphism_orbits_fail_bowen_isometry,
}

# asserted claims that no planted defect turns to fail yet
UNPLANTED = {
    "rho-alpha-bound",
    "lipschitz-orbit-bound",
    "bowen-lipschitz-growth",
}


def test_planted_defects_cover_the_claim_table():
    asserted = {claim.key for claim in expcli.Claim if claim.invariant is not None}
    assert not PLANTED.keys() & UNPLANTED
    assert asserted == PLANTED.keys() | UNPLANTED
    for name, test in PLANTED.items():
        assert name in inspect.getsource(test), (name, test.__name__)
