from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rumorsim
from rumorsim import cli, exact_fully_random
from rumorsim.cli import main
from rumorsim.harness import CONFIG_KEYS


def run_cli(*argv: str) -> int:
    return main(list(argv))


class TestSim:
    def test_flags_only(self, capsys):
        code = run_cli(
            "sim", "--protocol", "quasi", "--topology", "complete",
            "--n", "8", "--p", "1.0", "--trials", "5", "--seed", "1",
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "trials=5" in out
        assert "completed=1.0000" in out

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# complete graph run\n"
            "protocol=quasi\n"
            "topology=complete\n"
            "n=8\n"
            "p=1.0\n"
            "trials=2\n"
            "seed=1\n"
        )
        code = run_cli("sim", "--config", str(cfg), "--trials", "9")
        out = capsys.readouterr().out
        assert code == 0
        assert "trials=9" in out

    def test_outputs_written(self, tmp_path, capsys):
        out_csv = tmp_path / "r.csv"
        out_json = tmp_path / "s.json"
        code = run_cli(
            "sim", "--n", "4", "--p", "1.0", "--trials", "3",
            "--out", str(out_csv), "--summary", str(out_json),
        )
        assert code == 0
        assert out_csv.read_text().splitlines()[0] == "trial,start_vertex,rounds,completed"
        assert json.loads(out_json.read_text())["trials"] == 3

    def test_summary_is_strict_json_when_no_trial_completes(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        code = run_cli(
            "sim", "--n", "50", "--p", "0.5", "--trials", "3", "--max-rounds", "2",
            "--summary", str(path),
        )
        assert code == 0
        assert "mean=nan" in capsys.readouterr().out

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        d = json.loads(path.read_text(), parse_constant=reject)
        assert d["completion_rate"] == 0.0
        assert [d[k] for k in ("min", "mean", "median", "p95", "max")] == [None] * 5

    def test_device_outputs_keep_stdout(self, capsys):
        argv = ("sim", "--n", "9", "--p", "0.6", "--trials", "20", "--seed", "5")
        assert run_cli(*argv) == 0
        plain = capsys.readouterr().out
        assert run_cli(*argv, "--out", os.devnull, "--summary", os.devnull) == 0
        assert capsys.readouterr().out == plain


class _Built(Exception):
    """Raised by the stand-in run_experiment to hand the parsed config back."""


def built_config(monkeypatch, *argv: str):
    def capture(config):
        raise _Built(config)

    monkeypatch.setattr("rumorsim.cli.run_experiment", capture)
    with pytest.raises(_Built) as info:
        run_cli("sim", *argv)
    return info.value.args[0]


class TestConfigKeys:
    # key, value as text, ExperimentConfig field, parsed value, keys it needs
    CASES = [
        ("protocol", "feedback", "protocol", "feedback", {}),
        ("topology", "star", "topology", "star", {"n": "5"}),
        ("n", "7", "n", 7, {}),
        ("p", "0.25", "p", 0.25, {}),
        ("trials", "3", "trials", 3, {}),
        ("seed", "11", "seed", 11, {}),
        ("lists", "reversed", "lists", "reversed", {}),
        ("list_seed", "4", "list_seed", 4, {}),
        ("lists_path", "rows.txt", "lists_path", "rows.txt", {}),
        ("start", "sweep", "start", "sweep", {}),
        ("max_rounds", "9", "max_rounds", 9, {}),
        ("schedule", "s.txt", "schedule_path", "s.txt", {"protocol": "delayed"}),
        ("out", "r.csv", "out_path", "r.csv", {}),
        ("summary", "s.json", "summary_path", "s.json", {}),
    ]

    @pytest.mark.parametrize("key, text, field, value, needs", CASES, ids=[c[0] for c in CASES])
    def test_flag_and_file_line_agree(self, key, text, field, value, needs, tmp_path, monkeypatch):
        pairs = {key: text, **needs}
        flags = [arg for k, v in pairs.items() for arg in (f"--{k.replace('_', '-')}", v)]
        from_flags = built_config(monkeypatch, *flags)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in pairs.items()))
        from_file = built_config(monkeypatch, "--config", str(cfg))
        for built in (from_flags, from_file):
            assert getattr(built, field) == value
            assert type(getattr(built, field)) is type(value)
        assert from_flags == from_file


class TestExitCodes:
    def test_invalid_value_is_one(self, capsys):
        assert run_cli("sim", "--n", "0", "--p", "1.0") == 1
        assert "n:" in capsys.readouterr().err

    def test_bad_usage_is_one(self, capsys):
        assert run_cli("sim", "--protocol", "smoke") == 1

    def test_unknown_config_key_is_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("velocity=9\n")
        assert run_cli("sim", "--config", str(cfg)) == 1
        assert "velocity" in capsys.readouterr().err

    def test_malformed_config_line_is_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just a line\n")
        assert run_cli("sim", "--config", str(cfg)) == 1

    def test_bad_lists_entry_names_its_line(self, tmp_path, capsys):
        rows = tmp_path / "rows.txt"
        rows.write_text("# vertex 0 first\n1,2\n0,x\n0,1\n")
        code = run_cli(
            "sim", "--n", "3", "--lists", "file", "--lists-path", str(rows),
        )
        assert code == 1
        assert f"{rows}:3: " in capsys.readouterr().err

    def test_lists_entry_beyond_int64_names_its_line(self, tmp_path, capsys):
        rows = tmp_path / "rows.txt"
        rows.write_text("0,99999999999999999999999\n0,2\n0,1\n")
        code = run_cli(
            "sim", "--n", "3", "--lists", "file", "--lists-path", str(rows),
        )
        assert code == 1
        assert f"{rows}:1: " in capsys.readouterr().err

    def test_table_over_the_cap_names_lists_n_and_the_cap(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert run_cli("sim", "--n", "9000", "--lists", "random", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: lists: ") and "Traceback" not in err
        assert "n=9000" in err and str(1 << 26) in err
        assert not out.exists()

    def test_negative_phase_length_names_its_line(self, tmp_path, capsys):
        sched = tmp_path / "s.txt"
        sched.write_text("busy,4\nlazy,-1\n")
        assert run_cli("phases", "--n", "4", "--schedule", str(sched)) == 1
        assert "schedule line 2:" in capsys.readouterr().err

    def test_undecodable_schedule_file_names_its_path(self, tmp_path, capsys):
        sched = tmp_path / "s.bin"
        sched.write_bytes(b"busy,4\n\xff\xfe\n")
        assert run_cli("phases", "--n", "4", "--schedule", str(sched)) == 1
        assert f"error: {sched}: 'utf-8' codec can't decode" in capsys.readouterr().err

    def test_undecodable_config_file_names_its_path(self, tmp_path, capsys):
        cfg = tmp_path / "exp.bin"
        cfg.write_bytes(b"n=4\n\xff=1\n")
        assert run_cli("sim", "--config", str(cfg)) == 1
        assert f"error: {cfg}: 'utf-8' codec can't decode" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ("sim", "--n", "3"),
        ("oracle", "--protocol", "quasi", "--n", "3", "--p", "0.5", "--horizon", "4"),
    ])
    def test_undecodable_lists_file_names_its_path(self, command, tmp_path, capsys):
        rows = tmp_path / "rows.bin"
        rows.write_bytes(b"1,2\n0,\xff\n0,1\n")
        assert run_cli(*command, "--lists", "file", "--lists-path", str(rows)) == 1
        assert f"error: {rows}: 'utf-8' codec can't decode" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ("sim", "--n", "5", "--trials", "2"),
        ("phases", "--n", "5", "--schedule", "{schedule}"),
        ("phases", "--print-theoretical", "--n", "100"),
        ("bounds", "--n", "5", "--eps", "0.1", "--summary", "{summary}"),
    ])
    def test_law_past_double_range_names_p(self, command, tmp_path, capsys):
        sched, summary = tmp_path / "s.txt", tmp_path / "b.json"
        sched.write_text("busy,4\n")
        argv = [a.format(schedule=sched, summary=summary) for a in command]
        assert run_cli(*argv, "--p", "5e-324") == 1
        assert "is not finite at success probability p=5e-324" in capsys.readouterr().err
        assert not summary.exists()

    def test_missing_config_file_is_two(self, capsys):
        assert run_cli("sim", "--config", "/nonexistent/exp.cfg") == 2
        assert "i/o error" in capsys.readouterr().err

    def test_unallocatable_n_is_one(self, capsys):
        # 2**62 one-byte cells exceed every address space: the allocation cannot succeed
        assert run_cli("sim", "--n", str(2**62), "--p", "0.5") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: n: ") and "Traceback" not in err

    @pytest.mark.parametrize("trials", [10**15, 2**62, 10**20])
    def test_unallocatable_trials_is_one(self, trials, capsys):
        # petabytes of trial columns, or more than an array can index: the
        # allocation cannot succeed
        assert run_cli("sim", "--n", "3", "--p", "0.5", "--trials", str(trials)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: trials: ") and "Traceback" not in err

    def test_directory_as_output_is_two_and_names_it(self, tmp_path, capsys):
        code = run_cli("sim", "--n", "4", "--p", "1.0", "--trials", "1", "--out", str(tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("i/o error") and str(tmp_path) in err

    def test_unwritable_output_is_two(self, capsys):
        code = run_cli(
            "sim", "--n", "4", "--p", "1.0", "--trials", "1",
            "--out", "/nonexistent/dir/r.csv",
        )
        assert code == 2


def _file_contents(record):
    """Arbitrary text or bytes, or lines mixing a format's records with text."""
    lines = st.lists(st.one_of(record, st.text(max_size=20)), max_size=6).map("\n".join)
    return st.one_of(st.text(), st.binary(), lines)


_INPUT_FILES = {  # what a file holds, and the command line that reads it as {path}
    "config": (
        _file_contents(st.builds(
            "{}={}".format,
            st.sampled_from(sorted(CONFIG_KEYS)),
            st.one_of(st.text(max_size=12), st.integers(-2, 2**70).map(str),
                      st.floats().map(str), st.sampled_from(["quasi", "delayed", "star", "file"])),
        )),
        # the flags fix a small run, and its outputs, whatever the file says
        ("sim", "--config", "{path}", "--n", "4", "--trials", "2", "--max-rounds", "40",
         "--out", "{dir}/r.csv", "--summary", "{dir}/s.json"),
    ),
    "schedule": (
        _file_contents(st.builds(
            "{},{}".format,
            st.one_of(st.sampled_from(["lazy", "busy", "BUSY"]), st.text(max_size=5)),
            st.one_of(st.integers(-2, 2**70).map(str), st.text(max_size=5)),
        )),
        ("phases", "--schedule", "{path}", "--n", "4", "--trials", "2"),
    ),
    "lists": (
        _file_contents(st.lists(
            st.one_of(st.integers(-2, 5).map(str), st.text(max_size=3)), max_size=5,
        ).map(",".join)),
        ("sim", "--lists", "file", "--lists-path", "{path}", "--n", "4", "--trials", "2"),
    ),
}


@pytest.mark.parametrize("kind", sorted(_INPUT_FILES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_any_input_file_gives_an_exit_code(kind, data):
    contents, command = _INPUT_FILES[kind]
    blob = data.draw(contents)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        if isinstance(blob, bytes):
            path.write_bytes(blob)
        else:
            path.write_text(blob)
        argv = [arg.format(path=path, dir=tmp) for arg in command]
        assert run_cli(*argv) in (0, 1, 2, 3)


# blank, whitespace-only, # and indented-# lines, then a malformed record on line 5
_SKIPPED = "\n# a comment\n   # an indented comment\n \t\n"


@pytest.mark.parametrize("kind, record, rest, where", [
    ("config", "no pair here", "", "{path}:5: expected key=value"),
    ("schedule", "lazy", "busy,3\n", "schedule line 5: expected 'kind,length'"),
    ("lists", "1,x,3", "0,2,3\n# between\n0,1,3\n0,1,2\n", "{path}:5: invalid literal"),
])
def test_input_files_skip_the_same_lines_and_count_every_line(
    kind, record, rest, where, tmp_path, capsys
):
    path = tmp_path / "input"
    path.write_text(_SKIPPED + record + "\n" + rest)
    command = _INPUT_FILES[kind][1]
    assert run_cli(*[arg.format(path=path, dir=tmp_path) for arg in command]) == 1
    assert where.format(path=path) in capsys.readouterr().err


class TestBounds:
    def test_prints_report(self, capsys):
        code = run_cli("bounds", "--n", "4096", "--p", "0.5", "--eps", "0.2")
        out = capsys.readouterr().out
        assert code == 0
        assert "n=4096" in out
        assert "lower=" in out and "upper=" in out and "slowdown=" in out

    def test_summary_json(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        run_cli("bounds", "--n", "64", "--p", "1.0", "--eps", "0.1", "--summary", str(path))
        d = json.loads(path.read_text())
        assert d["n"] == 64
        assert d["lower"] < d["upper"]


    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_eps_is_one(self, eps, capsys):
        assert run_cli("bounds", "--n", "64", "--p", "0.5", "--eps", eps) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "eps" in captured.err


class TestOracle:
    def test_csv_matches_module(self, capsys):
        code = run_cli(
            "oracle", "--protocol", "random", "--n", "4", "--p", "0.6", "--horizon", "6",
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,probability"
        dist = exact_fully_random(4, 0.6, 6)
        for t in range(7):
            label, val = lines[1 + t].split(",")
            assert int(label) == t
            assert float(val) == pytest.approx(dist.prob(t), rel=1e-15)
        tail_label, tail_val = lines[-1].split(",")
        assert tail_label == "tail"
        assert float(tail_val) == pytest.approx(dist.tail, rel=1e-12)

    def test_quasi_to_file(self, tmp_path):
        path = tmp_path / "o.csv"
        code = run_cli(
            "oracle", "--protocol", "quasi", "--n", "4", "--p", "1.0",
            "--horizon", "5", "--out", str(path),
        )
        assert code == 0
        rows = dict(line.split(",") for line in path.read_text().splitlines()[1:])
        assert float(rows["2"]) == pytest.approx(1 / 3)
        assert float(rows["3"]) == pytest.approx(2 / 3)

    def test_out_over_a_longer_file_equals_stdout(self, tmp_path, capsys):
        argv = ("oracle", "--protocol", "random", "--n", "4", "--p", "0.6", "--horizon", "6")
        assert run_cli(*argv) == 0
        text = capsys.readouterr().out
        path = tmp_path / "o.csv"
        path.write_text("9,0.5\n" * 500)
        assert run_cli(*argv, "--out", str(path)) == 0
        assert path.read_text() == text

    def test_out_of_range_is_one(self, capsys):
        code = run_cli(
            "oracle", "--protocol", "quasi", "--n", "12", "--p", "0.5", "--horizon", "4",
        )
        assert code == 1

    def test_random_on_star_is_one(self, capsys):
        code = run_cli(
            "oracle", "--protocol", "random", "--topology", "star",
            "--n", "5", "--p", "1.0", "--horizon", "8",
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "topology" in captured.err


class TestPhases:
    def test_runs_schedule_file(self, tmp_path, capsys):
        sched = tmp_path / "s.txt"
        sched.write_text("busy,40\n")
        code = run_cli(
            "phases", "--n", "16", "--p", "1.0", "--trials", "2",
            "--schedule", str(sched),
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "completed=1.0000" in out
        assert "phase 0 busy" in out

    def test_print_theoretical(self, capsys):
        code = run_cli("phases", "--print-theoretical", "--n", "4096", "--p", "1.0", "--eps", "0.5")
        out = capsys.readouterr().out
        assert code == 0
        assert "k=6" in out
        assert "feasible=" in out

    def test_print_theoretical_elides_phases_past_the_eighth(self, capsys):
        code = run_cli(
            "phases", "--print-theoretical", "--n", "1000000", "--p", "1", "--eps", "0.5"
        )
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[1] == "feasible=false phases=9"
        assert len(out) == 2 + 8 + 1 and out[-1] == "  ... 1 more"  # eight phases shown

    def test_print_theoretical_needs_parameters(self, capsys):
        assert run_cli("phases", "--print-theoretical") == 1

    def test_print_theoretical_overflow_names_the_parameters(self, capsys):
        code = run_cli(
            "phases", "--print-theoretical", "--n", "4096", "--p", "1e-3", "--eps", "0.01"
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "n=4096, p=0.001, eps=0.01" in err


class TestCheck:
    def test_pass_is_zero(self, capsys):
        code = run_cli(
            "check", "--protocol", "random", "--n", "128", "--p", "0.5",
            "--trials", "60", "--seed", "4", "--eps", "0.99",
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "passed=true" in out

    def test_fail_is_three(self, capsys):
        code = run_cli(
            "check", "--protocol", "random", "--n", "128", "--p", "0.5",
            "--trials", "10", "--seed", "4", "--max-rounds", "2", "--eps", "0.99",
        )
        out = capsys.readouterr().out
        assert code == 3
        assert "passed=false" in out


    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_eps_is_one(self, eps, capsys):
        code = run_cli("check", "--n", "10", "--p", "0.5", "--eps", eps, "--trials", "3")
        captured = capsys.readouterr()
        assert code == 1
        assert "passed=" not in captured.out
        assert "eps" in captured.err


class TestCompare:
    def test_same_config_twice_gives_unit_ratio(self, tmp_path, capsys):
        cfg = tmp_path / "arm.cfg"
        cfg.write_text("protocol=random\nn=32\np=0.5\ntrials=40\nseed=7\n")
        summary = tmp_path / "cmp.json"
        code = run_cli(
            "compare", "--config-a", str(cfg), "--config-b", str(cfg),
            "--summary", str(summary),
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "median_ratio=1.0000" in out
        d = json.loads(summary.read_text())
        assert d["ratio"]["mean"] == 1.0


def test_console_script_entry_point():
    # the child imports the same rumorsim as this process, installed or not
    env = {**os.environ, "PYTHONPATH": str(Path(rumorsim.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "rumorsim.cli", "bounds", "--n", "16", "--p", "1.0", "--eps", "0.1"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "n=16" in proc.stdout


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys):
    # a valid sim, a call that raises ConfigError, the sim again: each gives
    # the bytes and exit code of a call on a freshly built parser
    out, summary = tmp_path / "r.csv", tmp_path / "s.json"
    sim = ("sim", "--protocol", "random", "--n", "9", "--p", "0.6", "--trials", "30",
           "--seed", "4", "--out", str(out), "--summary", str(summary))
    calls = [sim, ("sim", "--n", "0"), sim]

    def outcome(argv):
        code = run_cli(*argv)
        captured = capsys.readouterr()
        files = [path.read_bytes() if path.exists() else None for path in (out, summary)]
        return code, captured.out, captured.err, files

    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(outcome(argv))
    parser = cli._parser()
    assert [outcome(argv) for argv in calls] == fresh
    assert cli._parser() is parser
    assert [code for code, *_ in fresh] == [0, 1, 0]
