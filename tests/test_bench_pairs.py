import argparse
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


# -- seeds --------------------------------------------------------------------


@pytest.mark.parametrize("text, seeds", [
    ("81-90", list(range(81, 91))),
    ("5-5", [5]),
    ("0-2", [0, 1, 2]),
])
def test_parse_seeds(text, seeds):
    assert bench_pairs.parse_seeds(text) == seeds


@pytest.mark.parametrize("text", ["90-81", "2-1", "abc", "5", "1-2-3", "", "a-b"])
def test_parse_seeds_rejects_empty_reversed_and_malformed(text):
    with pytest.raises(argparse.ArgumentTypeError):
        bench_pairs.parse_seeds(text)


def test_reversed_seed_range_is_an_argparse_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([str(tmp_path), str(tmp_path), "--workload", "deviate",
                          "--seeds", "90-81", "--out", str(tmp_path / "b.json")])
    assert exc.value.code == 2
    assert "--seeds" in capsys.readouterr().err
    assert not (tmp_path / "b.json").exists()


# -- checkouts --------------------------------------------------------------------


def test_git_head_is_none_outside_a_checkout_root(tmp_path):
    assert bench_pairs.git_head(tmp_path) is None
    sub = tmp_path / "repo"
    sub.mkdir()
    subprocess.run(["git", "init", "-q"], cwd=sub, check=True)
    assert bench_pairs.git_head(sub) is None  # no commit yet
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                    "commit", "-q", "--allow-empty", "-m", "x"],
                   cwd=sub, check=True)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=sub, check=True,
                          capture_output=True, text=True).stdout.strip()
    assert bench_pairs.git_head(sub) == head
    (sub / "inner").mkdir()
    assert bench_pairs.git_head(sub / "inner") is None


# -- summary --------------------------------------------------------------------


def _pairs(parent, change, name, unit="s"):
    return [{side: {"metrics": {name: {"value": v, "unit": unit}}}
             for side, v in (("parent", p), ("change", c))}
            for p, c in zip(parent, change)]


def test_summarize_lower_is_better():
    parent = [10.0, 12.0, 11.0, 13.0, 14.0]
    change = [9.0, 12.5, 8.0, 9.5, 10.0]
    m = bench_pairs.summarize(_pairs(parent, change, "pass_s"),
                              {"pass_s": "lower"})["pass_s"]
    assert m["better"] == "lower" and m["unit"] == "s"
    assert m["change_wins"] == 4 and m["pairs"] == 5  # 12.5 > 12.0 loses
    # statistics.quantiles' default (exclusive) method
    assert m["parent"] == {"median": 12.0, "q1": 10.5, "q3": 13.5}
    assert m["change"] == {"median": 9.5, "q1": 8.5, "q3": 11.25}
    assert m["median_change"] == pytest.approx(9.5 / 12.0 - 1.0)
    assert m["median_gain_over_parent_iqr"] == pytest.approx(2.5 / 3.0)


def test_summarize_higher_is_better():
    parent = [100.0, 110.0, 105.0, 95.0]
    change = [120.0, 100.0, 130.0, 125.0]
    m = bench_pairs.summarize(_pairs(parent, change, "trials_per_s", "1/s"),
                              {"trials_per_s": "higher"})["trials_per_s"]
    assert m["better"] == "higher"
    assert m["change_wins"] == 3  # 100 < 110 loses
    assert m["parent"] == {"median": 102.5, "q1": 96.25, "q3": 108.75}
    assert m["median_change"] == pytest.approx(122.5 / 102.5 - 1.0)
    # a rise is a gain for this metric
    assert m["median_gain_over_parent_iqr"] == pytest.approx(20.0 / 12.5)


def test_summarize_worse_change_and_flat_parent():
    m = bench_pairs.summarize(_pairs([1.0, 1.0, 1.0], [2.0, 2.0, 0.5], "x"),
                              {})["x"]
    assert m["better"] == "lower"  # the default
    assert m["change_wins"] == 1
    assert m["median_change"] == pytest.approx(1.0)
    assert m["median_gain_over_parent_iqr"] is None  # zero parent IQR
    one = bench_pairs.summarize(_pairs([3.0], [2.0], "x"), {})["x"]
    assert one["parent"] == {"median": 3.0, "q1": 3.0, "q3": 3.0}
    assert one["change_wins"] == 1


# -- record --------------------------------------------------------------------


_BENCH = {"workloads": [{"name": "deviate"}, {"name": "match_map"}],
          "end_to_end": [{"name": "pass_s", "better": "lower"}]}


def test_record_keeps_the_finished_pairs_when_a_run_fails(tmp_path,
                                                          monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(_BENCH))
    out = tmp_path / "b.json"
    calls = []

    def run_once(checkout, workload, seed):
        calls.append((workload, seed))
        code = 1 if len(calls) == 5 else 0
        return {"metrics": {"pass_s": {"value": float(len(calls)),
                                       "unit": "s"}},
                "failed": 0, "attempted": 3, "exit_code": code}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main([str(tmp_path), str(tmp_path), "--workload",
                             "deviate", "--seeds", "1-4", "--out", str(out)]) == 1
    assert "seeds 3" in capsys.readouterr().err
    assert len(calls) == 8  # the record went on after the failed run
    entry = json.loads(out.read_text())["workloads"]["deviate"]
    # pair 1 ran parent then change (1, 2); pair 2 change then parent (3, 4);
    # pair 3's parent run (5) exited 1; pair 4 ran change then parent (7, 8)
    assert entry["seeds"] == [1, 2, 4]
    assert [p["first"] for p in entry["pairs"]] == ["parent", "change", "change"]
    [failed] = entry["failed_pairs"]
    assert failed["seed"] == 3 and failed["first"] == "parent"
    assert (failed["parent"]["exit_code"], failed["change"]["exit_code"]) == (1, 0)
    assert entry["metrics"]["pass_s"]["pairs"] == 3
    assert entry["metrics"]["pass_s"]["change_wins"] == 2  # 3 < 4, 7 < 8
    assert entry["metrics"]["pass_s"]["parent"]["median"] == 4.0  # 1, 4, 8
    assert entry["attempted"] == {"parent": [3, 3, 3], "change": [3, 3, 3]}
    assert not (tmp_path / "b.json.tmp").exists()


def test_a_record_with_no_clean_pair_has_empty_summaries(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(_BENCH))
    out = tmp_path / "b.json"
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda checkout, workload, seed: {"exit_code": 1})
    assert bench_pairs.main([str(tmp_path), str(tmp_path), "--workload",
                             "deviate", "--seeds", "5-6", "--out", str(out)]) == 1
    entry = json.loads(out.read_text())["workloads"]["deviate"]
    assert entry["seeds"] == [] and entry["metrics"] == {}
    assert [p["seed"] for p in entry["failed_pairs"]] == [5, 6]


def test_a_workload_the_benchmark_does_not_name_is_an_argparse_error(
        tmp_path, capsys, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(_BENCH))
    monkeypatch.setattr(bench_pairs, "run_once", None)  # never reached
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([str(tmp_path), str(tmp_path), "--workload", "devaite",
                          "--seeds", "1-2", "--out", str(tmp_path / "b.json")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--workload" in err and "'devaite'" in err and "match_map" in err
    assert not (tmp_path / "b.json").exists()


# -- measured times --------------------------------------------------------------


_STDOUT = """deviate: 208 operations attempted, 0 failed, 13 passes
deviate/measured/kernel_ms 1.22016
deviate/measured/op_p50_ms 91.0769
deviate/measured/pass_s 1.50738
deviate/measured/setup_s 0.279351
deviate/op_p50_ms 114.815 ms
deviate/pass_s 1.81331 s
{"correct": true, "attempted": 208, "failed": 0, "metrics": {"pass_s": {"value": 1.81331, "unit": "s"}}}
"""


def test_measured_lines_keep_the_unscaled_times_with_their_units():
    got = bench_pairs.measured_lines(_STDOUT.splitlines(), "deviate")
    assert got == {"kernel_ms": {"value": 1.22016, "unit": "ms"},
                   "op_p50_ms": {"value": 91.0769, "unit": "ms"},
                   "pass_s": {"value": 1.50738, "unit": "s"},
                   "setup_s": {"value": 0.279351, "unit": "s"}}
    assert bench_pairs.measured_lines(_STDOUT.splitlines(), "match_map") == {}


def test_run_once_reads_the_summary_and_the_measured_lines(tmp_path):
    (tmp_path / "jambench").mkdir()
    (tmp_path / "jambench" / "run.py").write_text(
        f"import sys\nassert sys.argv[1:] == ['--workload', 'deviate', "
        f"'--seed', '7', '--trace', '0']\nprint({_STDOUT!r}, end='')\n")
    got = bench_pairs.run_once(tmp_path, "deviate", 7)
    assert got["exit_code"] == 0
    assert got["attempted"] == 208
    assert got["metrics"] == {"pass_s": {"value": 1.81331, "unit": "s"}}
    assert got["measured"]["pass_s"] == {"value": 1.50738, "unit": "s"}
    assert sorted(got["measured"]) == ["kernel_ms", "op_p50_ms", "pass_s",
                                       "setup_s"]


@pytest.mark.parametrize("code, tail", [
    (1, "print({_STDOUT!r}, end='')\nsys.exit(1)\n"),
    (3, "sys.exit(3)\n"),
    (1, "raise RuntimeError('worker exited with 1')\n"),
], ids=["failed-check", "no-output", "crash"])
def test_run_once_keeps_the_exit_code_of_a_failed_run(tmp_path, code, tail):
    (tmp_path / "jambench").mkdir()
    (tmp_path / "jambench" / "run.py").write_text(
        "import sys\n" + tail.format(_STDOUT=_STDOUT))
    got = bench_pairs.run_once(tmp_path, "deviate", 7)
    assert got["exit_code"] == code
    if "print" in tail:
        assert got["attempted"] == 208
        assert got["measured"]["pass_s"]["value"] == 1.50738
    else:
        assert got == {"exit_code": code}


def test_record_summarizes_measured_times_beside_the_scaled_ones(tmp_path,
                                                                 monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(_BENCH))
    out = tmp_path / "b.json"
    runs = iter([(2.0, 1.5, 1.0), (1.8, 1.2, 1.1),    # seed 1: parent, change
                 (1.9, 1.4, 1.3), (2.1, 1.6, 1.2)])   # seed 2: change, parent

    def run_once(checkout, workload, seed):
        scaled, measured, kernel = next(runs)
        return {"metrics": {"pass_s": {"value": scaled, "unit": "s"}},
                "measured": {"pass_s": {"value": measured, "unit": "s"},
                             "kernel_ms": {"value": kernel, "unit": "ms"}},
                "failed": 0, "attempted": 3, "exit_code": 0}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main([str(tmp_path), str(tmp_path), "--workload",
                             "deviate", "--seeds", "1-2", "--out", str(out)]) == 0
    entry = json.loads(out.read_text())["workloads"]["deviate"]
    assert entry["metrics"]["pass_s"]["parent"]["median"] == pytest.approx(2.05)
    assert entry["metrics"]["pass_s"]["change"]["median"] == pytest.approx(1.85)
    measured = entry["measured"]
    assert sorted(measured) == ["kernel_ms", "pass_s"]
    assert measured["pass_s"]["parent"]["median"] == pytest.approx(1.55)
    assert measured["pass_s"]["change"]["median"] == pytest.approx(1.3)
    assert measured["pass_s"]["change_wins"] == 2
    assert measured["kernel_ms"]["unit"] == "ms"
    assert measured["kernel_ms"]["change_wins"] == 0  # 1.1 > 1.0, 1.3 > 1.2
