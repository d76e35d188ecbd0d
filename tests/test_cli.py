import json
import os

import pytest

from chainlat.cli import EXIT_INVALID, EXIT_OK, EXIT_UNSAFE, main


def _read_all(outdir):
    out = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_generate_writes_expected_files(tmp_path):
    out = tmp_path / "w"
    rc = main(["generate", "--seed", "1", "--cores", "2", "--tasks-per-chain", "2",
               "--output", str(out)])
    assert rc == EXIT_OK
    names = sorted(os.listdir(out))
    assert "system.json" in names
    assert [n for n in names if n.startswith("chain_")] == ["chain_c0.json", "chain_c1.json"]
    assert len([n for n in names if n.startswith("task_")]) == 4
    assert "manifest.json" in names


def test_generate_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["generate", "--seed", "7", "--cores", "2", "--output"]
    assert main(args + [str(a)]) == EXIT_OK
    assert main(args + [str(b)]) == EXIT_OK
    assert _read_all(a) == _read_all(b)


def test_generate_rejects_tasks_per_chain_3(tmp_path, capsys):
    rc = main(["generate", "--seed", "1", "--tasks-per-chain", "3", "--output", str(tmp_path / "x")])
    assert rc == EXIT_INVALID


def _generated(tmp_path, seed="3"):
    out = tmp_path / ("w%s" % seed)
    main(["generate", "--seed", seed, "--cores", "2", "--output", str(out)])
    tasks = sorted(str(out / n) for n in os.listdir(out) if n.startswith("task_"))
    chains = sorted(str(out / n) for n in os.listdir(out) if n.startswith("chain_"))
    return str(out / "system.json"), tasks, chains


def test_analyze_all_modes(tmp_path):
    system, tasks, chains = _generated(tmp_path)
    out = tmp_path / "rep"
    rc = main(["analyze", "--system", system, "--tasks"] + tasks +
              ["--chains"] + chains + ["--mode", "all", "--output", str(out)])
    assert rc == EXIT_OK
    doc = json.loads((out / "report.json").read_text())
    for chain in doc["chains"]:
        assert set(chain["modes"]) == {"TSC", "TLT", "NCT"}
        assert chain["modes"]["TSC"]["rmel"] is not None
    csv_text = (out / "report.csv").read_text()
    assert csv_text.count("\n") == 1 + 3 * len(doc["chains"])


def test_analyze_single_mode_has_no_rmel(tmp_path):
    system, tasks, chains = _generated(tmp_path)
    out = tmp_path / "rep1"
    rc = main(["analyze", "--system", system, "--tasks"] + tasks +
              ["--chains"] + chains + ["--mode", "tsc", "--output", str(out)])
    assert rc == EXIT_OK
    doc = json.loads((out / "report.json").read_text())
    for chain in doc["chains"]:
        assert set(chain["modes"]) == {"TSC"}
        assert chain["modes"]["TSC"]["rmel"] is None


def test_analyze_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    rc = main(["analyze", "--system", str(bad), "--tasks", str(bad),
               "--chains", str(bad), "--output", str(tmp_path / "rep")])
    assert rc == EXIT_INVALID
    assert "bad.json" in capsys.readouterr().err


def test_analyze_deterministic_across_jobs(tmp_path):
    system, tasks, chains = _generated(tmp_path)
    outs = []
    for jobs in ("1", "8"):
        out = tmp_path / ("rep_j%s" % jobs)
        rc = main(["analyze", "--system", system, "--tasks"] + tasks +
                  ["--chains"] + chains + ["--jobs", jobs, "--output", str(out)])
        assert rc == EXIT_OK
        outs.append((out / "report.json").read_bytes() + (out / "report.csv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("flag,value", [("--passes", "-1"), ("--passes", "0"), ("--jobs", "-3")])
def test_analyze_rejects_non_positive_counts(tmp_path, capsys, flag, value):
    system, tasks, chains = _generated(tmp_path)
    capsys.readouterr()
    rc = main(["analyze", "--system", system, "--tasks"] + tasks + ["--chains"] + chains +
              [flag, value, "--output", str(tmp_path / "rep")])
    assert rc == EXIT_INVALID
    assert "argument %s: must be >= 1" % flag in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("flag", ["--jobs", "--seeds"])
def test_verify_rejects_non_positive_counts(capsys, flag):
    rc = main(["verify", flag, "0"])
    assert rc == EXIT_INVALID
    assert "argument %s: must be >= 1" % flag in capsys.readouterr().err


def test_analyze_debug_dumps(tmp_path):
    system, tasks, chains = _generated(tmp_path)
    out = tmp_path / "dbg"
    rc = main(["analyze", "--system", system, "--tasks"] + tasks +
              ["--chains"] + chains + ["--debug-dumps", "--simulate-hit-ratio",
               "--output", str(out)])
    assert rc == EXIT_OK
    names = set(os.listdir(out))
    assert {"contexts.csv", "interference.csv", "trace.csv"} <= names
    assert any(n.startswith("classification_") for n in names)
    header = (out / "interference.csv").read_text().splitlines()[0]
    assert header == "chain,period,task,access,set,raw_sum,after_mwis,final"


def test_verify_small_run_passes(capsys):
    rc = main(["verify", "--seeds", "2", "--paths-per-job", "3", "--sim-policy", "both"])
    assert rc == EXIT_OK
    assert "0 violations / 2 bundles" in capsys.readouterr().out


def test_verify_rejects_zero_seeds(capsys):
    rc = main(["verify", "--seeds", "0"])
    assert rc == EXIT_INVALID


def test_verify_detects_injected_mc_fault(capsys):
    rc = main(["verify", "--seeds", "3", "--paths-per-job", "4",
               "--collision", "0.8", "--inject-fault", "mc"])
    assert rc == EXIT_UNSAFE


def test_verify_detects_injected_context_fault(capsys):
    rc = main(["verify", "--seeds", "2", "--paths-per-job", "3",
               "--inject-fault", "context"])
    assert rc == EXIT_UNSAFE


def test_version_flag(capsys):
    rc = main(["--version"])
    assert rc == 0
