"""The CLI and the example scripts must stay runnable."""

import pathlib
import runpy
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES = REPO / "examples"


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "repro", *args],
                          capture_output=True, text=True, timeout=300,
                          cwd=REPO)


def test_cli_demo():
    out = _cli("demo")
    assert out.returncode == 0
    assert "atomic ticket" in out.stdout


def test_cli_models():
    out = _cli("models")
    assert out.returncode == 0
    assert "P_put" in out.stdout and "P:{s} -> T" in out.stdout


def test_cli_calibrate():
    out = _cli("calibrate")
    assert out.returncode == 0
    assert "paper 0.16 ns/B" in out.stdout


def test_cli_figure_6c():
    out = _cli("figure", "6c")
    assert out.returncode == 0
    assert "legend:" in out.stdout
    # Quick mode prints the first points of the committed sweep (column
    # widths differ with the row count, the cells do not).
    committed = (REPO / "benchmarks" / "results" / "fig6c.txt").read_text()
    printed = [line.split() for line in out.stdout.splitlines()[:7]]
    assert printed[0] == committed.splitlines()[0].split()
    assert printed[4:] == [line.split()
                           for line in committed.splitlines()[4:7]]


def test_cli_unknown_figure():
    out = _cli("figure", "99")
    assert out.returncode != 0
    assert "4a 4b 4c 5a 5b 5c 6a 6b 6c 7a 7b 7c 8" in out.stderr


def test_cli_trace_writes_chrome_json(tmp_path):
    path = tmp_path / "putget.json"
    out = _cli("trace", "putget", "--seed", "11", "--out", str(path))
    assert out.returncode == 0
    assert str(path) in out.stdout
    import json

    doc = json.loads(path.read_text())
    assert doc["traceEvents"]
    assert any(ev.get("name") == "dmapp.put" for ev in doc["traceEvents"])


def test_cli_report():
    out = _cli("report", "locks", "--seed", "2")
    assert out.returncode == 0
    assert "where simulated time goes (by span)" in out.stdout
    assert "lock_hold_ns" in out.stdout


def test_cli_trace_unknown_workload():
    out = _cli("trace", "nosuch")
    assert out.returncode != 0
    assert "putget locks fence pscw" in out.stderr
    assert "Traceback" not in out.stderr
    assert len(out.stderr.splitlines()) == 1


@pytest.mark.parametrize("args, listed", [
    (("check", "nope"), "putget locks fence pscw racy_put_put"),
    (("report", "nope"), "putget locks fence pscw"),
    (("scale", "run", "--workload", "nosuch"),
     "(have fence_ring pscw_ring lock_ring flush_ring)"),
    (("scale", "run", "--workload", "putget"),
     "'putget' has no hybrid twin (scale workloads: fence_ring"),
    (("scale", "parity", "--workloads", "fence_ring,nosuch"),
     "'nosuch' (have fence_ring"),
    (("scale", "run", "--ranks", "1"), "need at least 2 ranks"),
    (("scale", "run", "--ranks", "abc"), "--ranks: bad rank count 'abc'"),
    (("scale", "run", "--ranks", "4Ki,8Ki"), "takes one count"),
    (("scale", "run", "--rpn", "0"), "--rpn 0: ranks per node must be >= 1"),
    (("scale", "parity", "--ranks", "1"), "need at least 2 ranks"),
    (("scale", "smoke", "--ranks", "0"), "--ranks: rank count '0' must be"),
    (("figure", "8", "--hybrid", "--ranks", "x"), "bad rank count 'x'"),
])
def test_cli_unknown_workload_is_one_line(args, listed):
    """In process: ``SystemExit(<str>)`` is what the subprocess above
    turns into one stderr line and exit status 1."""
    from repro.__main__ import main

    with pytest.raises(SystemExit) as exc:
        main(list(args))
    assert isinstance(exc.value.code, str)
    assert listed in exc.value.code and "\n" not in exc.value.code


@pytest.mark.parametrize("script", [
    "quickstart.py", "dsde_demo.py", "performance_models.py",
])
def test_example_runs(script, capsys):
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()


def test_example_fft_correctness(capsys):
    runpy.run_path(str(EXAMPLES / "fft_demo.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "numpy.fft.fftn" in out
    assert "vs nonblocking MPI" in out


def test_example_milc(capsys):
    runpy.run_path(str(EXAMPLES / "milc_demo.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "identical solution" in out


def test_example_hashtable(capsys):
    runpy.run_path(str(EXAMPLES / "hashtable_demo.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "verified" in out
