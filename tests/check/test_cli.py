"""``repro check`` CLI: exit codes, report content, script mode, and the
capture-sink plumbing behind it."""

import numpy as np

from repro.__main__ import main
from repro.check.core import active_check_capture, check_capture
from repro.check.report import check_failed, render_check_report
from repro.config import CheckConfig, MachineConfig, SimConfig
from repro.runtime.job import run_spmd
from repro.workloads import putget, run_workload


def test_check_clean_workload_exits_zero(capsys):
    assert main(["check", "clean_put_put", "--seed", "11"]) == 0
    out = capsys.readouterr().out
    assert "no races detected" in out


def test_check_racy_workload_exits_one(capsys):
    assert main(["check", "racy_put_put", "--seed", "11"]) == 1
    out = capsys.readouterr().out
    assert "race[put-put]" in out
    assert "by rank" in out


def test_truncated_run_is_not_a_clean_run():
    """Past the record cap nothing is checked: zero findings then render
    as incomplete and fail the command, they do not pass it."""
    ck = run_spmd(putget, 4, machine=MachineConfig(ranks_per_node=1),
                  sim=SimConfig(seed=11),
                  check=CheckConfig(enabled=True, max_records=4)).check
    assert ck.truncated and not ck.violations
    assert ck.accesses_seen == 68
    text = render_check_report(ck)
    assert "incomplete" in text and "no races detected" not in text
    assert check_failed(ck)      # what `repro check` / `serve --check` exit on
    complete = run_workload("putget", seed=11, check=True).check
    assert not complete.truncated and not check_failed(complete)
    assert "no races detected" in render_check_report(complete)


def test_check_perturb_sweep_reports_reproducers(capsys):
    assert main(["check", "racy_latent", "--seed", "11",
                 "--perturb", "3"]) == 1
    out = capsys.readouterr().out
    assert "perturbation sweep" in out
    assert "schedules manifested races" in out
    assert "reproduce: repro check racy_latent" in out


def test_check_script_mode(tmp_path, capsys):
    """A .py script that runs its own simulations is captured and
    checked; a racy script makes the command exit 1."""
    script = tmp_path / "racy.py"
    script.write_text(
        "import numpy as np\n"
        "from repro.config import SimConfig\n"
        "from repro.runtime.job import run_spmd\n"
        "\n"
        "def program(ctx):\n"
        "    win = yield from ctx.rma.win_allocate(8)\n"
        "    yield from win.lock_all()\n"
        "    yield from win.put(np.full(8, ctx.rank, np.uint8), 0, 0)\n"
        "    yield from win.flush(0)\n"
        "    yield from win.unlock_all()\n"
        "    yield from ctx.coll.barrier()\n"
        "    yield from win.free()\n"
        "\n"
        "run_spmd(program, 4, sim=SimConfig(seed=11))\n")
    assert main(["check", str(script)]) == 1
    assert "race[put-put]" in capsys.readouterr().out


def test_check_script_mode_clean(tmp_path, capsys):
    script = tmp_path / "clean.py"
    script.write_text(
        "import numpy as np\n"
        "from repro.config import SimConfig\n"
        "from repro.runtime.job import run_spmd\n"
        "\n"
        "def program(ctx):\n"
        "    win = yield from ctx.rma.win_allocate(8 * ctx.nranks)\n"
        "    yield from win.lock_all()\n"
        "    yield from win.put(np.full(8, 1, np.uint8), 0, 8 * ctx.rank)\n"
        "    yield from win.flush(0)\n"
        "    yield from win.unlock_all()\n"
        "    yield from ctx.coll.barrier()\n"
        "    yield from win.free()\n"
        "\n"
        "run_spmd(program, 4, sim=SimConfig(seed=11))\n")
    assert main(["check", str(script)]) == 0
    assert "no races detected" in capsys.readouterr().out


def test_check_capture_attaches_checker_to_every_run():
    def program(ctx):
        win = yield from ctx.rma.win_allocate(8)
        yield from win.fence()
        yield from win.put(np.full(8, 1, np.uint8),
                           (ctx.rank + 1) % ctx.nranks, 0)
        yield from win.fence(no_succeed=True)
        yield from win.free()

    with check_capture() as checkers:
        r1 = run_spmd(program, 4, sim=SimConfig(seed=5))
        r2 = run_spmd(program, 2, sim=SimConfig(seed=5))
    assert len(checkers) == 2
    assert r1.check is checkers[0] and r2.check is checkers[1]
    assert all(ck.clean for ck in checkers)
    assert active_check_capture() is None


def test_check_capture_nesting_keeps_outer_sink():
    def program(ctx):
        yield from ctx.coll.barrier()

    with check_capture() as outer:
        with check_capture() as inner:
            run_spmd(program, 2)
        assert inner is outer
    assert len(outer) == 1
