"""Schedule-perturbation mode: latent races stay hidden on the default
schedule, manifest under seeded jitter, and every finding carries a
reproducer seed that replays it."""

from repro.check.perturb import perturb_sweep, reproducer_command
from repro.workloads import run_workload

ITERS = 4


def test_latent_race_clean_on_default_schedule():
    ck = run_workload("racy_latent", nranks=4, seed=11, check=True).check
    assert ck.clean


def test_sweep_manifests_latent_race():
    sweep = perturb_sweep("racy_latent", ITERS, nranks=4, base_seed=11)
    assert not sweep.clean
    assert sweep.iterations == ITERS
    assert len(sweep.seeds) == len(sweep.checkers) == ITERS
    # Derived seeds are distinct, so the iterations explore distinct
    # schedules.
    assert len(set(sweep.seeds)) == ITERS
    kinds = {v.kind for v in sweep.findings}
    assert kinds <= {"put-put", "put-get"} and kinds


def test_findings_carry_replayable_seed():
    sweep = perturb_sweep("racy_latent", ITERS, nranks=4, base_seed=11)
    finding = sweep.findings[0]
    assert finding.seed is not None
    # Replaying the stamped seed with jitter reproduces the violation.
    ck = run_workload("racy_latent", nranks=4, seed=finding.seed,
                      check=True, jitter=True).check
    assert any(v.kind == finding.kind for v in ck.violations)
    cmd = reproducer_command("racy_latent", 4, finding.seed)
    assert cmd == f"repro check racy_latent --ranks 4 " \
                  f"--seed {finding.seed} --jitter"
    assert f"--seed {finding.seed}" in finding.describe()


def test_sweep_deterministic_given_base_seed():
    a = perturb_sweep("racy_latent", ITERS, nranks=4, base_seed=11)
    b = perturb_sweep("racy_latent", ITERS, nranks=4, base_seed=11)
    assert a.seeds == b.seeds
    assert [len(c.violations) for c in a.checkers] == \
           [len(c.violations) for c in b.checkers]


def test_sweep_on_clean_workload_stays_clean():
    sweep = perturb_sweep("clean_put_put", 2, nranks=4, base_seed=11)
    assert sweep.clean and not sweep.findings
