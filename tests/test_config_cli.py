import json
import re
from pathlib import Path

import numpy as np
import pytest

from jumpkernel.cli import main, run, verify_suite, _sha256
from jumpkernel.config import (
    ExperimentConfig,
    FieldSpec,
    TASK_CHECK_KERNEL,
    TASK_EVAL_OPERATOR,
    TASK_SOLVE_BALL,
    TASK_SWEEP_ALPHA,
    from_dict,
    load_config,
    save_config,
    to_dict,
    with_overrides,
)
from jumpkernel.errors import ValidationError
from jumpkernel.fields import load_grid_field
from jumpkernel.kernels import (
    DIAG_QUADRATIC,
    EXPONENTIAL,
    POWER_LAW,
    KernelSpec,
)
from jumpkernel.nonlinearity import G_POWER, F_POWER, NonlinearitySpec
from jumpkernel.quadrature import QuadratureConfig
from jumpkernel.solver import DomainSpec

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

PL1 = KernelSpec(kind=POWER_LAW, dim=1, alpha=1.0)


def full_config():
    return ExperimentConfig(
        task=TASK_CHECK_KERNEL,
        kernel=KernelSpec(kind=POWER_LAW, dim=2, alpha=1.3, c_lower=0.7),
        quadrature=QuadratureConfig(eps_inner=2e-3, r_outer=40.0),
        nonlinearity=NonlinearitySpec(g_kind=G_POWER, gamma=1.0,
                                      f_kind=F_POWER, s=1.5),
        domain=None,
        field=FieldSpec(shape="gaussian", center=(0.1, -0.2), scale=0.8),
        seed=3,
        label="round-trip-probe",
        axis=2,
        points=((0.1, 0.2), (-0.3, 0.4)),
        alpha_list=(1.9, 1.95),
        expect={"K1": True, "Evenness": True},
    )


def test_config_round_trip_through_file(tmp_path):
    cfg = full_config()
    path = tmp_path / "probe.json"
    save_config(cfg, path)
    assert load_config(path) == cfg
    # and through the dict layer alone, as built and as JSON text
    d = to_dict(cfg)
    for form in (d, json.loads(json.dumps(d))):
        assert from_dict(ExperimentConfig, form) == cfg


def test_minimal_config_round_trip(tmp_path):
    cfg = ExperimentConfig(task=TASK_EVAL_OPERATOR, kernel=PL1)
    path = tmp_path / "minimal.json"
    save_config(cfg, path)
    loaded = load_config(path)
    assert loaded == cfg
    assert loaded.quadrature is None
    assert loaded.nonlinearity is None


BALL = {"task": TASK_SOLVE_BALL,
        "kernel": {"kind": POWER_LAW, "dim": 1, "alpha": 1.0},
        "domain": {"dim": 1, "grid_n": 17}}

# Broken sections of BALL and the message naming the key at fault.
SECTION_KEY_ERRORS = [
    ({"kernel": {"dim": 1, "alpha": 1.0}}, r"kernel\.kind: missing required key"),
    ({"domain": {"grid_n": 17}}, r"domain\.dim: missing required key"),
    ({"domain": {"dim": 1, "grid_n": "33"}}, r"domain\.grid_n: expected int, got str"),
    ({"kernel": [1]}, r"kernel: must be a JSON object"),
]


def test_validation_messages_name_the_key(tmp_path):
    base = to_dict(ExperimentConfig(task=TASK_EVAL_OPERATOR, kernel=PL1))

    bad = json.loads(json.dumps(base))
    bad["kernel"]["alpha"] = 2.5
    with pytest.raises(ValidationError, match="kernel: .*alpha must lie in"):
        from_dict(ExperimentConfig, bad)

    bad = json.loads(json.dumps(base))
    bad["expect"] = {"no_such_check": True}
    with pytest.raises(ValidationError, match="expect: unknown key 'no_such_check'"):
        from_dict(ExperimentConfig, bad)

    bad = json.loads(json.dumps(base))
    bad["axis"] = 2
    with pytest.raises(ValidationError, match="axis"):
        from_dict(ExperimentConfig, bad)

    bad = json.loads(json.dumps(base))
    bad["mystery"] = 1
    with pytest.raises(ValidationError, match="unknown config keys.*mystery"):
        from_dict(ExperimentConfig, bad)

    with pytest.raises(ValidationError, match="task: missing"):
        from_dict(ExperimentConfig, {"kernel": base["kernel"]})

    assert from_dict(ExperimentConfig, BALL).domain == DomainSpec(dim=1, grid_n=17)
    for sections, message in SECTION_KEY_ERRORS:
        with pytest.raises(ValidationError, match=message):
            from_dict(ExperimentConfig, {**BALL, **sections})

    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_config(path)


def test_task_section_requirements():
    with pytest.raises(ValidationError, match="requires the 'domain' section"):
        ExperimentConfig(task=TASK_SOLVE_BALL, kernel=PL1)
    with pytest.raises(ValidationError, match="domain.dim must match kernel.dim"):
        ExperimentConfig(
            task=TASK_SOLVE_BALL, kernel=PL1,
            domain=DomainSpec(dim=2, radius=1.0, grid_n=17),
        )
    with pytest.raises(ValidationError, match="unknown task"):
        ExperimentConfig(task="Frobnicate", kernel=PL1)


def test_field_spec_shapes():
    g = FieldSpec(shape="gaussian", scale=0.5).build(1)
    assert g.value(np.zeros(1)) == pytest.approx(1.0)
    c = FieldSpec(shape="compact", scale=0.5, amplitude=-2.0).build(1)
    assert c.value(np.array([0.9])) == 0.0
    assert c.value(np.zeros(1)) == pytest.approx(-2.0)
    # odd pair: anti-symmetric about the first-coordinate plane
    o = FieldSpec(shape="odd-pair", center=(0.6,), scale=0.5).build(1)
    for x in (0.1, 0.45, 1.2):
        assert o.value(np.array([x])) == pytest.approx(
            -o.value(np.array([-x])), rel=1e-12)
    assert o.value(np.array([0.6])) > 0.0
    with pytest.raises(ValidationError, match="field.shape"):
        FieldSpec(shape="sawtooth")
    with pytest.raises(ValidationError, match="field.center"):
        FieldSpec(center=(0.1, 0.2)).build(1)


def test_with_overrides():
    cfg = ExperimentConfig(task=TASK_EVAL_OPERATOR, kernel=PL1, seed=1)
    same = with_overrides(cfg)
    assert same is cfg
    changed = with_overrides(cfg, task=TASK_CHECK_KERNEL, seed=9)
    assert changed.task == TASK_CHECK_KERNEL
    assert changed.seed == 9
    assert changed.output_dir == cfg.output_dir
    assert cfg.seed == 1  # original untouched


def test_check_kernel_artifacts(tmp_path):
    cfg = ExperimentConfig(
        task=TASK_CHECK_KERNEL,
        kernel=KernelSpec(kind=EXPONENTIAL, dim=1, alpha=1.0),
        expect={"K1": False, "LevyKhintchine": True},
        label="exp-check",
    )
    assert run(cfg, tmp_path) == 0
    report = json.loads((tmp_path / "kernel_report.json").read_text())
    by_name = {r["condition"]: r for r in report["conditions"]}
    assert by_name["K1"]["holds"] is False
    assert by_name["K1"]["witness"] is not None
    assert by_name["LevyKhintchine"]["holds"] is True
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert manifest["expect_met"] is True
    assert manifest["label"] == "exp-check"
    for entry in manifest["files"]:
        assert entry["sha256"] == _sha256(tmp_path / entry["name"])


def test_solve_ball_zero_source_writes_zero_grid(tmp_path):
    cfg = ExperimentConfig(
        task=TASK_SOLVE_BALL, kernel=PL1,
        domain=DomainSpec(dim=1, radius=1.0, grid_n=17),
        source=0.0,
    )
    assert run(cfg, tmp_path) == 0
    u = load_grid_field(tmp_path / "solution.grid")
    np.testing.assert_array_equal(u.grid.values, 0.0)
    rows = (tmp_path / "solve_report.csv").read_text().strip().splitlines()
    assert rows[0] == "iteration[1],residual_sup[1]"


def test_expectation_failure_is_reported_not_raised(tmp_path):
    cfg = ExperimentConfig(
        task=TASK_CHECK_KERNEL,
        kernel=KernelSpec(kind=EXPONENTIAL, dim=1, alpha=1.0),
        expect={"K1": True},  # deliberately wrong: K1 fails for this kernel
    )
    assert run(cfg, tmp_path) == 0  # the run itself succeeds
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["expect_met"] is False
    assert manifest["expect_failures"] == ["K1"]


def test_eval_operator_determinism(tmp_path):
    cfg = ExperimentConfig(
        task=TASK_EVAL_OPERATOR, kernel=PL1, seed=11, point_count=4,
        field=FieldSpec(shape="gaussian"),
    )
    run(cfg, tmp_path / "a")
    run(cfg, tmp_path / "b")
    for name in ("eval.csv", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    header = (tmp_path / "a" / "eval.csv").read_text().splitlines()[0]
    assert header == ("x1[1],value[1],err_estimate[1],"
                      "tail_bound[1],inner_contribution[1]")


def test_non_convergence_exit_2_partial_manifest(tmp_path):
    cfg = ExperimentConfig(
        task=TASK_EVAL_OPERATOR, kernel=PL1,
        quadrature=QuadratureConfig(max_depth=1),
        points=((0.1,),),
    )
    assert run(cfg, tmp_path) == 2
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "partial"
    assert manifest["expect_met"] is False
    assert "error" in manifest["summary"]


def test_output_dir_env_override(tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv("JUMPKERNEL_OUTPUT_DIR", str(target))
    cfg = ExperimentConfig(
        task=TASK_CHECK_KERNEL, kernel=PL1, output_dir=str(tmp_path / "ignored"),
    )
    assert run(cfg) == 0
    assert (target / "manifest.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_cli_exit_1_names_offending_key(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "task": TASK_EVAL_OPERATOR,
        "kernel": {"kind": POWER_LAW, "dim": 1, "alpha": 2.5},
    }))
    assert main(["--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "alpha must lie in (0,2)" in err
    for sections, message in SECTION_KEY_ERRORS:
        path.write_text(json.dumps({**BALL, **sections}))
        assert main(["--config", str(path)]) == 1
        assert re.search(message, capsys.readouterr().err)


def test_cli_seed_and_task_overrides(tmp_path):
    cfg = ExperimentConfig(task=TASK_EVAL_OPERATOR, kernel=PL1, seed=0,
                           point_count=2)
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    out = tmp_path / "out"
    code = main(["--config", str(path), "--output", str(out),
                 "--seed", "7", "--task", TASK_CHECK_KERNEL])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["task"] == TASK_CHECK_KERNEL
    assert (out / "kernel_report.json").exists()


def test_shipped_suite_all_pass(tmp_path, capsys):
    assert verify_suite(CONFIG_DIR, tmp_path, jobs=2) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    config_count = len(list(CONFIG_DIR.glob("*.json")))
    assert lines[-1] == f"{config_count}/{config_count} passed"
    assert all("PASS" in ln for ln in lines[1:-1])


def test_suite_empty_directory_is_an_error(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    assert verify_suite(empty, tmp_path / "out") == 1
    assert "no config files" in capsys.readouterr().err


def test_suite_shifted_evenness_fails_exactly_one_row(tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    good = ExperimentConfig(
        task=TASK_CHECK_KERNEL, kernel=PL1, label="even-kernel",
        expect={"Evenness": True},
    )
    save_config(good, suite / "a_even.json")
    shifted = ExperimentConfig(
        task=TASK_CHECK_KERNEL, kernel=PL1, label="shifted-kernel",
        evenness_shift=0.25, expect={"Evenness": True},
    )
    save_config(shifted, suite / "b_shifted.json")
    assert verify_suite(suite, tmp_path / "out") == 1
    out = capsys.readouterr().out
    rows = [ln for ln in out.splitlines() if "kernel" in ln]
    fails = [ln for ln in rows if "FAIL" in ln]
    assert len(fails) == 1
    assert "shifted-kernel" in fails[0]
    assert "Evenness" in fails[0]
    assert any("even-kernel" in ln and "PASS" in ln for ln in rows)


def test_sweep_alpha_task_artifacts(tmp_path):
    cfg = ExperimentConfig(
        task=TASK_SWEEP_ALPHA,
        kernel=KernelSpec(kind=EXPONENTIAL, dim=1, alpha=1.9),
        expect={"rel_error_max": 0.02, "not_flagged": True},
    )
    assert run(cfg, tmp_path) == 0
    rows = (tmp_path / "alpha_sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "alpha[1],value[1],running_extrapolation[1]"
    assert len(rows) == 4  # header + default three-step ladder
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["expect_met"] is True
    assert manifest["summary"]["rel_error"] < 0.02


def test_sweep_alpha_rejects_a_kernel_without_a_limit(tmp_path, capsys):
    # DiagQuadratic has no alpha -> 2 family; it must not be swept as a
    # MatrixTransformed kernel with the same diagonal
    cfg = ExperimentConfig(
        task=TASK_SWEEP_ALPHA,
        kernel=KernelSpec(kind=DIAG_QUADRATIC, dim=2, alpha=1.9, lambda_diag=(1.0, 2.0)),
    )
    with pytest.raises(ValidationError, match="kernel.kind: DiagQuadratic"):
        run(cfg, tmp_path / "run")
    path = tmp_path / "diag.json"
    save_config(cfg, path)
    out = tmp_path / "out"
    assert main(["--config", str(path), "--output", str(out)]) == 1
    assert "kernel.kind" in capsys.readouterr().err
    assert not (out / "alpha_sweep.csv").exists()


def test_suite_reports_a_keyless_section_as_one_fail_row(tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    save_config(ExperimentConfig(task=TASK_CHECK_KERNEL, kernel=PL1, label="good"),
                suite / "a_good.json")
    (suite / "b_keyless.json").write_text(json.dumps(
        {"task": TASK_CHECK_KERNEL, "kernel": {"dim": 1, "alpha": 1.0}}))
    assert verify_suite(suite, tmp_path / "out") == 1
    lines = capsys.readouterr().out.strip().splitlines()
    fails = [ln for ln in lines if "FAIL" in ln]
    assert len(fails) == 1
    assert "b_keyless" in fails[0] and "kernel.kind: missing required key" in fails[0]
    assert any("good" in ln and "PASS" in ln for ln in lines)
    assert lines[-1] == "1/2 passed"
