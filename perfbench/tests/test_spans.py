"""The tracer's reduction of spans to per-layer metrics, and its patching."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import jumpkernel  # noqa: E402
import spans  # noqa: E402


def test_self_time_and_stencil_split():
    t = spans.Tracer(jumpkernel)
    t.spans = [
        (1, 0, spans.ASSEMBLE, 0.0, 10.0, 2),
        (2, 1, spans.EVAL_LK, 1.0, 3.0, None),
        (3, 2, spans.ADAPTIVE, 1.5, 2.5, None),  # grandchild: not subtracted again
    ] + [(4 + i, 1, spans.TENSOR_CELL, 4.0 + i, 5.0 + i, None) for i in range(4)]
    m = {k: v for k, (v, _) in t.metrics().items()}
    assert m["solver.assemble_LK_matrix.s"] == 10.0
    assert m["solver.assemble_LK_matrix.self_s"] == 4.0
    assert m["solver.assemble.near_entries"] == 1
    assert m["solver.assemble.near_s"] == 2.0
    assert m["solver.assemble.far_entries"] == 1  # four 2-D cells make one entry
    assert m["solver.assemble.far_s"] == 4.0
    assert m["quadrature.eval_LK.calls"] == 1


def test_install_wraps_every_lookup_and_uninstall_restores_them():
    before = {(mod, attr): getattr(getattr(jumpkernel, mod), attr)
              for mod, attr, _ in spans._SPAN_SITES + spans._LEAF_SITES}
    value = jumpkernel.fields.Field.value
    t = spans.Tracer(jumpkernel)
    t.install()
    try:
        for (mod, attr), fn in before.items():
            assert getattr(getattr(jumpkernel, mod), attr) is not fn
        u = jumpkernel.fields.gaussian_bump(2)
        spec = jumpkernel.kernels.KernelSpec(jumpkernel.kernels.POWER_LAW, 2, 1.0)
        jumpkernel.quadrature.eval_LK(u, spec, [0.1, 0.2])
    finally:
        t.uninstall()
    for (mod, attr), fn in before.items():
        assert getattr(getattr(jumpkernel, mod), attr) is fn
    assert jumpkernel.fields.Field.value is value
    m = {k: v for k, (v, _) in t.metrics().items()}
    assert m["quadrature.eval_LK.calls"] == 1
    assert m["quadrules.adaptive_interval.calls"] >= 2
    assert m["fields.value.points"] > 0
