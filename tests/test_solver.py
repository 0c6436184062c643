import numpy as np
import oracles
import pytest

from jumpkernel import solver
from jumpkernel.errors import NonConvergenceError, ValidationError
from jumpkernel.kernels import (
    ANISOTROPIC_P,
    DIAG_QUADRATIC,
    EXPONENTIAL,
    MATRIX_TRANSFORMED,
    POWER_LAW,
    VARIABLE_ORDER,
    KernelSpec,
    outer_mass,
)
from jumpkernel.nonlinearity import (
    F_AFFINE_PLUS_POWER,
    F_CONSTANT,
    F_POWER,
    G_POWER,
    NonlinearitySpec,
    eval_f,
)
from jumpkernel.quadrature import (
    EvalBatch,
    QuadratureConfig,
    _cell_pass,
    cell_table,
    eval_FGK_nodes,
    eval_LK,
)
from jumpkernel.solver import (
    DomainSpec,
    assemble_LK_matrix,
    hat_field,
    solution_field,
    solve_dirichlet,
    solve_dirichlet_nonlinear,
    stencil_form,
)

PL1 = KernelSpec(POWER_LAW, 1, 1.0)
F_ONE = NonlinearitySpec(f_kind=F_CONSTANT, f_offset=1.0)
F_ZERO = NonlinearitySpec(f_kind=F_CONSTANT, f_offset=0.0)
G_ID = NonlinearitySpec()


def test_domain_validation():
    with pytest.raises(ValidationError):
        DomainSpec(dim=3, radius=1.0)
    with pytest.raises(ValidationError):
        DomainSpec(dim=1, radius=-1.0)
    with pytest.raises(ValidationError):
        DomainSpec(dim=1, radius=1.0, grid_n=32)  # must be odd
    with pytest.raises(ValidationError):
        DomainSpec(dim=1, radius=1.0, grid_n=15)  # too coarse


def test_domain_geometry():
    dom = DomainSpec(dim=1, radius=1.0, grid_n=17)
    assert dom.h == pytest.approx(0.125)
    idx = dom.interior_indices()
    # nodes strictly inside (-1, 1): indices 1..15, one row per node
    assert idx.shape == (15, 1)
    assert idx[0, 0] == 1 and idx[-1, 0] == 15


def test_hat_field_is_one_at_center_zero_at_neighbours():
    dom = DomainSpec(dim=2, radius=1.0, grid_n=17)
    hat = hat_field(dom, 2)
    # side 2 (2 + 2) + 1, the hat's node at the centre and at the origin
    assert hat.grid.shape == (9, 9)
    np.testing.assert_array_equal(hat.grid.node([4, 4]), [0.0, 0.0])
    assert np.sum(hat.grid.values) == hat.grid.values[4, 4] == 1.0
    assert float(hat.value(np.array([0.0, 0.0]))) == 1.0
    assert float(hat.value(np.array([0.125, 0.0]))) == 0.0
    assert float(hat.value(np.array([0.0625, 0.0]))) == pytest.approx(0.5)
    assert float(hat.value(np.array([0.6, -0.1]))) == 0.0  # beyond the box


def _row_permutation(idx, image, grid_n):
    """Rows of the lattice nodes ``image`` in the row order of ``idx``."""
    row = np.full((grid_n,) * idx.shape[1], -1)
    row[tuple(idx.T)] = np.arange(len(idx))
    perm = row[tuple(image.T)]
    assert np.all(perm >= 0)
    return perm


def test_assembly_structure():
    for dom in (
        DomainSpec(dim=1, radius=1.0, grid_n=33),
        DomainSpec(dim=2, radius=1.0, grid_n=17),
    ):
        op = assemble_LK_matrix(KernelSpec(POWER_LAW, dom.dim, 1.0), dom)
        idx = op.indices
        m = op.A.shape[0]
        assert m == len(dom.interior_indices())
        assert op.nodes.shape == idx.shape == (m, dom.dim)
        # reflecting an axis keeps every |offset|, so it permutes the
        # operator onto itself exactly
        for d in range(dom.dim):
            image = idx.copy()
            image[:, d] = dom.grid_n - 1 - image[:, d]
            perm = _row_permutation(idx, image, dom.grid_n)
            np.testing.assert_array_equal(op.A, op.A[np.ix_(perm, perm)])
        # the x <-> y swap maps offset (a, b) to (b, a), a separate
        # quadrature, so it holds up to rounding only
        if dom.dim == 2:
            perm = _row_permutation(idx, idx[:, ::-1], dom.grid_n)
            np.testing.assert_allclose(op.A, op.A[np.ix_(perm, perm)],
                                       rtol=1e-13, atol=0.0)
        # M-matrix sign pattern: positive diagonal, nonpositive off-diagonal
        assert np.all(np.diag(op.A) > 0.0)
        off = op.A - np.diag(np.diag(op.A))
        assert np.all(off <= 1e-14)
        # rows keep positive mass (operator of the constant 1 extension is 0,
        # so the interior row sum equals the positive exterior coupling)
        assert np.all(op.A.sum(axis=1) > 0.0)


def test_assembly_entries_are_the_offset_stencil():
    # every entry is the quadrature of its absolute lattice offset: near
    # offsets (inside the default two-cell model ball plus the hat's reach)
    # from the lattice-node path, bit for bit its one-node call on the
    # padded hat, all others from tensor Gauss cells
    dom = DomainSpec(dim=2, radius=1.0, grid_n=17)
    spec = KernelSpec(POWER_LAW, 2, 1.0)
    op = assemble_LK_matrix(spec, dom)
    idx = op.indices
    hat = hat_field(dom, 2)
    centre = int(np.flatnonzero(np.all(idx == 8, axis=1))[0])
    near = far = 0
    for i in (0, centre, len(idx) - 1):
        for j in range(0, len(idx), 7):
            off = np.abs(idx[i] - idx[j])
            if max(off) <= 2:
                value = eval_FGK_nodes(hat, G_ID, spec, [off + 4], op.cfg).value[0]
                near += 1
            else:
                value, _ = oracles.far_offset_value(dom, spec, off)
                far += 1
            assert op.A[i, j] == value
    assert near > 0 and far > 0


@pytest.mark.parametrize("spec", [
    KernelSpec(POWER_LAW, 1, 0.5, c_lower=2.0),
    KernelSpec(POWER_LAW, 2, 1.9),
    KernelSpec(EXPONENTIAL, 1, 1.5),
    KernelSpec(EXPONENTIAL, 2, 1.5),
    KernelSpec(ANISOTROPIC_P, 1, 1.0, p_norm=4.0),
    KernelSpec(ANISOTROPIC_P, 2, 1.0, p_norm=4.0),
    KernelSpec(ANISOTROPIC_P, 2, 0.7, p_norm=1.0),
    KernelSpec(MATRIX_TRANSFORMED, 1, 1.2, lambda_diag=(2.0,)),
    KernelSpec(MATRIX_TRANSFORMED, 2, 1.2, lambda_diag=(1.0, 2.0)),
    KernelSpec(DIAG_QUADRATIC, 1, 0.9, lambda_diag=(3.0,)),
    KernelSpec(DIAG_QUADRATIC, 2, 0.9, lambda_diag=(0.5, 3.0)),
    KernelSpec(VARIABLE_ORDER, 1, 0.8, beta_order=1.3),
    KernelSpec(VARIABLE_ORDER, 2, 0.8, beta_order=1.3),
], ids=lambda s: f"{s.kind}-{s.dim}d")
def test_far_entries_equal_the_per_offset_referee(spec, monkeypatch):
    # the batched far stencil is bit-identical to integrating one offset at
    # a time, in A and in entry_err, on both sides of the order-12/order-8
    # switch; near entries are not under test, so they are stubbed out
    def zero_batch(u, g, spec, index, cfg, table=None):
        z = np.zeros(len(index))
        return EvalBatch(z, z, z, z, np.ones(len(index), dtype=bool), np.zeros(len(index), dtype=int))

    monkeypatch.setattr(solver, "eval_FGK_nodes", zero_batch)
    dom = DomainSpec(dim=spec.dim, radius=1.0, grid_n=17)
    op = assemble_LK_matrix(spec, dom)
    offs = np.abs(op.indices[:, None, :] - op.indices[None, :, :])
    far = np.unique(offs.reshape(-1, dom.dim), axis=0)
    far = far[np.max(far, axis=1) > 2]
    assert {4, 5} <= set(np.max(far, axis=1).tolist())
    for off in far:
        value, err = oracles.far_offset_value(dom, spec, off)
        assert np.all(op.A[np.all(offs == off, axis=-1)] == value)
        assert op.entry_err[tuple(off)] == err


def test_unconverged_near_entry_raises_with_its_one_point_value():
    # a depth cap of 1 leaves some near offsets unconverged: assembly raises
    # with the value of the first of them, in the order assembly lists them.
    # Near entries take the inner drive only (their outer part is a fixed
    # cell rule), and on a lattice field it is the quadratic model, which
    # PowerLaw's constant profile integrates at depth 0; the tempered
    # profile exp(-r^2) does not
    dom = DomainSpec(dim=2, radius=1.0, grid_n=17)
    spec = KernelSpec(EXPONENTIAL, 2, 0.5)
    cfg = QuadratureConfig(eps_inner=2.0 * dom.h, rel_tol=1e-8, max_depth=1)
    with pytest.raises(NonConvergenceError) as exc:
        assemble_LK_matrix(spec, dom, cfg)
    hat = hat_field(dom, 2)
    unconverged = []
    for off in np.argwhere(np.ones((3, 3), dtype=bool)):  # the near offsets
        res = eval_FGK_nodes(hat, G_ID, spec, [off + 4], cfg)
        if not res.converged[0]:
            unconverged.append((res.value[0], res.err_estimate[0]))
    assert len(unconverged) == 3
    assert (exc.value.value, exc.value.err_estimate) == unconverged[0]
    assert exc.value.value == pytest.approx(34.99273613958567, rel=1e-14)
    assert exc.value.err_estimate == pytest.approx(4.182407420978513, rel=1e-9)


# The scipy referee is asked for 1e-12 relative on cell integrals of size
# 1e-3 to 10; it met the node path to 1e-13 on every PowerLaw entry.
HAT_REFEREE_ERR = 1e-10


@pytest.mark.parametrize("spec, grid_n", [
    (KernelSpec(POWER_LAW, 1, 1.0), 33),
    (KernelSpec(POWER_LAW, 1, 1.5), 33),
    (KernelSpec(MATRIX_TRANSFORMED, 1, 1.2, lambda_diag=(4.0,)), 33),
    (KernelSpec(POWER_LAW, 2, 1.0), 17),
    (KernelSpec(POWER_LAW, 2, 1.5), 17),
    (KernelSpec(MATRIX_TRANSFORMED, 2, 1.2, lambda_diag=(1.0, 4.0)), 17),
], ids=lambda p: f"{p.kind}-{p.dim}d-{p.alpha}" if isinstance(p, KernelSpec) else str(p))
def test_near_entries_agree_with_a_cellwise_referee(spec, grid_n):
    # the outer part of every near entry, value minus inner contribution,
    # lies within 3x its cell-rule term of an independent referee: u_i
    # outer_mass(eps) minus the hat integrated cell by cell outside B_eps by
    # scipy.  (The polar engine at rel_tol=1e-10 and max_depth=30 on sphere
    # levels 0-3 is no referee here: on the hat's kinks its angular rule
    # was seen up to 1.7e-6 off in 2-D, above this gate.)
    dom = DomainSpec(dim=spec.dim, radius=1.0, grid_n=grid_n)
    op = assemble_LK_matrix(spec, dom)
    eps = op.cfg.eps_inner
    offsets = np.argwhere(np.ones((3,) * dom.dim, dtype=bool))  # the near offsets
    hat = hat_field(dom, 2)
    got = eval_FGK_nodes(hat, G_ID, spec, offsets + 4, op.cfg)
    # they are the entries of A, in the row of the centre node
    row_of = {tuple(i): k for k, i in enumerate(op.indices.tolist())}
    centre = np.full(dom.dim, dom.grid_n // 2)
    for k, off in enumerate(offsets):
        assert op.A[row_of[tuple(centre)], row_of[tuple(centre + off)]] == got.value[k]
    table = cell_table(spec, dom.h, hat.grid.shape, eps)
    outer, cell_err = _cell_pass(table, hat.grid.values, 0.0, offsets + 4, None)
    np.testing.assert_array_equal(got.value, got.inner_contribution + outer)
    mass = outer_mass(spec, eps)[0]
    for k, off in enumerate(offsets):
        ref = (0.0 if off.any() else mass) - oracles.hat_mass_outside_ball(spec, dom.h, off, eps)
        assert abs(outer[k] - ref) <= 3.0 * cell_err[k] + HAT_REFEREE_ERR, (off, outer[k], ref)


def test_assembly_annihilates_constants():
    # extending u = 1 everywhere: L_K u = 0, and the discrete operator
    # reproduces that exactly through A 1 - (coupling to exterior 1)
    dom = DomainSpec(dim=1, radius=1.0, grid_n=33)
    op = assemble_LK_matrix(PL1, dom)
    # the exterior data is g = 0, so A carries no boundary term; the
    # coupling to an exterior g = 1 is each row's exterior stencil weight,
    # which is the row sum of A
    row_excess = op.A @ np.ones(op.A.shape[0])
    assert np.all(row_excess > 0.0)


def test_linear_solve_properties():
    dom = DomainSpec(dim=1, radius=1.0, grid_n=33)
    u, rep = solve_dirichlet(PL1, F_ONE, dom)
    assert rep.converged
    assert rep.iterations <= 2
    assert rep.final_residual_sup <= 1e-10
    vals = u.grid.values
    inner = vals[1:-1]
    assert np.all(inner[(np.abs(np.linspace(-1, 1, 33)) < 1.0)[1:-1]] > 0.0)
    # even profile, decreasing from the center
    np.testing.assert_allclose(vals, vals[::-1], atol=1e-12)
    mid = 16
    assert np.all(np.diff(vals[mid:]) <= 1e-14)
    # exterior data: zero on and outside the ball
    assert vals[0] == 0.0 and vals[-1] == 0.0
    assert float(u.value(np.array([2.0]))) == 0.0


def test_zero_source_gives_zero_solution():
    dom = DomainSpec(dim=1, radius=1.0, grid_n=17)
    u, rep = solve_dirichlet(PL1, F_ZERO, dom)
    assert np.all(u.grid.values == 0.0)
    assert rep.converged
    un, repn = solve_dirichlet_nonlinear(
        NonlinearitySpec(g_kind=G_POWER, gamma=1.0, f_kind=F_CONSTANT, f_offset=0.0),
        PL1, dom,
    )
    assert np.all(un.grid.values == 0.0)
    assert repn.iterations == 0


def test_solution_scales_linearly_with_source():
    dom = DomainSpec(dim=1, radius=1.0, grid_n=17)
    op = assemble_LK_matrix(PL1, dom)
    u1, _ = solve_dirichlet(PL1, F_ONE, dom, op=op)
    u3, _ = solve_dirichlet(
        PL1, NonlinearitySpec(f_kind=F_CONSTANT, f_offset=3.0), dom, op=op
    )
    np.testing.assert_allclose(u3.grid.values, 3.0 * u1.grid.values, rtol=1e-10)


def test_nodal_residual_certified_by_the_engine():
    # independent check: evaluating L_K of the solution field at matching
    # physical points through the full quadrature reproduces the source, with
    # a defect that shrinks as the lattice refines (worst at the Holder edge)
    defects = {}
    for gn in (33, 65):
        dom = DomainSpec(dim=1, radius=1.0, grid_n=gn)
        u, _ = solve_dirichlet(PL1, F_ONE, dom)
        defects[gn] = [
            abs(eval_LK(u, PL1, np.array([x])).value - 1.0)
            for x in (-0.75, -0.5, 0.0, 0.5, 0.75)
        ]
    assert max(defects[33]) < 0.1
    assert max(defects[65]) < 0.01
    for d33, d65 in zip(defects[33], defects[65]):
        assert d65 < d33


# Relative L2 and centre errors against Getoor's torsion function, measured
# per (dim, alpha) along grid_n; the gates sit at 1.25x these values.
TORSION_ERRORS = {
    (1, 0.5): {33: (0.0353, 0.0140), 65: (0.0210, 0.0070), 129: (0.0125, 0.0035)},
    (1, 1.0): {33: (0.0367, 0.0213), 65: (0.0200, 0.0109), 129: (0.0108, 0.0056)},
    (1, 1.5): {33: (0.0266, 0.0193), 65: (0.0147, 0.0106), 129: (0.0082, 0.0060)},
    (2, 1.0): {17: (0.0332, None), 33: (0.0166, None)},
}


@pytest.mark.parametrize("dim, alpha", sorted(TORSION_ERRORS))
def test_torsion_solve_matches_getoor(dim, alpha):
    # L_K u = 1 in B_1, u = 0 outside, against the closed form; the 2-D sup
    # error sits at the node nearest the boundary and does not fall with
    # grid_n, so only the L2 and centre errors are gated
    spec = KernelSpec(POWER_LAW, dim, alpha)
    l2_errors = []
    for gn, (l2_measured, centre_measured) in TORSION_ERRORS[dim, alpha].items():
        dom = DomainSpec(dim=dim, radius=1.0, grid_n=gn)
        u, _ = solve_dirichlet(spec, F_ONE, dom)
        pts = np.stack(np.meshgrid(*dom.lattice_axes(), indexing="ij"), axis=-1)
        exact = oracles.torsion_ball(pts, alpha)
        got = u.grid.values
        l2 = np.linalg.norm(got - exact) / np.linalg.norm(exact)
        assert l2 <= 1.25 * l2_measured, (gn, l2)
        if centre_measured is not None:
            c = (gn // 2,) * dim
            centre = abs(got[c] - exact[c]) / exact[c]
            assert centre <= 1.25 * centre_measured, (gn, centre)
        l2_errors.append(l2)
    for coarse, fine in zip(l2_errors, l2_errors[1:]):
        assert coarse >= 1.5 * fine, l2_errors


def test_2d_solve_smoke():
    dom = DomainSpec(dim=2, radius=1.0, grid_n=17)
    pl2 = KernelSpec(POWER_LAW, 2, 1.0)
    u, rep = solve_dirichlet(pl2, F_ONE, dom)
    assert rep.converged
    vals = u.grid.values
    # symmetric under both reflections and the diagonal swap
    np.testing.assert_allclose(vals, vals[::-1, :], atol=1e-12)
    np.testing.assert_allclose(vals, vals[:, ::-1], atol=1e-12)
    np.testing.assert_allclose(vals, vals.T, atol=1e-12)
    assert vals[8, 8] == np.max(vals)
    assert vals[8, 8] > 0.0


def test_nonlinear_solve_small_grid():
    g = NonlinearitySpec(
        g_kind=G_POWER, gamma=1.0,
        f_kind=F_AFFINE_PLUS_POWER, f_offset=1.0, f_slope=0.0, f_scale=1.0, s=1.0,
    )
    dom = DomainSpec(dim=1, radius=1.0, grid_n=17)
    u, rep = solve_dirichlet_nonlinear(g, PL1, dom, solve_tol=1e-6)
    assert rep.converged
    assert rep.final_residual_sup <= 1e-6
    vals = u.grid.values
    assert np.all(vals[1:-1] > 0.0)
    np.testing.assert_allclose(vals, vals[::-1], atol=1e-9)
    # every accepted step lowers the sup residual
    hist = rep.residual_history
    assert all(b < a for a, b in zip(hist, hist[1:]))


def test_nonlinear_identity_delegates_to_linear():
    dom = DomainSpec(dim=1, radius=1.0, grid_n=17)
    ident = NonlinearitySpec(f_kind=F_CONSTANT, f_offset=1.0)
    u_lin, _ = solve_dirichlet(PL1, ident, dom)
    u_non, _ = solve_dirichlet_nonlinear(ident, PL1, dom)
    np.testing.assert_array_equal(u_non.grid.values, u_lin.grid.values)


def test_nonconvergence_carries_partial_state():
    g = NonlinearitySpec(
        g_kind=G_POWER, gamma=1.0,
        f_kind=F_AFFINE_PLUS_POWER, f_offset=1.0, f_slope=0.0, f_scale=1.0, s=1.0,
    )
    dom = DomainSpec(dim=1, radius=1.0, grid_n=17)
    with pytest.raises(NonConvergenceError) as exc:
        solve_dirichlet_nonlinear(g, PL1, dom, solve_tol=1e-6, max_iter=2)
    err = exc.value
    assert err.field is not None
    assert err.field.grid is not None
    assert err.report.iterations == 2
    assert not err.report.converged


def test_solution_field_wraps_interior_vector():
    dom = DomainSpec(dim=1, radius=1.0, grid_n=17)
    op = assemble_LK_matrix(PL1, dom)
    vec = np.linspace(1.0, 2.0, op.A.shape[0])
    fld = solution_field(dom, op, vec)
    assert fld.grid.values[0] == 0.0
    np.testing.assert_allclose(fld.grid.values[1:-1], vec)


def test_nonlinear_report_counts_suppressed_nonconvergence(monkeypatch):
    import jumpkernel.solver as solver_mod

    passes = []  # (field, nodes, converged) per PV pass
    calls = []
    original = solver_mod.eval_FGK_nodes

    def recording_eval_FGK_nodes(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append((args[0], np.asarray(args[3]), out.converged))
        return out

    monkeypatch.setattr(solver_mod, "eval_FGK_nodes", recording_eval_FGK_nodes)
    g = NonlinearitySpec(g_kind=G_POWER, gamma=0.5, f_kind=F_CONSTANT, f_offset=1.0)
    dom = DomainSpec(dim=1, radius=1.0, grid_n=33)
    _, rep = solve_dirichlet_nonlinear(g, PL1, dom, solve_tol=1e-6)
    assert rep.converged
    # the first call is the assembly's, on the three near offsets of the hat;
    # the PV passes are the calls over the 31 interior nodes
    assert len(calls) == 6 and calls[0][1].shape == (3, 1)
    passes = [c for c in calls if c[1].shape == (31, 1)]
    # each PV pass is one node evaluation over the interior lattice nodes;
    # every node that did not converge was absorbed into the residual, and
    # the report says how many there were
    assert len(passes) == 5
    assert all(nodes.shape == (31, 1) for _, nodes, _ in passes)
    assert rep.suppressed_nonconvergence == sum(int(np.sum(~c)) for _, _, c in passes) == 5
    # the one unconverged node of every pass is the centre (lattice index
    # 16): its gradient is 0, so the inner drive's rho-integrand behaves
    # like rho^(gamma/(2+gamma-alpha)) = rho^(1/3) at 0 and the leftmost
    # panel cannot meet its width-proportional budget by max_depth=24; at
    # max_depth=28 it converges, with the same value to 12 digits
    for _, nodes, conv in passes:
        assert conv.shape == (31,)
        assert nodes[~conv, 0].tolist() == [16]
    assert rep.final_pass_suppressed == 1
    fld = passes[-1][0]
    capped, deeper = (
        original(fld, g, PL1, [[16]], QuadratureConfig(eps_inner=2.0 * dom.h, max_depth=d))
        for d in (24, 28)
    )
    assert not capped.converged[0] and deeper.converged[0]
    # 0.0051146069 both; the deeper drive only refines the leftmost panels
    assert abs(deeper.inner_contribution[0] - capped.inner_contribution[0]) <= 1e-12 * 0.005
    # linear solves run no such evaluations
    _, lin = solve_dirichlet(PL1, F_ONE, dom)
    assert lin.suppressed_nonconvergence == lin.final_pass_suppressed == 0


def test_stencil_form_and_its_jacobian():
    dom = DomainSpec(dim=1, radius=1.0, grid_n=17)
    op = assemble_LK_matrix(PL1, dom)
    u = np.random.default_rng(3).uniform(0.2, 1.0, op.A.shape[0])
    # G = id: the stencil form is the assembled matrix
    F_id, _ = stencil_form(op, F_ONE)
    Au = op.A @ u
    assert np.max(np.abs(F_id(u) - Au)) <= 1e-13 * np.max(np.abs(Au))
    # G(t) = |t| t, f(t) = 1 + |t| t: J_h is the Jacobian of F_h - f
    g = NonlinearitySpec(
        g_kind=G_POWER, gamma=1.0,
        f_kind=F_AFFINE_PLUS_POWER, f_offset=1.0, f_slope=0.0, f_scale=1.0, s=1.0,
    )
    F_h, J_h = stencil_form(op, g)
    d = 1e-6
    fd = np.empty((len(u), len(u)))
    for j in range(len(u)):
        e = np.zeros(len(u))
        e[j] = d
        fd[:, j] = (
            (F_h(u + e) - eval_f(g, u + e)) - (F_h(u - e) - eval_f(g, u - e))
        ) / (2 * d)
    np.testing.assert_allclose(J_h(u), fd, rtol=1e-6, atol=1e-6 * np.max(np.abs(fd)))


def test_nonlinear_solution_scales_with_source():
    # G is (1 + gamma)-homogeneous, so f = 2 scales the f = 1 solution by
    # 2^(1/(1+gamma)); the solve keeps that to rounding
    dom = DomainSpec(dim=1, radius=1.0, grid_n=33)
    op = assemble_LK_matrix(PL1, dom)
    u1, u2 = (
        solve_dirichlet_nonlinear(
            NonlinearitySpec(g_kind=G_POWER, gamma=0.5, f_kind=F_CONSTANT, f_offset=c),
            PL1, dom, solve_tol=1e-6, op=op,
        )[0].grid.values
        for c in (1.0, 2.0)
    )
    assert np.max(np.abs(u2 - 2.0 ** (1.0 / 1.5) * u1)) <= 1e-10 * np.max(u2)
    # the PV collocation problem is unchanged: the peak matches the value
    # the earlier fixed-point solver reached
    assert abs(np.max(u1) - 0.532070868) <= 5e-8


def test_nonlinear_solve_alpha_1p5_gamma_1_converges():
    # this case stagnated near 5e-4 under the earlier fixed-point solver
    g = NonlinearitySpec(g_kind=G_POWER, gamma=1.0, f_kind=F_CONSTANT, f_offset=1.0)
    dom = DomainSpec(dim=1, radius=1.0, grid_n=33)
    _, rep = solve_dirichlet_nonlinear(
        g, KernelSpec(POWER_LAW, 1, 1.5), dom, solve_tol=1e-6
    )
    assert rep.converged
    assert rep.final_residual_sup <= 1e-6
