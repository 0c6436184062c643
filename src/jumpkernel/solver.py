"""Collocation solver for the zero-exterior Dirichlet problems.

L_K u = f(u) (and its fully nonlinear sibling F_{G,K} u = f(u)) is posed
in the ball B_radius(0) with u identically 0 outside, in one and two
dimensions.  The unknown is the vector of nodal values at the lattice
nodes strictly inside the ball; the trial space is the span of the
piecewise-multilinear hats at those nodes, extended by 0.

Nodes and offsets are lattice multi-indices held in integer arrays.
Every zoo kernel is translation invariant and even in each coordinate, so
A[i, j] depends only on the componentwise |idx_i - idx_j|: the operator
is a stencil array of shape (grid_n,)*dim indexed by that absolute offset.
Assembly marks the offsets the interior rows use, computes the stencil
entry of each marked offset, and then fills A row by row with the gather
stencil[|idx - idx_i|].  Offsets whose model ball reaches the hat's support
are lattice nodes of the hat padded by zeros (``hat_field``), all of them in
one ``quadrature.eval_FGK_nodes`` call with G = id: the local quadratic
model inside B_eps, the hat by cells outside it.  All other offsets
integrate the smooth product hat * kernel by fixed tensor Gauss panels over
the hat's four (resp. two) cells, batched: each cell is integrated once per
Gauss rule for every far offset of that rule.

The principal-value passes of the nonlinear solve evaluate F_{G,K} of the
solution field at the interior nodes by ``quadrature.eval_FGK_nodes``,
whose cell table is built once per solve.

The solver deliberately does not impose any symmetry: radial symmetry and
monotonicity of the computed profiles are emergent properties the tests
measure, not constraints baked in.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError, ValidationError
from .fields import Field, grid_field
from .kernels import KernelSpec, eval_kernel
from .nonlinearity import (
    G_IDENTITY,
    NonlinearitySpec,
    eval_f,
    eval_f_prime,
    eval_G,
    eval_G_prime,
)
# eval_LK and eval_FGK stay importable here: the benchmark's tracer wraps
# them at every module that imports them.
from .quadrature import (  # noqa: F401
    QuadratureConfig,
    cell_table,
    eval_FGK,
    eval_FGK_nodes,
    eval_LK,
    require_converged,
)
from .quadrules import tensor_gauss_cell


@dataclass(frozen=True)
class DomainSpec:
    dim: int
    radius: float = 1.0
    grid_n: int = 33

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValidationError("dim must be 1 or 2")
        if not self.radius > 0.0:
            raise ValidationError("radius must be positive")
        if self.grid_n % 2 == 0 or self.grid_n < 17:
            raise ValidationError("grid_n must be odd and at least 17")

    @property
    def h(self) -> float:
        return 2.0 * self.radius / (self.grid_n - 1)

    @property
    def origin(self):
        return np.full(self.dim, -self.radius)

    def lattice_axes(self):
        return [
            -self.radius + self.h * np.arange(self.grid_n) for _ in range(self.dim)
        ]

    def interior_indices(self) -> np.ndarray:
        """Lattice multi-indices, shape (m, dim), of the nodes strictly
        inside the ball, in row-major order."""
        mesh = np.meshgrid(*self.lattice_axes(), indexing="ij")
        return np.argwhere(sum(x * x for x in mesh) < self.radius ** 2 - 1e-12)


@dataclass
class DiscreteOperator:
    A: np.ndarray
    nodes: np.ndarray           # (m, dim) interior node coordinates
    indices: np.ndarray         # (m, dim) lattice multi-index per row
    spec: KernelSpec
    domain: DomainSpec
    cfg: QuadratureConfig
    entry_err: np.ndarray       # quadrature error per |offset|, stencil-shaped


@dataclass
class SolveReport:
    residual_history: list
    iterations: int
    converged: bool
    final_residual_sup: float
    # node evaluations whose quadrature did not converge and whose
    # unconverged value was used anyway (nonlinear solves only): over all
    # PV passes, and in the pass whose residual was accepted
    suppressed_nonconvergence: int = 0
    final_pass_suppressed: int = 0


def hat_field(domain: DomainSpec, reach: int) -> Field:
    """The multilinear hat of the node at the origin, 1 there and 0 at every
    other node, on a lattice of zeros of side 2 (reach + 2) + 1 about it.

    The lattice node at offset o from the centre, |o|_inf <= ``reach``,
    lies two nodes inside the box faces, so the second differences of the
    samples at it are those of the hat on the whole lattice."""
    c = reach + 2
    values = np.zeros((2 * c + 1,) * domain.dim)
    values[(c,) * domain.dim] = 1.0
    return grid_field(values, np.full(domain.dim, -c * domain.h), domain.h,
                      exterior_value=0.0, label="hat")


def _far_offset_values(domain, spec, offsets):
    """Stencil entries for offsets whose node lies outside the hat support:
    a(d) = -∫ hat(y) K(d*h - y) dy over the hat's smooth cells.

    ``offsets`` is a (k, dim) integer array; returns the (k,) entries and
    their error estimates.  Offsets within four cells take the order-12
    rule, all others order 8; each cell is integrated once per rule for
    all offsets of that rule.
    """
    h = domain.h
    values = np.zeros(len(offsets))
    errs = np.zeros(len(offsets))
    orders = np.where(np.max(np.abs(offsets), axis=1) <= 4, 12, 8)
    for order in (12, 8):
        sel = orders == order
        if not np.any(sel):
            continue
        d = np.asarray(offsets[sel], dtype=float) * h

        def integrand(pts):
            w = np.prod(1.0 - np.abs(pts) / h, axis=-1)
            return w * eval_kernel(spec, d[:, None, :] - pts[None])

        total = np.zeros(len(d))
        err = np.zeros(len(d))
        for signs in itertools.product((-1.0, 1.0), repeat=domain.dim):
            lo = np.minimum(0.0, np.array(signs) * h)
            hi = np.maximum(0.0, np.array(signs) * h)
            v, e = tensor_gauss_cell(integrand, lo, hi, order=order)
            total += v
            err += e
        values[sel] = -total
        errs[sel] = err
    return values, errs


def assemble_LK_matrix(
    spec: KernelSpec, domain: DomainSpec, cfg: QuadratureConfig | None = None
) -> DiscreteOperator:
    if spec.dim != domain.dim:
        raise ValidationError("kernel and domain dimensions must agree")
    if cfg is None:
        # Smaller model balls win here: the dominant assembly error is the
        # local quadratic model misrepresenting low-regularity solutions near
        # the sphere, and it scales linearly with eps_inner.  Two cells is
        # the smallest radius that still covers the second-difference stencil.
        cfg = QuadratureConfig(eps_inner=max(2.0 * domain.h, 1e-3))
    idx = domain.interior_indices()
    m = len(idx)
    nodes = domain.origin + domain.h * idx
    shape = (domain.grid_n,) * domain.dim

    # Row by row, not as one (m, m, dim) gather: the full index array
    # would outweigh A itself.
    used = np.zeros(shape, dtype=bool)
    for row in idx:
        used[tuple(np.abs(idx - row).T)] = True
    stencil = np.zeros(shape)
    errs = np.zeros(shape)
    # Hat supports reach one spacing past their node, so an offset is clear
    # of the inner ball exactly when (|d|_inf - 1) h >= eps_inner.
    near_cut = cfg.eps_inner / domain.h + 1.0 - 1e-9
    offsets = np.argwhere(used)
    is_near = np.max(offsets, axis=1) < near_cut
    # Near offsets are lattice nodes of the hat: inside B_eps the local
    # quadratic model is the discretization (integrating the raw hat there
    # too would count the region twice), and outside it the hat is
    # integrated by cells.
    hat = hat_field(domain, int(offsets[is_near].max()))
    res = eval_FGK_nodes(hat, NonlinearitySpec(), spec,
                         offsets[is_near] + hat.grid.shape[0] // 2, cfg)
    require_converged(res)
    near = tuple(offsets[is_near].T)
    stencil[near], errs[near] = res.value, res.err_estimate
    far = tuple(offsets[~is_near].T)
    stencil[far], errs[far] = _far_offset_values(domain, spec, offsets[~is_near])

    A = np.empty((m, m))
    for i, row in enumerate(idx):
        A[i] = stencil[tuple(np.abs(idx - row).T)]
    return DiscreteOperator(
        A=A, nodes=nodes, indices=idx, spec=spec, domain=domain, cfg=cfg,
        entry_err=errs,
    )


def solution_field(domain: DomainSpec, op: DiscreteOperator, u_int) -> Field:
    values = np.zeros((domain.grid_n,) * domain.dim)
    values[tuple(op.indices.T)] = u_int
    return grid_field(
        values, domain.origin, domain.h, exterior_value=0.0, label="solution"
    )


def _raise_nonconvergence(msg, field, report):
    exc = NonConvergenceError(
        msg, value=report.final_residual_sup, err_estimate=report.final_residual_sup
    )
    exc.field = field
    exc.report = report
    raise exc


def _damped_newton(residual, jacobian, u, solve_tol, max_iter):
    """Newton steps u <- u - t J(u)^-1 r(u), with t halved (down to 1/1024)
    until the sup residual falls; stops at ``solve_tol`` or ``max_iter``
    accepted steps.  Returns the last accepted iterate, the sup residual of
    the start and of every accepted step, and whether it converged."""
    r = residual(u)
    history = [float(np.max(np.abs(r)))]
    converged = history[-1] <= solve_tol
    while not converged and len(history) <= max_iter:
        try:
            step = np.linalg.solve(jacobian(u), -r)
        except np.linalg.LinAlgError:
            break
        t = 1.0
        base = history[-1]
        while t >= 1.0 / 1024.0:
            cand = u + t * step
            rc = residual(cand)
            if float(np.max(np.abs(rc))) < base:
                break
            t *= 0.5
        else:
            break
        u, r = cand, rc
        history.append(float(np.max(np.abs(r))))
        converged = history[-1] <= solve_tol
    return u, history, bool(converged)


def solve_dirichlet(
    spec: KernelSpec,
    f: NonlinearitySpec,
    domain: DomainSpec,
    cfg: QuadratureConfig | None = None,
    solve_tol: float = 1e-10,
    max_iter: int = 60,
    op: DiscreteOperator | None = None,
):
    """Damped Newton for A u = f(u); linear f converges in one step."""
    if op is None:
        op = assemble_LK_matrix(spec, domain, cfg)
    u, history, converged = _damped_newton(
        lambda v: op.A @ v - eval_f(f, v),
        lambda v: op.A - np.diag(eval_f_prime(f, v)),
        np.zeros(op.A.shape[0]), solve_tol, max_iter,
    )
    report = SolveReport(
        residual_history=history,
        iterations=len(history) - 1,
        converged=converged,
        final_residual_sup=history[-1],
    )
    fld = solution_field(domain, op, u)
    if not converged:
        _raise_nonconvergence("Dirichlet solve did not converge", fld, report)
    return fld, report


def stencil_form(op: DiscreteOperator, gspec: NonlinearitySpec):
    """The stencil form F_h of F_{G,K} on ``op``'s lattice, and the Jacobian
    J_h of F_h(u) - f(u).

    With the pair weights W = -offdiag(A) and the exterior mass e = A 1 of
    each row, F_h(u)_i = sum_{j != i} W_ij G(u_i - u_j) + e_i G(u_i), which
    is A u for G = id.  This is the finite-difference scheme of del Teso &
    Lindgren (J. Sci. Comput. 2022) and del Teso, Endal & Jakobsen (SINUM
    2018); unlike the principal-value residual it has an exact Jacobian.
    """
    W = np.diag(np.diag(op.A)) - op.A
    e = op.A.sum(axis=1)

    def F_h(v):
        diff = v[:, None] - v[None, :]
        return np.sum(W * eval_G(gspec, diff), axis=1) + e * eval_G(gspec, v)

    def J_h(v):
        Wp = W * eval_G_prime(gspec, v[:, None] - v[None, :])
        diag = Wp.sum(axis=1) + e * eval_G_prime(gspec, v) - eval_f_prime(gspec, v)
        return np.diag(diag) - Wp

    return F_h, J_h


def solve_dirichlet_nonlinear(
    gspec: NonlinearitySpec,
    spec: KernelSpec,
    domain: DomainSpec,
    cfg: QuadratureConfig | None = None,
    solve_tol: float = 1e-6,
    max_iter: int = 40,
    op: DiscreteOperator | None = None,
):
    """F_{G,K} u = f(u) by Newton on the stencil form of F_{G,K}, then
    principal-value (PV) defect correction.

    The discrete problem is PV collocation: F_{G,K} of the solution field,
    evaluated by PV quadrature at every interior node, must match
    f(u) there to ``solve_tol`` in the sup norm.  That residual has no cheap
    Jacobian, but the stencil form F_h (``stencil_form``) approximates it
    and has one.  Stage 1 runs damped Newton on F_h(u) = f(u) from
    sign(c) |c|^(1/(1+gamma)) A^-1 1 with c = f(0): G is (1+gamma)-homogeneous
    and G'(0) = 0, so the start must be off 0 and of the right amplitude.
    Stage 2 repeats u <- u - t J_h(u)^-1 r_PV(u), one PV pass per residual,
    halving t while the sup residual does not fall.  ``max_iter`` bounds the
    accepted steps of each stage; the report describes stage 2.

    A PV pass is one ``eval_FGK_nodes`` call over all interior nodes: the
    engine's inner-ball drive plus the outer part from a cell table built
    once per solve.  A node whose inner drive does not converge keeps its
    unconverged value; the report counts these from the batch's
    ``converged`` flags, over all passes in ``suppressed_nonconvergence``
    and in the accepted pass alone in ``final_pass_suppressed``.
    """
    if gspec.g_kind == G_IDENTITY or gspec.gamma == 0.0:
        return solve_dirichlet(
            spec, gspec, domain, cfg, solve_tol=solve_tol, max_iter=max_iter, op=op
        )
    if op is None:
        op = assemble_LK_matrix(spec, domain, cfg)
    m = op.A.shape[0]
    c = float(eval_f(gspec, np.zeros(1))[0])

    # G(0) = 0, so u == 0 solves the problem whenever f(0) does not push it.
    if abs(c) <= solve_tol:
        report = SolveReport(
            residual_history=[abs(c)],
            iterations=0,
            converged=True,
            final_residual_sup=abs(c),
        )
        return solution_field(domain, op, np.zeros(m)), report

    F_h, J_h = stencil_form(op, gspec)
    w = np.linalg.solve(op.A, np.ones(m))
    u, _, _ = _damped_newton(
        lambda v: F_h(v) - eval_f(gspec, v), J_h,
        np.sign(c) * abs(c) ** (1.0 / (1.0 + gspec.gamma)) * w, solve_tol, max_iter,
    )

    # (iterate, suppressed non-convergences) of every PV pass
    passes = []
    table = cell_table(spec, domain.h, (domain.grid_n,) * domain.dim, op.cfg.eps_inner)

    def pv_residual(v):
        res = eval_FGK_nodes(
            solution_field(domain, op, v), gspec, spec, op.indices, op.cfg, table
        )
        passes.append((v.tobytes(), int(np.count_nonzero(~res.converged))))
        return res.value - eval_f(gspec, v)

    u, history, converged = _damped_newton(pv_residual, J_h, u, solve_tol, max_iter)
    report = SolveReport(
        residual_history=history,
        iterations=len(history) - 1,
        converged=converged,
        final_residual_sup=history[-1],
        suppressed_nonconvergence=sum(n for _, n in passes),
        final_pass_suppressed=dict(passes)[u.tobytes()],
    )
    fld = solution_field(domain, op, u)
    if not converged:
        _raise_nonconvergence("nonlinear Dirichlet solve did not converge", fld, report)
    return fld, report
