"""Independent verification: decoupling certificates, transfer-function
sampling on a fixed circle around the loop's spectrum, stability checks,
impulse simulation, and a seeded generator of solvable plants for the
property suites.

A certificate is checked on a subspace of the 2n-state loop. A compensator
built on a pair (V, S) comes with one in closed form,
W = {(x, p) : x in V, x - p in S}, which needs no rank decision; any other
loop is searched with the smallest invariant subspace containing im H^ (a
Krylov hull, whose rank decisions can miss on larger loops)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from . import exact
from .errors import (
    ContinuousNotSupported,
    DimensionMismatch,
    GenerationFailed,
    SampleTooCloseToPole,
)
from .geometry import input_containing_residual, output_nulling_residual
from .lattice import PlantSystem, coupling_conditions
from .subspaces import (
    CONTINUOUS,
    DEFAULT_TOL,
    DISCRETE,
    StabilityRegion,
    Subspace,
    ToleranceProfile,
    _eigvals,
    _linalg_state,
    _norm2,
    _qr_basis,
    containment_residual,
    extended_ops,
    invariant_hull,
    span_of,
)
from .synthesis import ClosedLoop

POLE_CLEARANCE = 1e-6


@dataclass(frozen=True)
class DecouplingCertificate:
    """An A^-invariant subspace between im H^ and ker C^, plus the residuals
    that make the claim checkable.

    The invariance and kernel residuals are relative to the norms of the
    loop matrices they apply (the subspace basis is orthonormal, so they
    would otherwise scale with the data); the feedthrough norm is absolute.
    On a pair certificate `residual_invariance` is the larger of the
    A^-invariance residual and the relative distance of im H^ from the
    subspace, which the hull contains by construction.
    """

    invariant_subspace: Subspace
    residual_invariance: float
    residual_kernel: float
    feedthrough_norm: float
    tolerance: float

    @property
    def valid(self) -> bool:
        return (
            self.residual_invariance <= self.tolerance
            and self.residual_kernel <= self.tolerance
            and self.feedthrough_norm <= self.tolerance
        )


def _pair_subspace(V: Subspace, S: Subspace) -> Subspace:
    """W = {(x, p) : x in V, x - p in S} in the loop state space, from the
    orthonormalized basis [V 0; V -S] (full column rank for any V, S)."""
    n, v = V.ambient_dim, V.dim
    basis = np.zeros((2 * n, v + S.dim))
    basis[:n, :v] = V.basis
    basis[n:, :v] = V.basis
    basis[n:, v:] = -S.basis
    return Subspace._adopt(2 * n, _qr_basis(basis))


def certify_decoupled(cl: ClosedLoop, tol: ToleranceProfile = DEFAULT_TOL,
                      pair: tuple[Subspace, Subspace] | None = None,
                      ) -> DecouplingCertificate:
    """Certificate on the subspace W of the pair (V, S) the compensator was
    built on, or, without a pair, on the smallest invariant subspace
    containing im H^.

    A pair certificate is valid when A^W <= W, im H^ <= W, C^W = 0 and
    G^ = 0 hold to the tolerance; a compensator built on another pair fails
    it, and may still pass the hull certificate.
    """
    # Anchor the rank decision to the loop's scale: a disturbance input
    # that the compensator cancels exactly leaves H^ at roundoff level, and
    # its noise directions must not seed the hull.
    scale = max(1.0, _norm2(cl.A_hat))
    if pair is None:
        I_hat = invariant_hull("smallest_containing", cl.A_hat,
                               span_of(cl.H_hat, tol, scale=scale), tol)
    elif cl.order != 2 * pair[0].ambient_dim:
        raise DimensionMismatch("a pair certificate needs an order-n compensator")
    else:
        I_hat = _pair_subspace(*pair)
    B = I_hat.basis
    if I_hat.is_trivial:
        inv_resid = 0.0
        ker_resid = 0.0
    else:
        mapped = cl.A_hat @ B
        inv_resid = _norm2(mapped - B @ (B.T @ mapped)) / scale
        ker_resid = _norm2(cl.C_hat @ B) / (1.0 + _norm2(cl.C_hat))
    if pair is not None and cl.H_hat.size:
        outside = cl.H_hat - B @ (B.T @ cl.H_hat)
        inv_resid = max(inv_resid, _norm2(outside) / (1.0 + _norm2(cl.H_hat)))
    feed = _norm2(cl.G_hat)
    return DecouplingCertificate(I_hat, inv_resid, ker_resid, feed, tol.residual)


@_linalg_state("Singular matrix")
def _stack_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """numpy.linalg.solve(a, b), bit for bit, for a complex stack a of
    square matrices and a real matrix b shared by every member: the solve
    gufunc that numpy calls, without its wrapper. A singular member raises
    LinAlgError("Singular matrix"), as numpy's does."""
    return _umath_linalg.solve(a, b, signature="DD->D")


@_linalg_state("SVD did not converge")
def _stack_singular_values(G: np.ndarray) -> np.ndarray:
    """numpy.linalg.svd(G, compute_uv=False), bit for bit, for a complex
    stack G: the gufunc that numpy calls, without its wrapper."""
    return _umath_linalg.svd(G, signature="D->d")


def transfer_samples(cl: ClosedLoop, lambdas) -> float:
    """Max spectral norm of the disturbance-to-output response
    G(lambda) = C^ (lambda I - A^)^-1 H^ + G^ over the sample points.

    Every point must clear the loop's spectrum (`cl.spectrum`) by 1e-6;
    otherwise SampleTooCloseToPole names the first one that does not. The
    matrices lambda I - A^ of all the points are written into one stack, as
    0.0 - A^ with each lambda then added to its diagonal; the stack's
    resolvents are solved in one call of the solve gufunc behind
    `numpy.linalg.solve` (`_stack_solve`), and their norms taken in one call
    of the gufunc behind `numpy.linalg.svd(..., compute_uv=False)`
    (`_stack_singular_values`), each in numpy.linalg's error state. The
    result equals that of solving one point at a time on
    lambda * eye(n) - A^ with numpy.linalg, bit for bit; the stack differs
    from that product only in the sign of some exact zeros. A point that
    clears the spectrum but leaves lambda I - A^ singular raises
    LinAlgError("Singular matrix"), as numpy's solve does.
    """
    lams = np.array([complex(lam) for lam in lambdas], dtype=complex)
    poles = cl.spectrum
    n = cl.order
    if poles.size:
        near = np.abs(poles - lams[:, None]).min(axis=1) < POLE_CLEARANCE
        if near.any():
            lam = complex(lams[np.argmax(near)])
            raise SampleTooCloseToPole(f"sample {lam} within 1e-6 of a pole")
    stack = np.empty((lams.size, n, n), dtype=complex)
    np.subtract(0.0, cl.A_hat, out=stack)
    stack.reshape(lams.size, n * n)[:, ::n + 1] += lams[:, None]
    G = cl.C_hat @ _stack_solve(stack, cl.H_hat) + cl.G_hat
    if not G.size:
        return 0.0
    # fmax skips a NaN norm, as the max of a running maximum does
    return float(np.fmax.reduce(_stack_singular_values(G).max(axis=-1),
                                initial=0.0))


def default_lambdas(cl: ClosedLoop, count: int = 20) -> list:
    """`count` points on the circle of radius R = 2 max(1, rho), rho the
    largest pole modulus of the loop's spectrum (`cl.spectrum`):
    lambda_k = R exp(2 pi i (k + 0.3) / count) for k = 0 .. count - 1.

    Every point clears every pole by at least max(1, rho), so none is ever
    rejected; the offset 0.3 keeps every point off the real axis and no two
    points conjugate. The points depend only on the spectrum and `count`.
    """
    poles = cl.spectrum
    radius = 2.0 * max(1.0, float(np.max(np.abs(poles))) if poles.size else 1.0)
    angles = 2.0 * np.pi * (np.arange(count) + 0.3) / count
    return list(radius * np.exp(1j * angles))


def stability_check(A_hat, region: StabilityRegion) -> tuple[bool, np.ndarray]:
    """Whether every eigenvalue of A_hat lies inside the region by more than
    its boundary guard (`StabilityRegion.outside`), and the eigenvalues
    sorted."""
    eigs = _eigvals(np.atleast_2d(np.asarray(A_hat, dtype=float)))
    return not region.outside(eigs), np.sort_complex(eigs)


def simulate_impulse(cl: ClosedLoop, steps: int = 50) -> float:
    """Peak |z| under unit disturbance impulses, one channel at a time.

    Discrete time only; continuous loops are checked through
    transfer_samples instead.
    """
    if cl.time_domain != DISCRETE:
        raise ContinuousNotSupported("impulse simulation needs discrete time")
    n = cl.order
    q = cl.H_hat.shape[1]
    peak = 0.0
    for j in range(q):
        x = np.zeros(n)
        w = np.zeros(q)
        w[j] = 1.0
        z = cl.C_hat @ x + cl.G_hat @ w
        peak = max(peak, float(np.max(np.abs(z))) if z.size else 0.0)
        x = cl.A_hat @ x + cl.H_hat @ w
        for _ in range(1, steps):
            z = cl.C_hat @ x
            peak = max(peak, float(np.max(np.abs(z))) if z.size else 0.0)
            x = cl.A_hat @ x
    return peak


def necessity_round_trip(sys: PlantSystem, cl: ClosedLoop,
                         tol: ToleranceProfile = DEFAULT_TOL) -> dict:
    """Extract V = p(I^), S = i(I^) from a certified loop and re-check the
    coupling conditions they must satisfy."""
    cert = certify_decoupled(cl, tol)
    I_hat = cert.invariant_subspace
    V = extended_ops("project", I_hat, sys.n, tol)
    S = extended_ops("intersect", I_hat, sys.n, tol)
    conds = coupling_conditions(sys, V, S, tol)
    return {
        "certificate": cert,
        "V": V,
        "S": S,
        "output_nulling_residual": output_nulling_residual(
            V, sys.control_quadruple(), tol),
        "input_containing_residual": input_containing_residual(
            S, sys.observation_quadruple(), tol),
        "a": conds["a"],
        "b": conds["b"],
        "S_in_V_residual": containment_residual(S, V),
    }


@dataclass(frozen=True)
class InstanceSpec:
    """Deterministic recipe for one random plant."""

    seed: int
    n: int = 4
    m: int = 2
    q: int = 1
    p: int = 2
    r: int = 1
    time_domain: str = CONTINUOUS
    solvable_by_construction: bool = True

    def __post_init__(self):
        if min(self.n, self.m, self.q, self.p, self.r) <= 0:
            raise ValueError("all dimensions must be positive")


def _rand_int_matrix(rng, rows, cols, lo=-2, hi=2):
    return rng.integers(lo, hi + 1, size=(rows, cols)).astype(float)


def generate_instance(spec: InstanceSpec) -> PlantSystem:
    """Random rational plant (integer entries; dyadic A in discrete time),
    deterministic in the seed.

    With solvable_by_construction the disturbance enters through the
    supremal output-nulling subspace (exactly, via a denominator-cleared
    rational basis) and the measurement channel is drawn until the kernel
    condition and the star inclusion hold, so the three subspace conditions
    of the decoupling problem are satisfied by construction.
    """
    rng = np.random.default_rng(spec.seed)
    n, m, q, p, r = spec.n, spec.m, spec.q, spec.p, spec.r
    if not spec.solvable_by_construction:
        mats = [_rand_int_matrix(rng, a, b) for a, b in
                ((n, n), (n, m), (n, q), (p, n), (p, m), (p, q),
                 (r, n), (r, m), (r, q))]
        return PlantSystem(*mats, time_domain=spec.time_domain)

    for _ in range(200):
        A = _rand_int_matrix(rng, n, n)
        A -= float(rng.integers(0, 3)) * np.eye(n)
        if spec.time_domain == DISCRETE:
            # halve (exactly, keeping entries dyadic) until inside the disc
            while np.max(np.abs(_eigvals(A))) >= 0.95:
                A = A / 2.0
        B = _rand_int_matrix(rng, n, m)
        E = _rand_int_matrix(rng, r, n)
        D_z = _rand_int_matrix(rng, r, m, lo=-1, hi=1)
        V_rat = exact.vstar_span(
            exact.from_array(A), exact.from_array(B),
            exact.from_array(E), exact.from_array(D_z))
        dim_v = exact.shape(V_rat)[1]
        if dim_v == 0:
            continue
        V_int = exact.to_array(exact.clear_denominators(V_rat))
        M = _rand_int_matrix(rng, dim_v, q)
        N = _rand_int_matrix(rng, m, q, lo=-1, hi=1)
        H = V_int @ M + B @ N
        G_z = D_z @ N
        if not np.any(H) or np.max(np.abs(H)) > 12:
            continue

        found = None
        for _ in range(20):
            C = _rand_int_matrix(rng, p, n)
            G_y = _rand_int_matrix(rng, p, q, lo=-1, hi=1)
            if _solvable_measurement(A, H, C, G_y, E, G_z, V_rat):
                found = (C, G_y)
                break
        if found is None and p >= q:
            C = _rand_int_matrix(rng, p, n)
            G_y = np.vstack([np.eye(q), np.zeros((p - q, q))])
            if _solvable_measurement(A, H, C, G_y, E, G_z, V_rat):
                found = (C, G_y)
        if found is None:
            continue
        C, G_y = found
        D_y = (np.zeros((p, m)) if rng.integers(0, 2) == 0
               else _rand_int_matrix(rng, p, m, lo=-1, hi=1))
        return PlantSystem(A, B, H, C, D_y, G_y, E, D_z, G_z,
                           time_domain=spec.time_domain)
    raise GenerationFailed(f"no solvable instance found for seed {spec.seed}")


def _solvable_measurement(A, H, C, G_y, E, G_z, V_rat) -> bool:
    """Exact check of the kernel condition and the star inclusion for a
    candidate measurement channel."""
    S_rat = exact.sstar_span(
        exact.from_array(A), exact.from_array(H),
        exact.from_array(C), exact.from_array(G_y))
    if not exact.contains_span(V_rat, S_rat):
        return False
    ker_cg = exact.kernel(exact.from_array(np.hstack([C, G_y])))
    dom = exact.intersect_spans(exact.lifted_span(S_rat, H.shape[1]), ker_cg)
    EG = exact.from_array(np.hstack([E, G_z]))
    image = exact.matmul(EG, dom)
    return all(x == 0 for row in image for x in row)
