"""Independent verification: the closed-loop record, decoupling
certificates, transfer-function sampling on a fixed circle around the
loop's spectrum, and stability checks. It reads a loop, never a plant, and
imports only `errors` and `subspaces`, so the solver (`synthesis`) and the
audit (`audit`) both build on it.

A certificate is checked on a subspace of the 2n-state loop. A compensator
built on a pair (V, S) comes with one in closed form,
W = {(x, p) : x in V, x - p in S}, which needs no rank decision; any other
loop is searched with the smallest invariant subspace containing im H^ (a
Krylov hull, whose rank decisions can miss on larger loops)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DimensionMismatch, SampleTooCloseToPole
from .subspaces import (
    DEFAULT_TOL,
    StabilityRegion,
    Subspace,
    ToleranceProfile,
    _eigvals,
    _kept,
    _linalg_state,
    _norm2,
    _qr_basis,
    invariant_hull,
    span_of,
)

POLE_CLEARANCE = 1e-6


@dataclass(frozen=True, eq=False)
class ClosedLoop:
    """Assembled loop Dx^ = A^ x^ + H^ w, z = C^ x^ + G^ w.

    `spectrum`, the eigenvalues of A^ in LAPACK's order, is computed on
    first use and kept, read-only, in the loop's memo (`subspaces._kept`):
    the frequency samples, their pole clearance, the stability verdict and
    the p2 check of `solve` all read the same array. The matrices are not
    to be changed in place.
    """

    A_hat: np.ndarray
    H_hat: np.ndarray
    C_hat: np.ndarray
    G_hat: np.ndarray
    W: np.ndarray
    time_domain: str

    @property
    def order(self) -> int:
        return self.A_hat.shape[0]

    @property
    @_kept
    def spectrum(self) -> np.ndarray:
        return _eigvals(self.A_hat)


@dataclass(frozen=True, eq=False)
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
