"""Independent output checks.

Compensators are checked with the benchmark's own closed-loop algebra (a
linear fractional transformation written here in numpy, not geodd's
`close_loop` or `transfer_samples`). Verdicts are checked against the exact
expectations of `cases.exact_expectation`.

Every check returns a `Verdict`: `ok` when the output passed, and `wrong`
with a reason when the program asserted something the check disproves (a
verdict the exact oracle contradicts, or a compensator reported as solved
that does not decouple or does not stabilize). An output that is neither is
a refusal: the op failed, but nothing false was claimed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cases import OBSTRUCTION, SOLVABLE

# ||T_zw(lam)|| relative to c_size ||(lam I - A_cl)^-1|| h_size + g_size (see
# Loop), the size the response would have without cancellation. Decoupled
# loops sit at roundoff; a loop that leaks sits far above this.
DECOUPLED_RATIO = 1e-7
SAMPLE_ANGLES = 2.0 * np.pi * (np.arange(8) + 0.3) / 8.0
CONDITION_LABELS = {"i": 0, "ii": 1, "iii": 2, "A": 0, "B": 1, "C": 2}


@dataclass(frozen=True)
class Verdict:
    ok: bool
    wrong: str | None = None
    ratio: float | None = None     # worst relative ||T_zw|| sample
    ac_norm: float | None = None   # ||A_c||_2 of a checked compensator

    @classmethod
    def refused(cls):
        return cls(False)

    @classmethod
    def contradicts(cls, reason: str):
        return cls(False, reason)


@dataclass(frozen=True)
class Loop:
    """Closed loop dx = A x + H w, z = C x + G w, with the sizes C, H and G
    would have without cancellation (sums of the norms of their terms)."""

    A: np.ndarray
    H: np.ndarray
    C: np.ndarray
    G: np.ndarray
    c_size: float
    h_size: float
    g_size: float


def _norm(M) -> float:
    return float(np.linalg.norm(M, 2)) if M.size else 0.0


def closed_loop(plant, A_c, B_c, C_c, D_c):
    """The plant under u = C_c xc + D_c y, xc' = A_c xc + B_c y, or None
    when the loop is not well posed."""
    p = plant.p
    loop = np.eye(p) - plant.D_y @ D_c
    if np.linalg.cond(loop) > 1e12:
        return None
    # y = L^-1 (C x + D_y C_c xc + G_y w)
    Y = np.linalg.solve(loop, np.hstack([plant.C, plant.D_y @ C_c, plant.G_y]))
    n, nc = plant.n, A_c.shape[0]
    Yx, Yc, Yw = Y[:, :n], Y[:, n:n + nc], Y[:, n + nc:]
    # u = D_c y + C_c xc
    Ux, Uc, Uw = D_c @ Yx, C_c + D_c @ Yc, D_c @ Yw
    A_cl = np.block([[plant.A + plant.B @ Ux, plant.B @ Uc],
                     [B_c @ Yx, A_c + B_c @ Yc]])
    H_cl = np.vstack([plant.H + plant.B @ Uw, B_c @ Yw])
    C_cl = np.hstack([plant.E + plant.D_z @ Ux, plant.D_z @ Uc])
    G_cl = plant.G_z + plant.D_z @ Uw
    Dz, Dc, B = _norm(plant.D_z), _norm(D_c), _norm(plant.B)
    c_size = _norm(plant.E) + Dz * (Dc * _norm(Yx) + _norm(C_c) + Dc * _norm(Yc))
    h_size = _norm(plant.H) + (B * Dc + _norm(B_c)) * _norm(Yw)
    g_size = _norm(plant.G_z) + Dz * Dc * _norm(Yw)
    return Loop(A_cl, H_cl, C_cl, G_cl, c_size, h_size, g_size)


def decoupling_ratio(loop: Loop) -> float:
    """Worst ||T_zw(lam)|| relative to the size it would have without
    cancellation, on a circle at twice the spectral radius (so every
    sample clears the spectrum). The sizes come from the plant and
    compensator data, not from the closed-loop matrices, whose blocks may
    themselves cancel to roundoff."""
    A = loop.A
    radius = 2.0 * max(1.0, float(np.max(np.abs(np.linalg.eigvals(A)))))
    worst = 0.0
    for phi in SAMPLE_ANGLES:
        shifted = radius * np.exp(1j * phi) * np.eye(A.shape[0]) - A
        T = loop.C @ np.linalg.solve(shifted, loop.H) + loop.G
        resolvent = 1.0 / np.linalg.svd(shifted, compute_uv=False)[-1]
        scale = loop.c_size * resolvent * loop.h_size + loop.g_size
        if scale > 0:
            worst = max(worst, _norm(T) / scale)
    return worst


def spectrum_stable(A_cl, time_domain: str) -> bool:
    eigs = np.linalg.eigvals(A_cl)
    if time_domain == "continuous":
        return bool(np.all(eigs.real < 0))
    return bool(np.all(np.abs(eigs) < 1))


def check_compensator(plant, A_c, B_c, C_c, D_c, stable: bool) -> Verdict:
    """A compensator the program reported as solved: it must close a well
    posed loop that decouples w from z and, for p2, is stable."""
    A_c, B_c, C_c, D_c = (np.atleast_2d(np.asarray(M, dtype=float))
                          for M in (A_c, B_c, C_c, D_c))
    nc = A_c.shape[0]
    if (A_c.shape != (nc, nc) or B_c.shape != (nc, plant.p)
            or C_c.shape != (plant.m, nc) or D_c.shape != (plant.m, plant.p)):
        return Verdict.contradicts("compensator shape does not fit the plant")
    if not all(np.isfinite(M).all() for M in (A_c, B_c, C_c, D_c)):
        return Verdict.contradicts("compensator has non-finite entries")
    loop = closed_loop(plant, A_c, B_c, C_c, D_c)
    ac_norm = _norm(A_c)
    if loop is None:
        return Verdict(False, "loop is not well posed", None, ac_norm)
    ratio = decoupling_ratio(loop)
    if ratio > DECOUPLED_RATIO:
        return Verdict(False, f"T_zw does not vanish (relative {ratio:.1e})", ratio, ac_norm)
    if stable and not spectrum_stable(loop.A, plant.time_domain):
        return Verdict(False, "closed loop is not stable", ratio, ac_norm)
    return Verdict(True, None, ratio, ac_norm)


def _condition_mismatch(conditions: dict, expected) -> str | None:
    """Label of a condition i-iii (A-C) whose pass flag the oracle refutes."""
    for label, passed in conditions.items():
        idx = CONDITION_LABELS.get(label)
        if idx is not None and passed is not None and bool(passed) != expected.conditions[idx]:
            return f"condition {label} reported {passed}, exact {expected.conditions[idx]}"
    return None


def check_p1_report(overall: str, conditions: dict, expected) -> Verdict:
    """A p1 analysis verdict against the exact one. `numerical_failure`
    is a refusal."""
    mismatch = _condition_mismatch(conditions, expected)
    if mismatch:
        return Verdict.contradicts(mismatch)
    if overall == "numerical_failure":
        return Verdict.refused()
    if overall != expected.p1:
        return Verdict.contradicts(f"verdict {overall}, exact {expected.p1}")
    return Verdict(True)


def check_p2_report(overall: str, conditions: dict, notes: dict, expected) -> Verdict:
    """A p2 analysis verdict. The oracle decides conditions A-C and, when
    they hold, F (the same well-posedness question as p1's iv); the
    stabilizability precondition and the fixed-spectrum conditions D and E
    are not decided exactly, so a verdict resting on them is accepted."""
    mismatch = _condition_mismatch(conditions, expected)
    if mismatch:
        return Verdict.contradicts(mismatch)
    if "F" in conditions and all(expected.conditions):
        if notes.get("F") == "family construction failed":
            return Verdict.refused()
        if bool(conditions["F"]) != (expected.p1 == SOLVABLE):
            return Verdict.contradicts(f"condition F reported {conditions['F']}, exact {expected.p1}")
    if overall == SOLVABLE and expected.p1 != SOLVABLE:
        return Verdict.contradicts(f"verdict solvable, exact {expected.p1}")
    if overall == OBSTRUCTION and expected.p1 != OBSTRUCTION:
        return Verdict.contradicts(f"verdict {OBSTRUCTION}, exact {expected.p1}")
    return Verdict(True)
