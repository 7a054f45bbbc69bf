"""Seeded generator of plants for the property suites and the benchmark.

`generate_instance` draws a plant with small integer entries (dyadic A in
discrete time) from an `InstanceSpec`, deterministically in its seed. A
spec that asks for a solvable plant gets one whose three subspace
conditions of the decoupling problem hold exactly: the disturbance enters
through a rational basis of V*, and the measurement channel is drawn until
the exact twin (`exact`) confirms the kernel condition and S* <= V*. No
solve path imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exact
from .errors import GenerationFailed
from .lattice import PlantSystem
from .subspaces import CONTINUOUS, DISCRETE, _eigvals


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
