"""Plant corpora for the benchmark workloads, with their exact-oracle
expectations.

Each workload runs a fixed corpus: its plants are drawn from the constant
`CORPUS_SEED`, so every run meets the same plants and the same outcomes,
today's `CertificateFailed` ops included, and the counts of attempted and
failed ops do not move from one run to the next. The workload seed sets the
order in which a run visits the plants (`op_order`). The expected verdicts
come from exact rational arithmetic (`geodd.exact`), never from the floating
code the benchmark times, and are computed here, at set-up, outside the
timed phase.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from geodd import GenerationFailed, InstanceSpec, PlantSystem, exact, generate_instance

MATRICES = ("A", "B", "H", "C", "D_y", "G_y", "E", "D_z", "G_z")
DOMAINS = ("continuous", "discrete")

# Plant of the package's own test suite whose every coupling-admissible K
# makes I + K D_y singular (the n = 3 "singular family" plant). Copied here
# so the benchmark does not depend on the test tree.
SINGULAR_FAMILY = {
    "A": [[0, 0, 0], [0, 0, 0], [-1, 0, 0]],
    "B": [[0, 0], [-1, 0], [0, -1]],
    "H": [[1, 0], [0, 1], [1, 0]],
    "C": [[-1, 0, 0], [0, 1, 1]],
    "D_y": [[1, 0], [0, -1]],
    "G_y": [[0, 0], [-1, -1]],
    "E": [[0, 0, 1]],
    "D_z": [[-1, 0]],
    "G_z": [[0, 0]],
}

# Seed of every workload's plant corpus. Not tuned: any value gives a corpus
# with the same rungs.
CORPUS_SEED = 1

OBSTRUCTION = "well_posedness_obstruction"
SOLVABLE = "solvable"


@dataclass(frozen=True)
class Expected:
    """Exact verdict of the decoupling conditions for one plant.

    `conditions` holds conditions i, ii and iii (A, B and C in the stable
    problem); `p1` is the exact verdict of the problem without stability.
    """

    conditions: tuple
    p1: str


@dataclass(frozen=True)
class Case:
    name: str
    plant: PlantSystem
    expected: Expected
    problem_path: str | None = None

    def fresh_plant(self) -> PlantSystem:
        return PlantSystem(*(getattr(self.plant, name).copy() for name in MATRICES),
                           time_domain=self.plant.time_domain)


# Plants per (domain, n) rung. The rungs whose outcome differs from plant to
# plant get the most plants; the costly large rungs get fewer.
P1_LADDER = {4: 12, 8: 12, 12: 8, 16: 4, 24: 2}
P2_LADDER = {4: 20, 6: 20, 8: 16, 10: 2, 12: 1}
# verdict-mix: (kind, n) -> plants per domain
VERDICT_MIX = {
    ("solvable", 4): 4, ("solvable", 6): 4, ("solvable", 8): 4,
    ("random", 3): 8, ("random", 4): 8, ("random", 6): 8, ("random", 8): 8,
    ("lifted", 6): 2, ("lifted", 8): 2, ("lifted", 12): 2, ("lifted", 16): 2,
}


def _spans(plant: PlantSystem):
    X = {name: exact.from_array(getattr(plant, name)) for name in MATRICES}
    V = exact.vstar_span(X["A"], X["B"], X["E"], X["D_z"])
    S = exact.sstar_span(X["A"], X["H"], X["C"], X["G_y"])
    return X, V, S


def _stack(plant, top, bottom):
    return exact.from_array(np.vstack([getattr(plant, top), getattr(plant, bottom)]))


def _lifted(S, n: int, extra: int):
    """Columns spanning S + (the last `extra` coordinates) in R^(n+extra)."""
    k = exact.shape(S)[1]
    return exact.vstack(exact.hstack(S, exact.zeros(n, extra)),
                        exact.hstack(exact.zeros(extra, k), exact.eye(extra)))


def exact_expectation(plant: PlantSystem) -> Expected:
    """Conditions i-iii and the p1 verdict in exact rational arithmetic."""
    n, m, q, r = plant.n, plant.m, plant.q, plant.r
    X, V, S = _spans(plant)
    kv = exact.shape(V)[1]
    V_ext = exact.vstack(V, exact.zeros(r, kv))
    # i: im [H; G_z] <= (V* + 0_Z) + im [B; D_z]
    target = exact.sum_spans(V_ext, _stack(plant, "B", "D_z"))
    cond_i = exact.contains_span(target, _stack(plant, "H", "G_z"))
    # ii: (S* + W) ^ ker [C G_y] <= ker [E G_z]
    domain = exact.intersect_spans(
        _lifted(S, n, q),
        exact.kernel(exact.from_array(np.hstack([plant.C, plant.G_y]))))
    image = exact.matmul(exact.from_array(np.hstack([plant.E, plant.G_z])), domain)
    cond_ii = all(x == 0 for row in image for x in row)
    # iii: S* <= V*
    cond_iii = exact.contains_span(V, S)
    conditions = (cond_i, cond_ii, cond_iii)
    failed = [label for label, ok in zip(("i", "ii", "iii"), conditions) if not ok]
    if failed:
        return Expected(conditions, f"infeasible({failed[0]})")

    # iv: some K of the coupling family keeps I + K D_y invertible. The
    # determinant has degree at most m in each family parameter, so m + 1
    # grid points per parameter decide it.
    annihilator = (exact.eye(n + r) if kv == 0 else
                   exact.transpose(exact.kernel(exact.transpose(V_ext))))
    family = exact.affine_k_family(
        exact.from_array(np.block([[plant.A, plant.H], [plant.E, plant.G_z]])),
        _stack(plant, "B", "D_z"),
        exact.from_array(np.hstack([plant.C, plant.G_y])),
        _lifted(S, n, q), annihilator)
    if family is None:
        return Expected(conditions, "no_family")
    witness = exact.det_grid_scan(family, X["D_y"], m + 1)
    return Expected(conditions, OBSTRUCTION if witness is None else SOLVABLE)


def _generated(rng, **spec) -> PlantSystem:
    """generate_instance on seeds drawn from rng; a seed whose generation
    fails is replaced by the next draw (the plant set still follows from
    the corpus seed alone)."""
    for _ in range(20):
        try:
            return generate_instance(InstanceSpec(seed=int(rng.integers(2**31)), **spec))
        except GenerationFailed:
            continue
    raise GenerationFailed(f"no plant for {spec}")


def _unimodular(n: int, rng):
    """Integer T with integer inverse: a permutation times n elementary
    row additions with multipliers +-1."""
    T = np.eye(n)[rng.permutation(n)]
    T_inv = T.T.copy()
    for _ in range(n):
        i, j = rng.choice(n, size=2, replace=False)
        c = float(rng.choice([-1, 1]))
        T[i] += c * T[j]
        T_inv[:, j] -= c * T_inv[:, i]
    return T, T_inv


def lifted_obstruction(n: int, time_domain: str, rng) -> PlantSystem:
    """The singular-family plant with a stable block appended, in seeded
    integer coordinates.

    The block is driven by the control input and seen by the measurement,
    but the disturbance does not reach it and the regulated output does not
    see it, so V* and S* only gain the block (V*) or nothing (S*) and the
    feedback family, hence the obstruction, is unchanged.
    """
    base = {name: np.array(M, dtype=float) for name, M in SINGULAR_FAMILY.items()}
    k = n - 3
    if time_domain == "continuous":
        diag = -rng.integers(1, 3, size=k).astype(float)
    else:
        diag = rng.choice([-0.5, 0.5], size=k)
    A2 = np.diag(diag) + np.triu(rng.integers(-1, 2, size=(k, k)), 1)
    A = np.block([[base["A"], np.zeros((3, k))], [np.zeros((k, 3)), A2]])
    B = np.vstack([base["B"], rng.integers(-1, 2, size=(k, 2))])
    H = np.vstack([base["H"], np.zeros((k, 2))])
    C = np.hstack([base["C"], rng.integers(-1, 2, size=(2, k))])
    E = np.hstack([base["E"], np.zeros((1, k))])
    T, T_inv = _unimodular(n, rng)
    return PlantSystem(T_inv @ A @ T, T_inv @ B, T_inv @ H, C @ T, base["D_y"],
                       base["G_y"], E @ T, base["D_z"], base["G_z"],
                       time_domain=time_domain)


def _ladder(rng, rungs, big_from: int):
    for domain in DOMAINS:
        for n, count in rungs.items():
            mp = 3 if n >= big_from else 2
            for j in range(count):
                plant = _generated(rng, n=n, m=mp, p=mp, q=1, r=1, time_domain=domain)
                yield f"{domain[0]}-n{n}-{j}", plant


def _verdict_mix(rng, cells):
    for domain in DOMAINS:
        for (kind, n), count in cells.items():
            for j in range(count):
                name = f"{domain[0]}-{kind}-n{n}-{j}"
                if kind == "solvable":
                    plant = _generated(rng, n=n, m=2, p=2, q=1, r=1, time_domain=domain)
                elif kind == "random":
                    plant = _generated(rng, n=n, m=1, p=1, q=1, r=1, time_domain=domain,
                                       solvable_by_construction=False)
                else:
                    plant = lifted_obstruction(n, domain, rng)
                yield name, plant


WORKLOADS = ("p1-cli-ladder", "p2-ladder", "verdict-mix")


def problem_json(plant: PlantSystem) -> dict:
    """The plant in the CLI's problem-file format."""
    out = {"dims": {"n": plant.n, "m": plant.m, "q": plant.q,
                    "p": plant.p, "r": plant.r},
           "time_domain": plant.time_domain}
    for name in MATRICES:
        out[name] = getattr(plant, name).tolist()
    return out


def generate(workload: str, workdir: str, limit=None):
    """Yield the cases of the workload's corpus with their exact
    expectations; p1-cli-ladder also writes one problem file per plant.

    `limit`, when given, caps the plants per rung (the self-tests use it
    to stay small).
    """
    rng = np.random.default_rng([CORPUS_SEED, WORKLOADS.index(workload)])
    cells = {"p1-cli-ladder": P1_LADDER, "p2-ladder": P2_LADDER,
             "verdict-mix": VERDICT_MIX}[workload]
    if limit is not None:
        cells = {key: min(count, limit) for key, count in cells.items()}
    if workload == "verdict-mix":
        plants = _verdict_mix(rng, cells)
    else:
        plants = _ladder(rng, cells, big_from=16 if workload == "p1-cli-ladder" else 99)
    for name, plant in plants:
        expected = exact_expectation(plant)
        if "lifted" in name and expected.p1 != OBSTRUCTION:
            raise AssertionError(f"{name}: lifted plant lost its obstruction ({expected.p1})")
        path = None
        if workload == "p1-cli-ladder":
            path = os.path.join(workdir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(problem_json(plant), fh)
        yield Case(name, plant, expected, path)


def op_order(workload: str, seed: int, count: int) -> list:
    """The order, drawn from the workload seed, in which a run visits its
    `count` cases."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return [int(i) for i in rng.permutation(count)]


def fingerprint(cases) -> str:
    """Digest of the plants and expectations, to show that repeated set-ups
    build the same cases."""
    h = hashlib.sha256()
    for c in cases:
        h.update(c.name.encode())
        h.update(c.plant.time_domain.encode())
        for name in MATRICES:
            h.update(np.ascontiguousarray(getattr(c.plant, name)).tobytes())
        h.update(repr(c.expected).encode())
    return h.hexdigest()
