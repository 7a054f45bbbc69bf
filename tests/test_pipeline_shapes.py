"""End-to-end pipeline sweep across dimension mixes and both time domains.

Every solvable generated instance must synthesize, certify, and (for the
stabilized problem) pass the stability check; shape assumptions anywhere
in the pipeline show up here first.
"""

import numpy as np
import pytest

from geodd.audit import necessity_round_trip
from geodd.errors import GenerationFailed
from geodd.generate import InstanceSpec, generate_instance
from geodd.synthesis import analyze_p1, analyze_p2, close_loop, solve
from geodd.verify import certify_decoupled, stability_check

SHAPES = [
    (3, 1, 1, 1, 1),
    (3, 2, 2, 2, 1),
    (4, 3, 2, 3, 2),
    (5, 2, 2, 2, 1),
    (5, 1, 1, 2, 1),
    (6, 2, 1, 3, 2),
    (4, 2, 2, 2, 2),
    (3, 3, 1, 1, 1),
]


@pytest.mark.parametrize("domain", ["continuous", "discrete"])
def test_pipeline_across_shapes(domain):
    solved_p1 = solved_p2 = 0
    for n, m, q, p, r in SHAPES:
        for seed in range(2):
            try:
                sys = generate_instance(
                    InstanceSpec(seed=seed, n=n, m=m, q=q, p=p, r=r,
                                 time_domain=domain))
            except GenerationFailed:
                continue
            rep = analyze_p1(sys)
            if rep.solvable:
                comp, _ = solve(sys, "p1")
                cl = close_loop(sys, comp)
                assert certify_decoupled(cl).valid, (n, m, q, p, r, seed)
                trip = necessity_round_trip(sys, cl)
                assert trip["a"][0] and trip["b"][0], (n, m, q, p, r, seed)
                assert trip["S_in_V_residual"] <= 1e-8
                solved_p1 += 1
            rep2 = analyze_p2(sys)
            if rep2.solvable:
                comp2, _ = solve(sys, "p2")
                cl2 = close_loop(sys, comp2)
                assert certify_decoupled(cl2).valid, (n, m, q, p, r, seed)
                ok, _ = stability_check(cl2.A_hat, sys.region)
                assert ok, (n, m, q, p, r, seed)
                solved_p2 += 1
    assert solved_p1 >= 12
    assert solved_p2 >= 2
