"""Shared plant fixtures. geodd is imported inside each fixture, not at
module top, so that an import that breaks geodd (say, a cycle) fails only
the tests that use it, and `test_structure.py` still names the cycle."""

import numpy as np
import pytest


@pytest.fixture
def mismatched_plant():
    from geodd import PlantSystem

    # A K satisfying the coupling inclusion exists although S is not inside
    # V. The disturbance column equals B's first column; flipping its sign
    # leaves the hand-checkable K below with no solution at all.
    return PlantSystem(
        A=[[0, 0, 0], [0, 0, 0], [0, -1, 1]],
        B=[[-1, 0], [1, 0], [0, 0]],
        H=[[-1], [1], [0]],
        C=[[1, 1, 0], [0, 1, 0]],
        D_y=np.zeros((2, 2)),
        G_y=[[-1], [0]],
        E=[[1, 0, 0]],
        D_z=[[0, 1]],
        G_z=[[1]],
    )


@pytest.fixture
def mismatched_plant_pair():
    from geodd import span_of

    V = span_of(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
    S = span_of(np.array([[0.0], [2.0], [7.0]]))
    return V, S


@pytest.fixture
def singular_family_plant():
    from geodd import PlantSystem

    # Every K satisfying the coupling inclusion makes I + K D_y singular.
    return PlantSystem(
        A=[[0, 0, 0], [0, 0, 0], [-1, 0, 0]],
        B=[[0, 0], [-1, 0], [0, -1]],
        H=[[1, 0], [0, 1], [1, 0]],
        C=[[-1, 0, 0], [0, 1, 1]],
        D_y=[[1, 0], [0, -1]],
        G_y=[[0, 0], [-1, -1]],
        E=[[0, 0, 1]],
        D_z=[[-1, 0]],
        G_z=[[0, 0]],
    )


@pytest.fixture(params=[0, 1], ids=["n0", "n1"])
def float_singular_witness_plant(request):
    from geodd import PlantSystem

    # K = [1 k2] satisfies the coupling inclusion, and det(I + K D_y) =
    # 2^-40 k2: not identically zero, but the exact grid's first nonsingular
    # member, K = [1 1], has a float well-posedness margin of 4.5e-13, below
    # DELTA_WP. A static plant, and the same with one stable state.
    n = request.param
    return PlantSystem(
        A=-np.eye(n), B=np.zeros((n, 1)), H=np.zeros((n, 1)), C=np.zeros((2, n)),
        D_y=[[-1], [2.0 ** -40]],
        G_y=[[1], [0]],
        E=np.zeros((1, n)),
        D_z=[[1]],
        G_z=[[-1]],
    )


@pytest.fixture
def scalar_channel_plant():
    from geodd import PlantSystem

    # Scalar-channel plant whose decoupling compensators are not exhausted
    # by the canonical construction.
    return PlantSystem(
        A=np.eye(2),
        B=[[-1], [0]],
        H=[[1], [0]],
        C=[[1, 0]],
        D_y=[[1]],
        G_y=[[1]],
        E=[[0, -1]],
        D_z=[[0]],
        G_z=[[0]],
    )


@pytest.fixture
def uncoupled_disturbance_plant():
    from geodd import PlantSystem

    # The disturbance image leaves V* + im B: coupling condition (a) fails
    # on the star pair while (b) holds, and V* of the input-extended
    # quadruple is larger than the plant's V*.
    return PlantSystem(
        A=[[0, 1, 1], [1, 1, 0], [0, 1, 0]],
        B=[[0], [0], [-1]],
        H=[[-1], [0], [-1]],
        C=[[0, 0, -1]],
        D_y=[[0]],
        G_y=[[0]],
        E=[[-1, 0, 0]],
        D_z=[[0]],
        G_z=[[0]],
    )
