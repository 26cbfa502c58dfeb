# tests/conftest.py
"""Shared fixtures and helpers; the randomized oracle suite is
session-scoped because each of its 50 cases runs a million-node Simpson
reference."""

import time
from types import SimpleNamespace

import numpy as np
import pytest

import planarcp.cli
import planarcp.green
from planarcp import HalfSpace, MaterialResponse, green_components, validate_material
from oracle import simpson_green_with_error

VACUUM = MaterialResponse(1.0 + 0.0j, 1.0 + 0.0j)


def false_zero_count(*args, count_zeros=planarcp.green._count_zeros):
    """_count_zeros with one D_s zero added to each row: a count that puts
    a zero where there is none, at every halving. It calls the walk bound
    here at import, so it may replace planarcp.green._count_zeros."""
    counts, sums = count_zeros(*args)
    counts[0] += 1
    return counts, sums


@pytest.fixture
def pool_sizes(monkeypatch):
    """The number of processes each sweep runs in, in order: this one and
    one per child it forks. A child's share of the jobs is evaluated in
    this process instead, so nothing is forked."""
    sizes = []
    run_parallel = planarcp.cli._run_parallel

    def counted(*args):
        sizes.append(1)
        return run_parallel(*args)

    def in_this_process(fn, jobs):
        sizes[-1] += 1
        result = [fn(job) for job in jobs]
        return lambda stop=False: result

    monkeypatch.setattr(planarcp.cli, "_run_parallel", counted)
    monkeypatch.setattr(planarcp.cli, "_fork", in_this_process)
    return sizes


@pytest.fixture(scope="session")
def oracle_suite():
    """50 randomized half-space cases: (material, z_A, engine, reference).

    Im eps, Im mu are log-uniform in [1e-4, 1] and z_A omega/c log-uniform
    in [1e-2, 1e2]. Re eps, Re mu are drawn from [0.3, 3]: the uniform-grid
    reference cannot resolve the near-real-axis surface-mode poles that
    negative Re values with tiny loss produce, so the randomized
    cross-check sticks to pole-free materials and the pole handling is
    covered by dedicated deterministic tests instead.
    """
    start = time.monotonic()
    rng = np.random.default_rng(20260823)
    cases = []
    for _ in range(50):
        eps = complex(rng.uniform(0.3, 3.0), 10.0 ** rng.uniform(-4.0, 0.0))
        mu = complex(rng.uniform(0.3, 3.0), 10.0 ** rng.uniform(-4.0, 0.0))
        z_A = 10.0 ** rng.uniform(-2.0, 2.0)
        geometry = HalfSpace(validate_material(eps, mu))
        engine = green_components(z_A, 1.0, geometry)
        ref_xx, ref_zz, oerr_xx, oerr_zz = simpson_green_with_error(
            z_A, 1.0, geometry)
        cases.append((eps, mu, z_A, engine, ref_xx, ref_zz, oerr_xx, oerr_zz))
    return SimpleNamespace(cases=cases, seconds=time.monotonic() - start)
