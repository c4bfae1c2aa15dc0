"""Fixtures shared by the test suite and the benchmark harness."""

from __future__ import annotations

import contextlib

import pytest


@pytest.fixture(scope="session")
def scalar_kernel():
    """A context manager that forces the scalar kernel inside its block.

    Every cell shard asks :func:`repro.sim.vector_engine.use_vector_kernel`
    which kernel to run, looking it up on the module at call time; inside
    ``with scalar_kernel():`` it always answers scalar.  There is no
    production flag for this: the scalar kernel is the reference the
    vector kernel is compared with.
    """
    from repro.sim import vector_engine

    @contextlib.contextmanager
    def forced():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(vector_engine, "use_vector_kernel",
                          lambda *args: False)
            yield

    return forced
