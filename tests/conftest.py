"""Shared fixtures: the proof chain per case, computed once.

Everything after the digit scan is deterministic, so each case's
pipeline.ProofChain is built once per pytest run and the test modules read
its cached stages.
"""

import contextlib
import signal

import pytest

from cyclobound.pipeline import ProofChain

CASE_IDS = ("15-41", "15-5581", "10-271")


@pytest.fixture(scope="session")
def chains() -> dict:
    return {cid: ProofChain(cid) for cid in CASE_IDS}


@pytest.fixture(scope="session")
def reductions(chains) -> dict:
    """case id -> ReductionReport for the absolute bound."""
    return {cid: ch.reduction for cid, ch in chains.items()}


@pytest.fixture
def deadline():
    """deadline(seconds) is a context manager that fails its block with
    TimeoutError once it has run that long, so a kernel loop that never
    ends fails the test instead of hanging the run (pytest-timeout is not
    a dependency).  Where SIGALRM is missing it imposes no limit."""

    @contextlib.contextmanager
    def limit(seconds: int):
        if not hasattr(signal, "SIGALRM"):
            yield
            return

        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        old = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)

    return limit
