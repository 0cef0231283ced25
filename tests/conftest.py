"""Shared fixtures: the proof chain per case, computed once.

Everything after the digit scan is deterministic, so each case's
pipeline.ProofChain is built once per pytest run and the test modules read
its cached stages.
"""

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
