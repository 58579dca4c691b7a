from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from claudette.corpus import load_corpus
from claudette.features import Rows

FIXTURES = Path(__file__).parent / "fixtures"


def rows_from_pairs(rows, dim: int) -> Rows:
    """A ``Rows`` batch from one list of (index, value) pairs per row; each
    row's indices must be strictly increasing and within [0, dim)."""
    indptr, indices, data = [0], [], []
    for pairs in rows:
        idx = [int(i) for i, _ in pairs]
        if any(a >= b for a, b in zip(idx, idx[1:])) or any(not 0 <= i < dim for i in idx):
            raise ValueError(f"row indices {idx} are not strictly increasing within [0, {dim})")
        indices.extend(idx)
        data.extend(float(v) for _, v in pairs)
        indptr.append(len(indices))
    return Rows(
        np.array(indptr, dtype=np.int64),
        np.array(indices, dtype=np.int64),
        np.array(data, dtype=np.float64),
        dim,
    )


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def mini_dir() -> Path:
    return FIXTURES / "mini"


@pytest.fixture(scope="session")
def planted_dir() -> Path:
    return FIXTURES / "planted"


@pytest.fixture(scope="session")
def adjacency_dir() -> Path:
    return FIXTURES / "adjacency"


@pytest.fixture(scope="session")
def mini_corpus():
    return load_corpus(FIXTURES / "mini")


@pytest.fixture(scope="session")
def planted_corpus():
    return load_corpus(FIXTURES / "planted")


@pytest.fixture(scope="session")
def adjacency_corpus():
    return load_corpus(FIXTURES / "adjacency")
