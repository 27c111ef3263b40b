from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import settings

# Every run draws the same examples, so runs cover the same inputs and
# their timings compare.
settings.register_profile("classgraph", derandomize=True)
settings.load_profile("classgraph")

sys.path.insert(0, str(Path(__file__).parent))

from classgraph import (  # noqa: E402
    GroupExpr,
    MetabelianGroup,
    PermGroup,
    evaluate,
    to_permutation,
)
from corpus import corpus_entries  # noqa: E402


@dataclass(frozen=True)
class CorpusGroup:
    name: str
    expr: GroupExpr
    group: MetabelianGroup | PermGroup
    order: int
    spectrum: Counter
    perm: PermGroup


@pytest.fixture(scope="session")
def corpus() -> tuple[CorpusGroup, ...]:
    out = []
    for entry in corpus_entries():
        group = evaluate(entry.expr)
        perm = to_permutation(group)
        assert perm.order == entry.order, entry.name  # a faithful realization
        out.append(
            CorpusGroup(
                name=entry.name,
                expr=entry.expr,
                group=group,
                order=entry.order,
                spectrum=group.class_size_spectrum(),
                perm=perm,
            )
        )
    return tuple(out)
