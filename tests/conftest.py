from __future__ import annotations

import os
import sys
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

import sascone
from sascone import BaseManifold, JoinParams, ReebRay

SRC = str(Path(sascone.__file__).resolve().parent.parent)

CP1 = BaseManifold.projective_space(1)
CP2 = BaseManifold.projective_space(2)
CP3 = BaseManifold.projective_space(3)
GENUS2 = BaseManifold.riemann_surface(2)
INDEX1 = BaseManifold(dim_c=2, c1_coeff=1, label="index-1")

BASES = (CP1, CP2, CP3, GENUS2, INDEX1)
FANO_BASES = (CP1, CP2, CP3, INDEX1)


def child_env() -> dict[str, str]:
    """The environment for a child interpreter: this one's, with SRC first on PYTHONPATH."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def fraction_fields(x) -> tuple:
    """What a caller can observe of a Fraction: type, value, hash, numerator, denominator and text."""
    return type(x), x, hash(x), x.numerator, type(x.numerator), x.denominator, type(x.denominator), str(x), repr(x)


@pytest.fixture
def cp1() -> BaseManifold:
    return CP1


@pytest.fixture
def cp2() -> BaseManifold:
    return CP2


@st.composite
def join_strategy(draw, bases=BASES, max_l: int = 10, max_w: int = 9):
    l1 = draw(st.integers(1, max_l))
    l2 = draw(st.integers(1, max_l))
    w1 = draw(st.integers(1, max_w))
    w2 = draw(st.integers(1, w1))
    base = draw(st.sampled_from(bases))
    assume(gcd(l1, l2) == 1 and gcd(w1, w2) == 1 and gcd(l2, l1 * w1 * w2) == 1)
    return JoinParams(base=base, l1=l1, l2=l2, w1=w1, w2=w2)


@st.composite
def ray_strategy(draw, max_v: int = 50):
    v1 = draw(st.integers(1, max_v))
    v2 = draw(st.integers(1, max_v))
    g = gcd(v1, v2)
    return ReebRay(v1 // g, v2 // g)
