"""The load mix is pinned byte for byte.

``bench/make_expected.py`` froze ``bench/pool.json`` from
``build_mix(0, 32)`` and ``build_mix(2, 400)``, and every ``repro-eval
loadgen`` run draws its requests from ``build_mix(seed)``: a change to
the two fixed kernels, to the fuzz generator's stream or to the mix's
caps silently changes what every serving number measures.  The digests
below are the sha256 of the canonical JSON of three mixes; they are
the same under every ``PYTHONHASHSEED``.
"""

import dataclasses
import hashlib

import pytest

from repro.api import canonical_json
from repro.server import build_mix

PINNED = [
    ((0, 16), {},
     "b1ebad08c818e8ace90e1efee0825204f22045f8a9ecefc9e098b989a1975551"),
    ((5, 3), {},
     "3cdeef30c6db864795c2bf208ce14f223e4e328153b5dce0a2ca6b0f924610c7"),
    ((2, 8), {"include_workloads": False},
     "1bc07c505adb5edc300daec30598eae0bfc6cc26676a4472ffb83580082d76d1"),
]


@pytest.mark.parametrize("args, kwargs, digest", PINNED)
def test_build_mix_is_byte_stable(args, kwargs, digest):
    mix = build_mix(*args, **kwargs)
    text = canonical_json([dataclasses.asdict(item) for item in mix])
    assert hashlib.sha256(text.encode()).hexdigest() == digest

