"""The neighbor sampler's bulk drawer is numpy's ``integers(0, k)``.

``neighbor_sampling._drawer`` reads PCG64 words in bulk and reduces them
to ranges in Python, copying how numpy's ``Generator.integers`` serves a
32-bit range: the low half of each word first, its high half kept for
the next draw, Lemire's reduction with numpy's rejection threshold, and
no draw at all for a range of one.  Interleaving ranges of every kind
exercises the kept half (a draw that starts on a high half) and the
rejection path (ranges near ``2**32``).  Since the drawer copies
numpy's internals, this file runs against both the oldest supported
numpy and the newest.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.sampling.neighbor_sampling import _drawer

BOUNDS = (1, 2, 3, 7, 300, 1600, 2**31 + 5, 2**32 - 1)


@pytest.mark.parametrize("seed", range(50))
def test_drawer_matches_numpy_integers(seed):
    choose = random.Random(seed).choice
    bounds = [choose(BOUNDS) for _ in range(5000)]
    rng = np.random.default_rng(seed)
    expected = [int(rng.integers(0, k)) for k in bounds]
    draw = _drawer(seed)
    assert [draw(k) for k in bounds] == expected


@pytest.mark.parametrize("k", [0, -3, 2**32, 2**40])
def test_drawer_serves_only_32_bit_ranges(k):
    with pytest.raises(ValueError):
        _drawer(0)(k)
