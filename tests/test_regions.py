import itertools
import math
import re

import numpy as np
import pytest

from szegolab.errors import ConfigError
from szegolab.coefficients import telescoping_check
from szegolab.lattices import LatticeBox
from szegolab.regions import (CoordRange, Layer, Orthant, Region, SlotLess,
                              _boundary_sites, box_region, boundary_distance,
                              parse_region, slot_chain)
from tests.conftest import rand_hermitian


def test_slot_order_example_d2():
    box = LatticeBox.cube(2, 0, 1)
    bits = Region(2, (SlotLess(0, 1),)).evaluate(box.sites())
    got = {tuple(s) for s in box.sites()[bits]}
    assert got == {(0, 0), (0, 1), (1, 1)}


def test_empty_constraints_give_all_ones():
    box = LatticeBox.cube(3, -1, 1)
    assert Region(3, ()).evaluate(box.sites()).sum() == box.site_count


@pytest.mark.parametrize("d,side", [(1, 6), (2, 5), (2, 6), (3, 4), (3, 6)])
def test_wedge_partition_exact(d, side):
    box = LatticeBox.cube(d, 0, side - 1)
    total = np.zeros(box.site_count, dtype=int)
    for perm in itertools.permutations(range(d)):
        total += (box_region(d, 0, side - 1) & slot_chain(d, perm)).evaluate(box.sites())
    assert np.array_equal(total, np.ones(box.site_count, dtype=int))


def test_masks_are_bool_arrays_on_the_box():
    box = LatticeBox.cube(2, 0, 2)
    every = np.ones(box.site_count, bool)
    diags = np.array([np.diagonal(np.eye(box.site_count)) for _ in range(3)])
    assert telescoping_check(box, diags, every) == 0.0
    for bad in (every[:-1], every.astype(int), np.flatnonzero(every)):
        with pytest.raises(ConfigError):
            telescoping_check(box, diags, bad)
        with pytest.raises(ConfigError):
            _boundary_sites(bad, every, box)
    with pytest.raises(ConfigError):        # inner not inside outer
        _boundary_sites(every, ~every, box)
    with pytest.raises(ConfigError):        # a d=3 region on a d=2 box
        Region(3, ()).evaluate(box.sites())


def test_one_site_function_block_bound(rng):
    # || chi_a h(B_G) ||_{2p/gamma} <= C_{B,p}^p C_h^{2p/gamma} with p = 1,
    # gamma = 1, C_h >= 1, on random (B, G, a) instances
    p, gamma, c_h = 1.0, 1.0, 1.0
    for trial in range(50):
        n = int(rng.integers(4, 12))
        b = rand_hermitian(rng, n, scale=2.0)
        c_bp = float(np.max(np.diagonal(b @ b)))       # one-site blocks of B^2
        keep = rng.random(n) > 0.3
        if not keep.any():
            keep[0] = True
        idx = np.flatnonzero(keep)
        sub = b[np.ix_(idx, idx)]
        mu, v = np.linalg.eigh(sub)
        h_sub = (v * mu[None, :]) @ v.conj().T         # h = identity, |h| <= |x|
        a = int(rng.integers(0, idx.size))
        row_norm = float(np.linalg.norm(h_sub[a]))     # rank-1: every Schatten norm
        assert row_norm <= c_bp ** p * c_h ** (2 * p / gamma) + 1e-9


def test_boundary_distance_halfline_example():
    # inner [0, 2L), outer the half line: boundary sits at the first outer site
    L = 7
    box = LatticeBox.interval(-10, 40)
    inner = Region(1, (CoordRange(0, 0, 2 * L - 1),))
    outer = Region(1, (Orthant(0, +1),))
    got = boundary_distance([(L,), (2 * L,)], inner, outer, box)
    assert got.tolist() == [float(L), 0.0]
    far = Region(1, (CoordRange(0, -10, 40),))      # outer = inner: the cut is empty
    assert boundary_distance([(L,)], far, far, box).tolist() == [math.inf]


def test_boundary_distance_requires_containment():
    box = LatticeBox.interval(0, 9)
    inner = Region(1, (CoordRange(0, 0, 12),))
    outer = Region(1, (CoordRange(0, 0, 5),))
    with pytest.raises(ConfigError):
        boundary_distance([(1,)], inner, outer, box)


def test_boundary_distance_d2_against_bruteforce():
    box = LatticeBox.cube(2, -6, 6)
    inner = Region(2, (CoordRange(0, -2, 3), CoordRange(1, -1, 2)))
    outer = Region(2, (CoordRange(0, -5, 6), CoordRange(1, -4, 5)))
    inner_bits = inner.evaluate(box.sites())
    outer_bits = outer.evaluate(box.sites())
    sites = box.sites()
    # oracle: scan every outer-not-inner site for an inner nearest neighbor
    boundary = []
    lookup = {tuple(s): inner_bits[i] for i, s in enumerate(sites)}
    for i, s in enumerate(sites):
        if not outer_bits[i] or inner_bits[i]:
            continue
        s = tuple(s)
        for axis in range(2):
            for step in (-1, 1):
                nb = list(s)
                nb[axis] += step
                if lookup.get(tuple(nb), False):
                    boundary.append(s)
                    break
            else:
                continue
            break
    assert boundary
    oracle = [float(min(max(abs(a[0] - b[0]), abs(a[1] - b[1])) for b in boundary))
              for a in sites]
    assert boundary_distance(sites, inner, outer, box).tolist() == oracle


def test_region_grammar_roundtrip():
    region = parse_region(3, "orthant(1,+) & orthant(2,+) & layer(3,0) & order(1<2)")
    assert region == Region(3, (Orthant(0, +1), Orthant(1, +1), Layer(2, 0),
                                SlotLess(0, 1)))
    box = LatticeBox.cube(3, -2, 2)
    bits = region.evaluate(box.sites())
    sites = box.sites()[bits]
    for s in sites:
        assert s[0] >= 0 and s[1] >= 0 and s[2] == 0
        assert s[0] < s[1] or (s[0] == s[1])


def test_region_grammar_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_region(2, "wedge(1,2)")
    with pytest.raises(ConfigError):
        parse_region(2, "order(1,2)")
    with pytest.raises(ConfigError):
        parse_region(2, "layer(1, x)")


def test_orthant_sign_is_plus_or_minus_only():
    for sign, want in (("+", 1), ("+1", 1), ("-", -1), ("-1", -1)):
        assert parse_region(1, f"orthant(1,{sign})") == Region(1, (Orthant(0, want),))
    for sign in ("x", "1", "0", "+2", "--"):
        with pytest.raises(ConfigError, match=re.escape(f"orthant(1,{sign})")):
            parse_region(1, f"orthant(1,{sign})")
