from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from strongedge import (GenSpec, generate, girth, mad, serialize_instance,
                        trace_faces)
from tests.helpers import bfs_girth, subset_mad


def edges_of(inst):
    g = inst.graph
    return [(g.labels[u], g.labels[v]) for u, v in g.edges]


def test_cycle_family():
    inst = generate(GenSpec("cycle", 9))
    g = inst.graph
    assert g.n == g.m == 9
    assert all(g.degree(v) == 2 for v in range(9))
    assert inst.rotation == tuple(g.adj)
    assert inst.properties["planar"] == "1"
    trace_faces(g, inst.rotation)  # embeddable as written


def test_tree_family():
    for seed in range(6):
        inst = generate(GenSpec("tree", 30, delta=3, seed=seed))
        g = inst.graph
        assert g.m == g.n - 1 == 29
        assert len(g.components()) == 1
        assert g.max_degree() <= 3


def test_blowup_family():
    inst = generate(GenSpec("c5-blowup", 0, delta=6))
    g = inst.graph
    assert g.n == 15  # five groups of three
    assert g.m == 5 * 3 * 3
    assert all(g.degree(v) == 6 for v in range(g.n))
    assert girth(g) == 4


def test_sparse_family_obeys_both_promises():
    for seed in range(8):
        inst = generate(GenSpec("sparse-mad3", 18, delta=4, seed=seed))
        g = inst.graph
        assert g.max_degree() <= 4
        assert mad(g).density < 3
        assert int(inst.properties["delta"]) == 4
    small = generate(GenSpec("sparse-mad3", 9, delta=4, seed=1)).graph
    assert mad(small).density == subset_mad(
        [small.edges[e] for e in range(small.m)], small.n)


def test_planar_family_obeys_both_promises():
    for seed in range(6):
        inst = generate(GenSpec("planar-girth7", 24, delta=4, seed=seed))
        g = inst.graph
        assert g.max_degree() <= 4
        assert girth(g) >= 7
        emb = trace_faces(g, inst.rotation)  # genus 0 or this raises
        assert sum(len(w) for w in emb.faces) == 2 * g.m
        assert girth(g) == bfs_girth(
            [g.edges[e] for e in range(g.m)], g.n)


def test_generation_is_deterministic():
    for family, n in (("tree", 25), ("sparse-mad3", 20),
                      ("planar-girth7", 21)):
        a = generate(GenSpec(family, n, delta=4, seed=11))
        b = generate(GenSpec(family, n, delta=4, seed=11))
        assert serialize_instance(a) == serialize_instance(b)
        c = generate(GenSpec(family, n, delta=4, seed=12))
        assert serialize_instance(a) != serialize_instance(c)


def test_sparse_family_bytes_are_pinned():
    # the (seed, n) pairs of acceptance criterion 3, which draws n and then
    # the per-edge lists from one shared stream; the hash was taken before
    # the generator's density check moved from max-flow to the pebble game
    rng = random.Random(0)
    pool = list(range(40))
    digest = hashlib.sha256()
    for seed in range(500):
        n = rng.randint(8, 60)
        inst = generate(GenSpec("sparse-mad3", n, delta=4, seed=seed))
        digest.update(serialize_instance(inst).encode())
        g = inst.graph
        for _ in range(g.m):
            rng.sample(pool, 3 * g.max_degree() + 1)
    assert digest.hexdigest() == (
        "a0a41967abe26e129bc4bfb5bab9c8a307a6eb31bafac6c52c973c37ccc01bb4")


def test_tree_family_bytes_are_pinned():
    # (seed, n, delta) triples from one vertex up to 2000, degree caps 1 to
    # 10; the hash was taken before the generator kept its list of
    # unsaturated vertices incrementally instead of rebuilding it per vertex
    digest = hashlib.sha256()
    for seed, n, delta in ((0, 1, 4), (1, 2, 1), (2, 3, 2), (3, 60, 2),
                           (4, 250, 3), (5, 1000, 4), (6, 2000, 4),
                           (7, 600, 6), (8, 400, 10)):
        inst = generate(GenSpec("tree", n, delta=delta, seed=seed))
        digest.update(serialize_instance(inst).encode())
    assert digest.hexdigest() == (
        "1e2ea9dcfeffa4b97e0574139594f61a76c022e4ea58d379b105fa547fdc2af9")


@pytest.mark.parametrize("spec, fragment", [
    (GenSpec("moebius", 10), "unknown family"),
    (GenSpec("cycle", 2), "at least 3"),
    (GenSpec("tree", 0), "at least one"),
    (GenSpec("tree", 5, delta=1), "cannot fit"),
    (GenSpec("c5-blowup", 0, delta=3), "even delta"),
    (GenSpec("sparse-mad3", 10, delta=9), "1..4"),
    (GenSpec("planar-girth7", 5), "at least 7 vertices"),
    (GenSpec("planar-girth7", 10, delta=1), "at least 2"),
])
def test_generator_argument_errors(spec, fragment):
    with pytest.raises(ValueError, match=fragment):
        generate(spec)
