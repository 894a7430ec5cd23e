from __future__ import annotations

import hashlib
import random
import time
from fractions import Fraction

import pytest

from strongedge import (GenSpec, generate, girth, mad, serialize_instance,
                        trace_faces)
from strongedge.generate import _Fenwick, _planar_girth7
from tests.helpers import (ExpandedCounts, bfs_girth, mad_below_3,
                           reference_planar_girth7, subset_mad)


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


def test_sparse_family_below_three_vertices_is_the_tree():
    for n in (1, 2):
        for seed in range(3):
            g = generate(GenSpec("sparse-mad3", n, seed=seed)).graph
            tree = generate(GenSpec("tree", n, seed=seed)).graph
            assert (g.labels, g.edges) == (tree.labels, tree.edges)
            assert mad_below_3(g)


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


def test_larger_sparse_family_bytes_are_pinned():
    # sizes at which the pebble game's learned tight classes grow large;
    # the hash was taken before the game kept the tight sets its failed
    # searches prove
    digest = hashlib.sha256()
    for n in (250, 500, 1000):
        inst = generate(GenSpec("sparse-mad3", n, seed=1))
        digest.update(serialize_instance(inst).encode())
    assert digest.hexdigest() == (
        "e1705437736f50d06a3fb4a1ba55d28add14859bd0599a7d51db33333b171f49")


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


def test_planar_family_bytes_are_pinned():
    # the (seed, n, cap) triples of acceptance criterion 4, which draws n
    # and then the per-edge lists from one shared stream, then a few larger
    # and low-cap cases; the hash was taken before the generator kept its
    # faces incrementally instead of re-tracing them after every insertion
    rng = random.Random(1)
    pool = list(range(40))
    digest = hashlib.sha256()
    for seed in range(200):
        cap = (4, 5, 6)[seed % 3]
        n = rng.randint(7, 45)
        inst = generate(GenSpec("planar-girth7", n, delta=cap, seed=seed))
        digest.update(serialize_instance(inst).encode())
        for _ in range(inst.graph.m):
            rng.sample(pool, 3 * cap)
    for seed, n, delta in ((0, 2000, 4), (1, 3000, 6), (2, 400, 3),
                           (3, 50, 2)):
        inst = generate(GenSpec("planar-girth7", n, delta=delta, seed=seed))
        digest.update(serialize_instance(inst).encode())
    assert digest.hexdigest() == (
        "8fa240e7ffa80a3d0fcc6e80b06c1e45261894439522a7c962e61b48a67d86c3")


def test_planar_family_matches_the_reference():
    # the incremental faces against re-tracing after every insertion; with
    # delta 2 the 7-cycle is saturated at once, so the generator gives up
    cases = [(n, delta, seed) for n in range(7, 61) for delta in range(2, 9)
             for seed in range(3)]
    cases += [(400, 3, 0), (400, 4, 1), (400, 6, 2), (400, 8, 3),
              (400, 5, 4), (400, 7, 5), (200, 10 ** 6, 6)]
    for n, delta, seed in cases:
        g, rotation = _planar_girth7(n, delta, random.Random(seed))
        ref_g, ref_rotation = reference_planar_girth7(n, delta,
                                                      random.Random(seed))
        assert g.edges == ref_g.edges, (n, delta, seed)
        assert rotation == ref_rotation, (n, delta, seed)
        if delta == 2:
            assert g.n == g.m == 7


def test_planar_family_bytes_do_not_depend_on_a_huge_delta():
    # no vertex reaches a cap of 10^6, so the dart numbers spread over
    # 4*10^10 keys; the hash was taken on a tree keyed by dart number
    inst = generate(GenSpec("planar-girth7", 20000, delta=10 ** 6, seed=1))
    assert hashlib.sha256(serialize_instance(inst).encode()).hexdigest() == (
        "7dd6c66c94b3290e6efe322ee9dd974cfb2c85aa575047660a87910877400bbf")


@pytest.mark.parametrize("delta", [*range(2, 9), 10 ** 6])
def test_fenwick_matches_the_expanded_list(delta):
    # several keys per bucket, so a lookup walks one bucket in key order,
    # and counts set back to 0 as well as up
    rng = random.Random(delta)
    span = 2 * delta
    for buckets in (1, 37, 64):
        fast, slow = _Fenwick(buckets, span), ExpandedCounts()
        keys = [b * span + rng.randrange(span)
                for b in {0, buckets - 1, *rng.sample(range(buckets), 1)}
                for _ in range(4)]
        for _ in range(200):
            key, count = rng.choice(keys), rng.randrange(4)
            fast.set(key, count)
            slow.set(key, count)
        assert len(fast) == len(slow)
        assert [fast[k] for k in range(len(fast))] == slow.items()
        with pytest.raises(IndexError):
            fast[len(fast)]
        seed = rng.random()
        draw_fast, draw_slow = random.Random(seed), random.Random(seed)
        assert ([draw_fast.choice(fast) for _ in range(50)]
                == [draw_slow.choice(slow) for _ in range(50)])


def test_planar_family_grows_in_close_to_linear_time():
    # re-tracing every face after every insertion took minutes at this size
    start = time.process_time()
    inst = generate(GenSpec("planar-girth7", 2 * 10 ** 4, delta=4, seed=5))
    assert time.process_time() - start < 5
    g = inst.graph
    assert g.n == 2 * 10 ** 4
    assert g.max_degree() <= 4
    assert girth(g, limit=7) >= 7
    emb = trace_faces(g, inst.rotation)  # genus 0 or this raises
    assert sum(len(w) for w in emb.faces) == 2 * g.m


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
