import random

from chainlat.model import Interval
from chainlat.overlap import hull, normalize, seq, seq_merge, seq_overlap

from oracles import brute_force_overlap


def test_seq_merge_definition():
    a = seq((0, 2))
    b = seq((10, 20), (30, 40))
    assert seq_merge(a, b) == seq((10, 22), (30, 42))


def test_seq_merge_identity():
    b = seq((10, 20), (30, 40))
    assert seq_merge(seq((0, 0)), b) == b


def test_seq_merge_cardinality():
    a = seq((0, 1), (5, 6), (9, 9))
    b = seq((0, 0), (2, 2), (4, 4), (8, 8))
    assert len(seq_merge(a, b)) == len(a) * len(b)


def test_normalize_coalesces_overlap():
    assert normalize(seq((0, 5), (3, 8))) == seq((0, 8))


def test_normalize_coalesces_touching():
    assert normalize(seq((0, 5), (5, 8))) == seq((0, 8))


def test_normalize_keeps_disjoint():
    assert normalize(seq((0, 1), (3, 4))) == seq((0, 1), (3, 4))


def test_normalize_keeps_integer_gap():
    # [0,1] and [2,3] share no point under closed semantics
    assert normalize(seq((0, 1), (2, 3))) == seq((0, 1), (2, 3))


def test_seq_overlap_disjoint():
    assert seq_overlap(seq((0, 5), (10, 15)), seq((6, 9))) is False


def test_seq_overlap_touching_counts():
    assert seq_overlap(seq((0, 5)), seq((5, 8))) is True


def test_seq_overlap_symmetry_and_self():
    a = seq((0, 2), (4, 9))
    b = seq((12, 14))
    assert seq_overlap(a, b) == seq_overlap(b, a)
    assert seq_overlap(a, a) is True


def _random_seq(rng, max_len=12, span=200):
    out = []
    for _ in range(rng.randint(1, max_len)):
        lo = rng.randint(0, span)
        out.append(Interval(lo, lo + rng.randint(0, 20)))
    return tuple(sorted(out, key=lambda iv: (iv.lo, iv.hi)))


def test_seq_overlap_matches_brute_force():
    rng = random.Random(7)
    for _ in range(1000):
        a = _random_seq(rng)
        b = _random_seq(rng)
        assert seq_overlap(a, b) == brute_force_overlap(a, b)


def test_normalize_preserves_verdicts():
    rng = random.Random(11)
    for _ in range(300):
        a = _random_seq(rng)
        b = _random_seq(rng)
        assert seq_overlap(normalize(a), b) == seq_overlap(a, b)


def test_hull():
    assert hull(seq((3, 5), (10, 12))) == Interval(3, 12)
