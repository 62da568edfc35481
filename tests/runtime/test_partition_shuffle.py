"""Tests for input partitioning and the shuffle machinery."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.partition import (

    partition_range,
    weighted_partition,
)
from repro.runtime.shuffle import (
    apply_combiner,
    group_by_key,
    hash_partition,
    shuffle_stats,
    sort_pairs,
)



def bucket_of(key, n_buckets):
    """Oracle: the bucket :func:`hash_partition` must place *key* in — a
    hash of ``repr(key)``, so placement is stable across processes and
    Python hash randomization."""
    h = 0
    for ch in repr(key):
        h = (h * 131 + ord(ch)) % (1 << 31)
    return h % n_buckets

class TestPartitionRange:
    def test_exact_cover(self):
        parts = partition_range(10, 3)
        assert parts == [(0, 4), (4, 7), (7, 10)]

    def test_sizes_differ_by_at_most_one(self):
        parts = partition_range(100, 7)
        sizes = [hi - lo for lo, hi in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_more_partitions_than_items(self):
        parts = partition_range(2, 5)
        sizes = [hi - lo for lo, hi in parts]
        assert sum(sizes) == 2
        assert sizes.count(0) == 3

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(0, 10_000), k=st.integers(1, 64))
    def test_partition_invariants(self, n, k):
        parts = partition_range(n, k)
        assert len(parts) == k
        assert parts[0][0] == 0 and parts[-1][1] == n
        for (lo1, hi1), (lo2, hi2) in zip(parts, parts[1:]):
            assert hi1 == lo2
            assert lo1 <= hi1


class TestWeightedPartition:
    def test_proportional(self):
        parts = weighted_partition(100, [0.25, 0.75])
        assert parts == [(0, 25), (25, 100)]

    def test_rounding_preserves_total(self):
        parts = weighted_partition(10, [1 / 3, 1 / 3, 1 / 3])
        assert sum(hi - lo for lo, hi in parts) == 10

    def test_zero_weight_gets_nothing(self):
        parts = weighted_partition(10, [0.0, 1.0])
        assert parts[0] == (0, 0)

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            weighted_partition(10, [0.0, 0.0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            weighted_partition(10, [-1.0, 2.0])

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(0, 5000),
        weights=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=10).filter(
            lambda w: sum(w) > 0
        ),
    )
    def test_weighted_invariants(self, n, weights):
        parts = weighted_partition(n, weights)
        assert len(parts) == len(weights)
        assert parts[0][0] == 0 and parts[-1][1] == n
        total = sum(weights)
        for (lo, hi), w in zip(parts, weights):
            expected = w / total * n
            assert abs((hi - lo) - expected) <= 1.0


class TestShuffle:
    def test_group_by_key(self):
        groups = group_by_key([("a", 1), ("b", 2), ("a", 3)])
        assert groups == {"a": [1, 3], "b": [2]}

    def test_group_preserves_value_order(self):
        groups = group_by_key([("k", i) for i in range(10)])
        assert groups["k"] == list(range(10))

    def test_bucket_deterministic(self):
        pairs = [(("center", 3), 1.0)]
        assert hash_partition(pairs, 8) == hash_partition(pairs, 8)

    def test_bucket_in_range(self):
        for key in [0, "abc", (1, 2), 3.5]:
            placed = hash_partition([(key, None)], 5)
            assert len(placed) == 5
            assert placed[bucket_of(key, 5)] == [(key, None)]

    def test_hash_partition_is_a_partition(self):
        pairs = [(i % 7, i) for i in range(100)]
        buckets = hash_partition(pairs, 4)
        flat = [kv for b in buckets for kv in b]
        assert sorted(flat) == sorted(pairs)

    def test_same_key_same_bucket(self):
        pairs = [(i % 3, i) for i in range(30)]
        buckets = hash_partition(pairs, 4)
        for bucket in buckets:
            keys_here = {k for k, _ in bucket}
            for other in buckets:
                if other is bucket:
                    continue
                assert keys_here.isdisjoint({k for k, _ in other})

    def test_apply_combiner(self):
        pairs = [("a", 1), ("a", 2), ("b", 5)]
        combined = apply_combiner(pairs, lambda k, vs: sum(vs))
        assert dict(combined) == {"a": 3, "b": 5}

    def test_sort_pairs_default_order(self):
        pairs = [(3, "c"), (1, "a"), (2, "b")]
        assert [k for k, _ in sort_pairs(pairs)] == [1, 2, 3]

    def test_sort_pairs_custom_compare(self):
        pairs = [(1, "a"), (3, "c"), (2, "b")]
        ordered = sort_pairs(pairs, compare=lambda a, b: b - a)  # descending
        assert [k for k, _ in ordered] == [3, 2, 1]

    @settings(max_examples=30, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 20), st.integers()), max_size=200
        ),
        buckets=st.integers(1, 16),
    )
    def test_partition_grouping_roundtrip(self, pairs, buckets):
        """Bucketing then grouping must equal grouping directly."""
        direct = group_by_key(pairs)
        via_buckets = {}
        for bucket in hash_partition(pairs, buckets):
            via_buckets.update(group_by_key(bucket))
        assert direct == via_buckets

    @settings(max_examples=50, deadline=None)
    @given(
        keys=st.lists(
            st.one_of(st.integers(), st.text(max_size=5),
                      st.tuples(st.text(max_size=3), st.integers())),
            max_size=50,
        ),
        buckets=st.integers(1, 16),
    )
    def test_hash_partition_places_like_bucket_of(self, keys, buckets):
        placed = hash_partition([(k, None) for k in keys], buckets)
        for index, bucket in enumerate(placed):
            assert all(bucket_of(k, buckets) == index for k, _ in bucket)

    #: keys equal as dict keys but printing differently, plus two
    #: equal floats whose reprs differ in sign
    MIXED_KEYS = (1, 1.0, True, np.int64(1), "1", (0, 1), 0.0, -0.0,
                  np.float64(1.0))

    @pytest.mark.parametrize("n_buckets", [1, 2, 3, 5, 8, 16])
    def test_mixed_keys_place_like_a_per_pair_hash(self, n_buckets):
        pairs = [(key, i) for i, key in enumerate(self.MIXED_KEYS * 3)]
        expected = [[] for _ in range(n_buckets)]
        for key, value in pairs:
            expected[bucket_of(key, n_buckets)].append((key, value))
        placed = hash_partition(pairs, n_buckets)
        # 1 == True == 1.0, so compare reprs: equal keys must not share
        # one cached bucket when their reprs differ
        as_reprs = [[(repr(k), v) for k, v in b] for b in placed]
        assert as_reprs == [[(repr(k), v) for k, v in b] for b in expected]

    def test_mixed_keys_spread_over_buckets(self):
        # the check above would pass vacuously if equal keys hashed alike
        assert len({bucket_of(k, 8) for k in self.MIXED_KEYS[:3]}) == 3

    def test_hashes_each_distinct_repr_once(self, monkeypatch):
        from repro.runtime import shuffle

        hashed = []
        key_hash = shuffle._key_hash

        def counting_hash(text):
            hashed.append(text)
            return key_hash(text)

        monkeypatch.setattr(shuffle, "_key_hash", counting_hash)
        pairs = [(key, i) for i, key in enumerate(self.MIXED_KEYS * 40)]
        hash_partition(pairs, 4)
        distinct = sorted({repr(k) for k in self.MIXED_KEYS})
        assert sorted(hashed) == distinct
        hashed.clear()
        hash_partition(pairs, 4)  # no cache survives the call
        assert sorted(hashed) == distinct

    @pytest.mark.parametrize("n", [0, -1])
    def test_hash_partition_validates_bucket_count(self, n):
        with pytest.raises(ValueError, match="n_buckets"):
            hash_partition([(1, 2)], n)
        with pytest.raises(ValueError, match="n_buckets"):
            hash_partition([], n)

    def test_shuffle_stats_sizes_any_sequence_alike(self):
        pairs = [(i, float(i)) for i in range(5)]
        as_list = shuffle_stats([pairs, []])
        assert shuffle_stats([tuple(pairs), ()]) == as_list
        assert shuffle_stats([PairSequence(pairs), []]) == as_list
        assert as_list["bytes_by_dest"] == [5 * (16.0 + 16.0 + 8.0), 0]


class PairSequence:
    """A read-only Sequence of pairs that is neither list nor tuple."""

    def __init__(self, pairs):
        self._pairs = pairs

    def __len__(self):
        return len(self._pairs)

    def __getitem__(self, i):
        return self._pairs[i]


class TestShuffleWire:
    def test_net_span_bytes_are_the_buckets_stats(self, monkeypatch):
        # Every shuffle message is charged exactly the shuffle_stats size
        # of the bucket it carries (sized once, in the shuffle phase).
        import dataclasses

        from repro.comm.mpi import RankComm
        from repro.cli import DEFAULT_WORKLOADS, _run_workload

        calls = []
        alltoall = RankComm.alltoall

        def spy(self, payloads, tag=-8, nbytes=None):
            calls.append((self.rank, tag, list(payloads)))
            return alltoall(self, payloads, tag, nbytes)

        monkeypatch.setattr(RankComm, "alltoall", spy)
        spec = next(w for w in DEFAULT_WORKLOADS if w.app == "cmeans")
        result = _run_workload(dataclasses.replace(spec, nodes=4))

        sends = [
            s for s in result.trace.tracer.find(category="net")
            if s.attrs["tagc"] == "shuffle"
        ]
        assert len(calls) == 4 * result.iterations
        assert len(sends) == 4 * 3 * result.iterations
        for span in sends:
            src, dst, tag = span.attrs["src"], span.attrs["dst"], span.attrs["tag"]
            (payloads,) = [
                p for rank, base, p in calls
                if rank == src and tag - base == src ^ dst
            ]
            expected = shuffle_stats(payloads)["bytes_by_dest"][dst]
            assert repr(span.attrs["nbytes"]) == repr(expected)
        # the buckets differ in size, so a wrong-bucket size would show
        sizes = {repr(s.attrs["nbytes"]) for s in sends}
        assert len(sizes) > 1
