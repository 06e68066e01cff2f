"""Tests for trace generation and the workload container (repro.traces)."""

import hashlib

import numpy as np
import pytest

from repro.config import RMC1, WorkloadConfig, scaled_model
from repro.traces.meta import generate_meta_like_trace
from repro.traces.synthetic import (
    TraceDistribution,
    _meta_hot_set,
    _zipf_tables,
    generate_indices,
)
from repro.traces.workload import build_workload


class TestDistributions:
    @pytest.mark.parametrize("name", ["meta", "zipfian", "normal", "uniform", "random"])
    def test_from_name(self, name):
        assert TraceDistribution.from_name(name).value == name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            TraceDistribution.from_name("gaussian-ish")

    @pytest.mark.parametrize("dist", list(TraceDistribution))
    def test_indices_in_range(self, dist):
        rng = np.random.default_rng(0)
        indices = generate_indices(dist, 500, 1000, rng=rng)
        assert indices.dtype == np.int64
        assert len(indices) == 500
        assert indices.min() >= 0
        assert indices.max() < 1000

    def test_zero_count(self):
        assert len(generate_indices(TraceDistribution.UNIFORM, 0, 10)) == 0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            generate_indices(TraceDistribution.UNIFORM, -1, 10)
        with pytest.raises(ValueError):
            generate_indices(TraceDistribution.UNIFORM, 10, 0)

    def test_zipfian_more_skewed_than_uniform(self):
        rng = np.random.default_rng(1)
        zipf = generate_indices(TraceDistribution.ZIPFIAN, 5000, 1000, rng=rng)
        uniform = generate_indices(TraceDistribution.UNIFORM, 5000, 1000, rng=rng)
        top_zipf = np.bincount(zipf, minlength=1000).max()
        top_uniform = np.bincount(uniform, minlength=1000).max()
        assert top_zipf > 3 * top_uniform

    def test_meta_trace_has_hot_set(self):
        rng = np.random.default_rng(2)
        indices = generate_indices(TraceDistribution.META, 10000, 10000, rng=rng)
        counts = np.bincount(indices, minlength=10000)
        hot_rows = int(10000 * 0.05)
        hot_share = np.sort(counts)[::-1][:hot_rows].sum() / counts.sum()
        assert hot_share > 0.5  # the hot set captures most accesses

    def test_uniform_is_balanced(self):
        indices = generate_indices(TraceDistribution.UNIFORM, 1000, 100)
        counts = np.bincount(indices, minlength=100)
        assert counts.max() - counts.min() <= 1

    #: Digests of the index bytes below, pinned before the seeded tables
    #: were memoized: the cache must not change a single index.
    DIGESTS = {
        "meta": "020ed3bdd1fac7ba",
        "zipfian": "4c9c8da22b8b671b",
        "normal": "9fa99c566b5c2dd7",
        "uniform": "6509b45ac86135f8",
        "random": "50ceef48a5a44cbc",
    }

    @pytest.mark.parametrize("dist", list(TraceDistribution))
    def test_indices_digest_is_pinned(self, dist):
        digest = hashlib.sha256()
        rng = np.random.default_rng(7)
        for num_embeddings in (1, 97, 5000):
            for alpha in (1.05, 0.9):
                indices = generate_indices(
                    dist, 300, num_embeddings, rng=rng, zipf_alpha=alpha
                )
                digest.update(indices.tobytes())
        assert digest.hexdigest()[:16] == self.DIGESTS[dist.value]

    def test_memoized_tables_are_read_only(self):
        generate_indices(TraceDistribution.META, 10, 500, rng=np.random.default_rng(0))
        cdf, permutation = _zipf_tables(500, 0.8)
        hot_set = _meta_hot_set(500, 25)
        assert _zipf_tables(500, 0.8)[0] is cdf, "zipf tables were rebuilt"
        for table in (cdf, permutation, hot_set):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0


class TestMetaTrace:
    def test_batch_structure(self):
        config = WorkloadConfig(model=scaled_model(RMC1, 0.05), batch_size=4, num_batches=3)
        batches = generate_meta_like_trace(config)
        assert len(batches) == 3
        for batch in batches:
            assert batch.num_tables == config.model.num_tables
            assert batch.batch_size == 4
            assert batch.total_lookups > 0

    def test_deterministic_for_seed(self):
        config = WorkloadConfig(model=scaled_model(RMC1, 0.05), batch_size=4, seed=9)
        a = generate_meta_like_trace(config)
        b = generate_meta_like_trace(config)
        np.testing.assert_array_equal(a[0].indices_per_table[0], b[0].indices_per_table[0])


class TestWorkload:
    @pytest.fixture(scope="class")
    def workload(self):
        config = WorkloadConfig(
            model=scaled_model(RMC1, 0.05), batch_size=4, num_batches=2, pooling_factor=6
        )
        return build_workload(config)

    def test_request_count(self, workload):
        assert 0 < len(workload) <= 2 * 4 * workload.model.num_tables
        assert workload.total_lookups == sum(r.num_candidates for r in workload)

    def test_addresses_match_rows(self, workload):
        request = workload.requests[0]
        for row, address in zip(request.rows, request.addresses):
            assert workload.address_space.locate(int(address)) == (request.table, int(row))

    def test_bytes_accessed(self, workload):
        request = workload.requests[0]
        assert request.bytes_accessed == request.num_candidates * workload.model.embedding_row_bytes

    def test_unique_pages_positive(self, workload):
        assert 0 < workload.unique_pages() <= workload.address_space.total_pages

    def test_multi_host_assignment(self):
        config = WorkloadConfig(model=scaled_model(RMC1, 0.05), batch_size=8, num_batches=1)
        workload = build_workload(config, num_hosts=4)
        hosts = {r.host_id for r in workload.requests}
        assert hosts == {0, 1, 2, 3}

    def test_distribution_override(self):
        config = WorkloadConfig(model=scaled_model(RMC1, 0.05), batch_size=2, num_batches=1)
        workload = build_workload(config, distribution="uniform")
        assert workload.distribution == "uniform"
