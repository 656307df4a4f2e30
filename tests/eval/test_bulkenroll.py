"""Unit tests for bulk population enrollment (repro.eval.bulkenroll)."""

import pytest

from repro.core import ShardedPackedBackend
from repro.core.packing import unpack_authenticator
from repro.eval import (
    TemplateJob,
    build_template,
    enroll_templates,
    materialize_population,
)
from repro.errors import ConfigurationError

FEATURES = 840


@pytest.fixture(scope="module")
def templates():
    return enroll_templates(2, num_features=FEATURES, n_jobs=1)


class TestTemplates:
    def test_templates_are_distinct_users(self, templates):
        assert len(templates) == 2
        assert templates[0].record != templates[1].record

    def test_template_is_deterministic(self, templates):
        again = build_template(TemplateJob(index=0, num_features=FEATURES))
        assert again.record == templates[0].record
        assert again.extractors == templates[0].extractors

    def test_template_authenticates(self, templates):
        auth = unpack_authenticator(templates[0])
        assert auth.enrolled

    def test_template_count_validated(self):
        with pytest.raises(ConfigurationError):
            enroll_templates(0)


class TestMaterialize:
    def test_round_robin_ids_and_storage(self, templates, tmp_path):
        backend = ShardedPackedBackend(tmp_path)
        ids = materialize_population(backend, 5, templates)
        assert ids == [f"u{i:07d}" for i in range(5)]
        assert backend.user_ids() == sorted(ids)
        assert backend.load("u0000003").enrolled

    def test_validates_inputs(self, templates, tmp_path):
        backend = ShardedPackedBackend(tmp_path)
        with pytest.raises(ConfigurationError):
            materialize_population(backend, 0, templates)
        with pytest.raises(ConfigurationError):
            materialize_population(backend, 2, [])
