"""Tests for the model registry: promotion, versioning, content addressing."""

import json

import pytest

from repro.adc.thermometer import WORD_BITS
from repro.core.exploration import DesignSpaceExplorer
from repro.core.store import ResultStore
from repro.core.unary_tree import UnaryDecisionTree
from repro.datasets.synthetic import make_classification_blobs
from repro.mltrees.evaluation import train_test_split
from repro.mltrees.quantize import quantize_dataset
from repro.pdk.egfet import default_technology
from repro.serve.registry import (
    ModelRegistry,
    artifact_digest,
    default_registry_dir,
    promote_design,
)


@pytest.fixture(scope="module")
def design_points():
    """Two small trained design points with different content (depth 2 vs 3)."""
    X, y = make_classification_blobs(
        n_samples=200, n_features=4, n_classes=3, class_sep=2.0, seed=5
    )
    X_train, X_test, y_train, y_test = train_test_split(X, y, test_size=0.3, seed=0)
    explorer = DesignSpaceExplorer(depths=(2, 3), taus=(0.0,), seed=0)
    split = (
        quantize_dataset(X_train, 4),
        y_train,
        quantize_dataset(X_test, 4),
        y_test,
    )
    return {
        depth: explorer.evaluate_point(*split, 3, depth, 0.0, dataset_name="blobs")
        for depth in (2, 3)
    }


@pytest.fixture
def registry(tmp_path):
    return ModelRegistry(tmp_path / "registry")


class TestPromotion:
    def test_promote_load_roundtrip(self, registry, design_points):
        point = design_points[2]
        artifact = registry.promote(point, "blobs-posture")
        assert artifact.name == "blobs-posture"
        assert artifact.version == 1
        assert artifact.dataset == "blobs"
        assert artifact.depth == 2
        assert artifact.accuracy == point.accuracy

        loaded = registry.load("blobs-posture")
        assert loaded.digest == artifact.digest
        assert loaded.version == 1
        # The served function survives the pickle roundtrip bit-identically.
        assert loaded.tree.root == point.tree.root

    def test_promote_is_idempotent_on_content(self, registry, design_points):
        first = registry.promote(design_points[2], "m")
        again = registry.promote(design_points[2], "m")
        assert (again.version, again.digest) == (first.version, first.digest)
        assert registry.versions("m") == [1]

    def test_new_content_allocates_next_version(self, registry, design_points):
        v1 = registry.promote(design_points[2], "m")
        v2 = registry.promote(design_points[3], "m")
        assert (v1.version, v2.version) == (1, 2)
        assert v1.digest != v2.digest
        assert registry.versions("m") == [1, 2]
        # Default load resolves to the latest version ...
        assert registry.load("m").version == 2
        # ... while pinned loads still reach the old artifact.
        assert registry.load("m", 1).digest == v1.digest

    def test_same_content_under_two_names(self, registry, design_points):
        a = registry.promote(design_points[2], "name-a")
        b = registry.promote(design_points[2], "name-b")
        assert a.digest == b.digest
        assert sorted(registry.list_models()) == ["name-a", "name-b"]

    @pytest.mark.parametrize(
        "bad_name", ["", "UPPER", "-leading-dash", ".hidden", "with space", "a" * 65]
    )
    def test_invalid_names_rejected(self, registry, design_points, bad_name):
        with pytest.raises(ValueError, match="invalid model name"):
            registry.promote(design_points[2], bad_name)


class TestDigest:
    def test_digest_is_deterministic(self, design_points):
        technology = default_technology()
        kwargs = dict(seed=0, resolution_bits=4, technology=technology)
        assert artifact_digest(design_points[2], **kwargs) == artifact_digest(
            design_points[2], **kwargs
        )

    def test_digest_separates_content(self, design_points):
        technology = default_technology()
        kwargs = dict(seed=0, resolution_bits=4, technology=technology)
        d2 = artifact_digest(design_points[2], **kwargs)
        d3 = artifact_digest(design_points[3], **kwargs)
        assert d2 != d3

    def test_digest_sensitive_to_training_knobs(self, design_points):
        technology = default_technology()
        base = artifact_digest(
            design_points[2], seed=0, resolution_bits=4, technology=technology
        )
        shifted = artifact_digest(
            design_points[2],
            seed=0,
            resolution_bits=4,
            technology=technology,
            training_sigma=0.04,
        )
        assert base != shifted


class TestManifest:
    def test_manifest_fields_and_kernel_meta(self, registry, design_points):
        point = design_points[3]
        artifact = registry.promote(point, "blobs-d3")
        manifest = registry.manifest("blobs-d3")
        assert manifest["name"] == "blobs-d3"
        assert manifest["version"] == 1
        assert manifest["digest"] == artifact.digest
        assert manifest["accuracy"] == point.accuracy

        unary = UnaryDecisionTree(point.tree)
        logic = unary.label_logic.values()
        assert manifest["kernel_meta"] == {
            "n_digits": unary.n_unary_digits,
            "n_cubes": sum(sop.n_terms for sop in logic),
            "n_literals": sum(sop.n_literals for sop in logic),
            "n_classes": unary.n_classes,
            "word_bits": WORD_BITS,
        }
        # literal pins: the sizes of this tree's packed label logic
        assert manifest["kernel_meta"] == {
            "n_digits": 4, "n_cubes": 5, "n_literals": 12, "n_classes": 3, "word_bits": 64,
        }

    def test_manifest_is_light_json_on_disk(self, registry, design_points):
        artifact = registry.promote(design_points[2], "m")
        path = registry.manifest_path("m", 1)
        on_disk = json.loads(path.read_text())
        assert on_disk["digest"] == artifact.digest
        assert "tree" not in on_disk  # the heavy payload stays in the pickle
        # Small enough to grep through thousands of manifests.
        assert path.stat().st_size < 4096

    def test_artifact_bundles_serving_extras(self, registry, design_points):
        artifact = registry.promote(design_points[2], "m")
        # Bespoke ADC config: per-feature retained comparator levels.
        for feature, levels in artifact.adc_config.items():
            assert isinstance(feature, int)
            assert all(0 <= level <= 16 for level in levels)
        assert artifact.datasheet  # rendered, human-readable
        assert artifact.kernel_meta["n_classes"] == 3


class TestLookupErrors:
    def test_unknown_name_raises_keyerror(self, registry):
        with pytest.raises(KeyError, match="ghost"):
            registry.load("ghost")
        with pytest.raises(KeyError):
            registry.manifest("ghost")
        assert registry.versions("ghost") == []
        assert registry.list_models() == []

    def test_unknown_version_raises_keyerror(self, registry, design_points):
        registry.promote(design_points[2], "m")
        with pytest.raises(KeyError, match="version"):
            registry.load("m", 7)

    def test_registry_dir_must_be_a_directory(self, tmp_path):
        clash = tmp_path / "not-a-dir"
        clash.write_text("occupied")
        with pytest.raises(ValueError, match="not a directory"):
            ModelRegistry(clash)

    def test_default_registry_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_REGISTRY_DIR", str(tmp_path / "custom"))
        assert default_registry_dir() == tmp_path / "custom"


class TestPromoteDesign:
    def test_trains_promotes_and_never_writes_the_cache(self, tmp_path):
        """The suite-cache lookup is read-only: a promote against an empty
        cache directory trains the point and leaves the cache empty."""
        cache_dir = tmp_path / "cache"
        registry = ModelRegistry(tmp_path / "registry")
        artifact = promote_design(
            registry, "vertebral_2c", 2, 0.0, cache_dir=cache_dir
        )
        assert artifact.name == "vertebral_2c-d2"
        assert artifact.depth == 2
        assert 0.0 <= artifact.accuracy <= 1.0
        cache_files = [p for p in cache_dir.rglob("*") if p.is_file()]
        assert cache_files == []

    def test_repromote_is_idempotent(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        kwargs = dict(cache_dir=tmp_path / "cache")
        first = promote_design(registry, "vertebral_2c", 2, 0.0, **kwargs)
        again = promote_design(registry, "vertebral_2c", 2, 0.0, **kwargs)
        assert (again.version, again.digest) == (first.version, first.digest)

    def test_promote_equals_the_sweep_point(self, tmp_path):
        """Cold promotion retrains exactly the tree a suite sweep grows."""
        from repro.analysis.experiments import run_benchmark_suite

        (sweep,) = run_benchmark_suite(
            datasets=("vertebral_2c",), depths=(3,), taus=(0.01,),
            include_approximate_baseline=False, use_cache=False,
        )
        artifact = promote_design(
            ModelRegistry(tmp_path / "registry"), "V2", 3, 0.01,
            cache_dir=tmp_path / "cache",
        )
        [point] = sweep.exploration
        assert artifact.tree == point.tree
        assert artifact.accuracy == point.accuracy
        assert artifact.hardware == point.hardware

    def test_warm_suite_cache_serves_only_its_own_resolution(self, tmp_path):
        """Regression: a warm 4-bit suite sweep used to be promoted for a
        2-bit request; the warm promotion must equal the cold one."""
        from repro.analysis.experiments import run_benchmark_suite

        warm_dir = tmp_path / "warm"
        run_benchmark_suite(
            datasets=("vertebral_2c",), include_approximate_baseline=True,
            store=ResultStore(warm_dir),
        )
        warm, cold = (
            promote_design(
                ModelRegistry(tmp_path / f"registry-{label}"), "vertebral_2c", 3,
                0.0, resolution_bits=2, cache_dir=cache_dir,
            )
            for label, cache_dir in (("warm", warm_dir), ("cold", tmp_path / "cold"))
        )
        assert warm.tree.resolution_bits == 2
        assert warm.tree == cold.tree
        assert warm.accuracy == cold.accuracy

    def test_warm_table1_sweep_is_lifted_without_training(
        self, tmp_path, monkeypatch
    ):
        from repro.analysis.experiments import run_benchmark_suite

        (sweep,) = run_benchmark_suite(
            datasets=("vertebral_2c",), include_approximate_baseline=False,
            store=ResultStore(tmp_path / "cache"),
        )

        def no_training(spec):
            raise AssertionError(f"{spec} was retrained")

        monkeypatch.setattr("repro.core.spec.train_point", no_training)
        artifact = promote_design(
            ModelRegistry(tmp_path / "registry"), "vertebral_2c", 3, 0.0,
            cache_dir=tmp_path / "cache",
        )
        [point] = [p for p in sweep.exploration if (p.depth, p.tau) == (3, 0.0)]
        assert artifact.tree == point.tree
