"""Golden store keys of a design point, and the spellings that share them.

Every cached result is addressed by a key derived from what was computed:
a per-dataset suite sweep, one search trial's design point, or one
Monte-Carlo offset-variation summary.  Existing stores and shard archives
only keep hitting while those keys stay byte-identical, so this file pins
the literal digests of representative points.  The digests were captured
from the standalone key functions that :class:`~repro.core.spec.DesignSpec`
replaced; the import fallback below keeps this file runnable against that
older code, which is how the pins are re-checked there.

The property tests state the other half of the contract: every equivalent
spelling of one point -- paper abbreviation vs canonical name, inert
training knobs, list vs tuple grids, ``-0.0`` vs ``0.0`` -- addresses one
entry.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.core.exploration import DEFAULT_DEPTHS, DEFAULT_TAUS
from repro.core.sharding import suite_result_key
from repro.datasets.registry import DATASET_ABBREVIATIONS
from repro.pdk.egfet import EGFETTechnology

try:
    from repro.core.spec import DesignSpec
except ImportError:  # code that predates DesignSpec
    DesignSpec = None


def trial_key(dataset, seed, depth, tau, **fields):
    if DesignSpec is None:
        from repro.core.sharding import canonical_trial_key

        return canonical_trial_key(dataset, seed, depth, tau, **fields)
    return DesignSpec(dataset, seed, depth, tau, **fields).key("design_point")


def variation_key(dataset, seed, sigma_v, n_trials, depth, tau, **fields):
    if DesignSpec is None:
        from repro.core.variation import variation_result_key

        return variation_result_key(
            dataset, seed, sigma_v, n_trials, depth, tau, **fields
        )
    return DesignSpec(dataset, seed, depth, tau, **fields).key(
        "offset_variation", sigma_v=float(sigma_v), n_trials=int(n_trials)
    )


def suite_key(dataset, seed, include_approximate, **knobs):
    return suite_result_key(
        dataset, seed, include_approximate, DEFAULT_DEPTHS, DEFAULT_TAUS, **knobs
    )


OFFSET_AWARE = dict(training_sigma=0.02, robustness_weight=2.0)
CUSTOM_TECHNOLOGY = EGFETTechnology(vdd=1.2)

#: case -> (key builder, args, kwargs).
CASES = {
    "suite-nominal": (suite_key, ("cardio", 0, True), {}),
    "suite-nominal-table1": (suite_key, ("cardio", 0, False), {}),
    "suite-offset-aware": (suite_key, ("cardio", 0, True), OFFSET_AWARE),
    "suite-abbreviation": (suite_key, ("V2", 3, False), {}),
    "trial-nominal": (trial_key, ("cardio", 0, 4, 0.01), {}),
    "trial-offset-aware": (trial_key, ("cardio", 0, 4, 0.01), OFFSET_AWARE),
    "trial-test-size": (trial_key, ("cardio", 0, 4, 0.01), {"test_size": 0.5}),
    "trial-3-bit": (trial_key, ("cardio", 0, 4, 0.01), {"resolution_bits": 3}),
    "trial-abbreviation": (trial_key, ("V2", 3, 3, 0.0), {}),
    "trial-technology": (
        trial_key, ("cardio", 0, 4, 0.01), {"technology": CUSTOM_TECHNOLOGY}
    ),
    "variation-nominal": (variation_key, ("cardio", 0, 0.02, 100, 4, 0.01), {}),
    "variation-offset-aware": (
        variation_key, ("cardio", 0, 0.02, 100, 4, 0.01), OFFSET_AWARE
    ),
    "variation-test-size": (
        variation_key, ("cardio", 0, 0.02, 100, 4, 0.01), {"test_size": 0.5}
    ),
    "variation-3-bit": (
        variation_key, ("cardio", 0, 0.02, 100, 4, 0.01), {"resolution_bits": 3}
    ),
    "variation-abbreviation": (variation_key, ("V2", 3, 0.04, 20, 3, 0.0), {}),
    "variation-technology": (
        variation_key,
        ("cardio", 0, 0.02, 100, 4, 0.01),
        {"technology": CUSTOM_TECHNOLOGY},
    ),
    "variation-unregistered": (
        variation_key, ("Field_Trial_7", 1, 0.01, 10, 2, 0.005), {}
    ),
}

#: case -> store key at the current package version.
DIGESTS = {
    "suite-nominal": (
        "882e0b6cd26addb97b395d6b72010abd73bcbb2b0056827a5b67266d1bfc81a2"
    ),
    "suite-nominal-table1": (
        "e02158251c2224cfe461141e51750f6168081c31a38972cd75eb4176f982ea3e"
    ),
    "suite-offset-aware": (
        "ff5b341ed203941d9fc9a475fb02244114fe0e1a9e729ef2dbe1b0525b9c087a"
    ),
    "suite-abbreviation": (
        "0d26d9f3e58f3dfc2d437a0be0ebabd349d651a0b9dff51171bf25462bde709b"
    ),
    "trial-nominal": (
        "b6196e18a6c45b6f05b8aa8428e7f4c0e3defc455152cf96b5cadaf9f56a6974"
    ),
    "trial-offset-aware": (
        "6526ffc0e667fbb281f9ed83f859902f72672b4ed3dfe88aec7867fbce3df751"
    ),
    "trial-test-size": (
        "3a54264a6cbf240ae8f0c0f9080d36eb9962df37c93d7ecb3cf6e560fe8ac796"
    ),
    "trial-3-bit": (
        "3b6e3f62820cf1e3243c3c567c7c1be80690a534fdaa9d9b65da31f94ed6ab13"
    ),
    "trial-abbreviation": (
        "645947484a995ba14f976859ebecc52bc237bc1df31c935945f60e2cdee183d1"
    ),
    "trial-technology": (
        "e2be033bb880eb7d752ddb07f7a442cdbbcde0895de53fbfef69f601eef4f846"
    ),
    "variation-nominal": (
        "5275fb637dd6803d3bea3ce0e8be3465739472a8114a22aabdf18d97c8b4ea3e"
    ),
    "variation-offset-aware": (
        "95fc8d75cf7168b53b621c04d5b014e8724c8a374754eb40189ec9ea7a70b927"
    ),
    "variation-test-size": (
        "5e93b46313ea9e89e6b96543203cd9acc94019618ba4d0708d073c902495eaba"
    ),
    "variation-3-bit": (
        "c75ddb6a6a064b87d16d0f2add45c2db18eaee539e75fbca85206c41766a101f"
    ),
    "variation-abbreviation": (
        "adf4f40d764c1c9ef8a88145a298e624469145fe9448dd3d2e9b1144f8a20ca2"
    ),
    "variation-technology": (
        "880089d5925822709e84ff175a0ba221853dc1057211569c396858d67e488378"
    ),
    "variation-unregistered": (
        "23f67b40cfa5a7e5ba39e7eba619fbc06484c653fff69b90e0f47a842e1fdae2"
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_store_keys_are_pinned(case):
    build, args, kwargs = CASES[case]
    assert build(*args, **kwargs) == DIGESTS[case]


@pytest.mark.parametrize("case", sorted(c for c in CASES if c.startswith("variation-")))
def test_variation_key_spells_the_pinned_keys(case):
    _, (dataset, seed, sigma_v, n_trials, depth, tau), kwargs = CASES[case]
    spec = DesignSpec(dataset, seed, depth, tau, **kwargs)
    assert spec.variation_key(sigma_v, n_trials) == DIGESTS[case]


datasets = st.sampled_from(sorted(DATASET_ABBREVIATIONS.items()))
points = st.tuples(
    datasets,
    st.integers(min_value=0, max_value=5),
    st.sampled_from(DEFAULT_DEPTHS),
    st.sampled_from(DEFAULT_TAUS),
)
#: Spellings of nominal training: the expected-flip penalty is inert unless
#: both knobs are positive.
INERT_KNOBS = (
    {},
    {"training_sigma": 0.0, "robustness_weight": 5.0},
    {"training_sigma": 0.02, "robustness_weight": 0.0},
    {"training_sigma": 0.0, "robustness_weight": 0.0},
)


class TestEquivalentSpellingsShareOneKey:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(point=points)
    def test_abbreviation_and_canonical_name(self, point):
        (name, abbreviation), seed, depth, tau = point
        assert trial_key(abbreviation, seed, depth, tau) == trial_key(
            name, seed, depth, tau
        )
        assert variation_key(abbreviation, seed, 0.02, 10, depth, tau) == (
            variation_key(name, seed, 0.02, 10, depth, tau)
        )
        assert suite_key(abbreviation, seed, True) == suite_key(name, seed, True)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(point=points, knobs=st.sampled_from(INERT_KNOBS))
    def test_inert_training_knobs(self, point, knobs):
        (name, _), seed, depth, tau = point
        assert trial_key(name, seed, depth, tau, **knobs) == trial_key(
            name, seed, depth, tau
        )
        assert variation_key(name, seed, 0.02, 10, depth, tau, **knobs) == (
            variation_key(name, seed, 0.02, 10, depth, tau)
        )
        assert suite_key(name, seed, False, **knobs) == suite_key(name, seed, False)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(point=points)
    def test_list_and_tuple_grids(self, point):
        (name, _), seed, _, _ = point
        assert suite_result_key(
            name, seed, True, list(DEFAULT_DEPTHS), list(DEFAULT_TAUS)
        ) == suite_key(name, seed, True)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(point=points)
    def test_negative_zero_sigma(self, point):
        (name, _), seed, depth, tau = point
        spec = DesignSpec(name, seed, depth, tau)
        assert spec.variation_key(-0.0, 10) == spec.variation_key(0.0, 10)
        assert spec.variation_key(-0.0, 10) == variation_key(name, seed, 0.0, 10, depth, tau)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(point=points)
    def test_negative_zero_tau(self, point):
        (name, _), seed, depth, _ = point
        assert trial_key(name, seed, depth, -0.0) == trial_key(name, seed, depth, 0.0)
        assert variation_key(name, seed, 0.02, 10, depth, -0.0) == (
            variation_key(name, seed, 0.02, 10, depth, 0.0)
        )
