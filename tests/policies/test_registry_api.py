"""Registry construction API: make(), aliases, params, did-you-mean."""

import numpy as np
import pytest

from repro.policies.registry import (
    ALIASES,
    REGISTRY,
    canonical_name,
    make,
    make_sized,
    names,
    resolve,
)
from repro.traces.synthetic import zipf_trace

from tests.conftest import drive


class TestResolve:
    @pytest.mark.parametrize("spelling, canonical", [
        ("sieve", "SIEVE"),
        ("FIFO", "FIFO"),
        ("fifo-reinsertion", "FIFO-Reinsertion"),
        ("FIFO_Reinsertion", "FIFO-Reinsertion"),
        ("second-chance", "FIFO-Reinsertion"),
        ("secondchance", "FIFO-Reinsertion"),
        ("2bit-clock", "2-bit-CLOCK"),
        ("2 bit clock", "2-bit-CLOCK"),
        ("clock", "2-bit-CLOCK"),
        ("clock2", "2-bit-CLOCK"),
        ("clock3", "3-bit-CLOCK"),
        ("optimal", "Belady"),
        ("OPT", "Belady"),
        ("qd_lp_fifo", "QD-LP-FIFO"),
        ("s3fifo", "S3-FIFO"),
        ("w-tinylfu", "W-TinyLFU"),
        ("tinylfu", "W-TinyLFU"),
    ])
    def test_aliases_and_spellings(self, spelling, canonical):
        assert resolve(spelling).name == canonical
        assert canonical_name(spelling) == canonical

    def test_every_registry_name_resolves_to_itself(self):
        for name in REGISTRY:
            assert resolve(name).name == name

    def test_every_alias_targets_a_real_policy(self):
        for target in ALIASES.values():
            assert target in REGISTRY

    def test_did_you_mean_on_typo(self):
        with pytest.raises(KeyError) as excinfo:
            resolve("seive")
        message = excinfo.value.args[0]
        assert "SIEVE" in message
        assert "did you mean" in message.lower()

    def test_unknown_name_lists_known_names(self):
        with pytest.raises(KeyError) as excinfo:
            resolve("zzzz-not-a-policy")
        assert "FIFO" in excinfo.value.args[0]


class TestMake:
    def test_param_passthrough_clock_bits(self):
        policy = make("2-bit-CLOCK", 100, bits=5)
        assert policy.bits == 5

    def test_param_passthrough_qd_fraction(self):
        policy = make("QD-ARC", 100, probation_fraction=0.25)
        assert policy.probation_capacity == 25
        assert policy.main_capacity == 75

    def test_alias_with_params_bit_identical(self):
        """Acceptance: make("2-bit-CLOCK", C) == make("clock2", C, bits=2)."""
        keys = zipf_trace(2000, 20000, 1.0, np.random.default_rng(7)).tolist()
        via_name = make("2-bit-CLOCK", 100)
        via_alias = make("clock2", 100, bits=2)
        assert drive(via_name, keys) == drive(via_alias, keys)
        assert via_name.stats.hits == via_alias.stats.hits

    def test_bad_param_names_policy_and_params(self):
        with pytest.raises(TypeError) as excinfo:
            make("LRU", 100, probation_fraction=0.1)
        message = str(excinfo.value)
        assert "'LRU'" in message
        assert "probation_fraction" in message

    def test_unknown_policy_raises_keyerror(self):
        with pytest.raises(KeyError):
            make("not-a-policy", 100)

    def test_capacity_respected(self):
        policy = make("sieve", 64)
        assert policy.capacity == 64

    @pytest.mark.parametrize("build, what", [
        (make, "capacity"),
        (make_sized, "capacity_bytes"),
    ], ids=["make", "make_sized"])
    @pytest.mark.parametrize("capacity, error, message", [
        ("10", TypeError, "{what} must be an integer >= 1, got '10'"),
        (None, TypeError, "{what} must be an integer >= 1, got None"),
        (True, TypeError, "{what} must be an integer >= 1, got True"),
        (2.5, ValueError, "{what} must be a whole number, got 2.5"),
        (0, ValueError, "LRU needs {what} >= 1, got 0"),
    ], ids=["str", "None", "bool", "fraction", "zero"])
    def test_bad_capacity_fails_with_one_clear_message(
            self, build, what, capacity, error, message):
        """make and make_sized validate a capacity the same way."""
        with pytest.raises(error) as excinfo:
            build("LRU", capacity)
        assert message.format(what=what) in str(excinfo.value)


class TestNames:
    def test_names_filterable_by_category(self):
        everything = names()
        assert "FIFO" in everything and "LRU" in everything
        for category in {spec.category for spec in REGISTRY.values()}:
            subset = names(category)
            assert subset
            assert set(subset) <= set(everything)

    def test_unknown_category_is_empty(self):
        assert names("no-such-category") == []
