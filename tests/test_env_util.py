"""The shared typed env parser (`repro._util.env`) and its adopters."""

import pytest

from repro._util.env import env_choice, env_raw


class TestEnvRaw:
    def test_unset_and_blank_mean_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_X", raising=False)
        assert env_raw("REPRO_X") is None
        monkeypatch.setenv("REPRO_X", "   ")
        assert env_raw("REPRO_X") is None

    def test_strips(self, monkeypatch):
        monkeypatch.setenv("REPRO_X", "  7 ")
        assert env_raw("REPRO_X") == "7"


class TestEnvChoice:
    def test_lowercases_and_matches(self, monkeypatch):
        monkeypatch.setenv("REPRO_X", "  Fused ")
        assert env_choice("REPRO_X", ("reference", "fused")) == "fused"

    def test_strict_rejects_unknown(self, monkeypatch):
        monkeypatch.setenv("REPRO_X", "turbo")
        with pytest.raises(ValueError, match=r"REPRO_X must be one of .*; got 'turbo'"):
            env_choice("REPRO_X", ("reference", "fused"))


class TestAdopters:
    """The REPRO_KERNEL_TIER switch parses through the shared helper."""

    def test_repro_kernel_tier(self, monkeypatch):
        from repro.kernels import registry as kreg

        monkeypatch.setenv("REPRO_KERNEL_TIER", "turbo")
        kreg._reload_env_defaults()
        try:
            with pytest.raises(ValueError, match=r"REPRO_KERNEL_TIER must be one of"):
                kreg.current_tier()
            monkeypatch.setenv("REPRO_KERNEL_TIER", "Reference")
            kreg._reload_env_defaults()
            assert kreg.current_tier() == "reference"
        finally:
            monkeypatch.delenv("REPRO_KERNEL_TIER", raising=False)
            kreg._reload_env_defaults()
