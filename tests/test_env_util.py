"""The shared typed env parser (`repro._util.env`) and its adopters."""

import pytest

from repro._util.env import env_choice, env_int, env_raw


class TestEnvRaw:
    def test_unset_and_blank_mean_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_X", raising=False)
        assert env_raw("REPRO_X") is None
        monkeypatch.setenv("REPRO_X", "   ")
        assert env_raw("REPRO_X") is None

    def test_strips(self, monkeypatch):
        monkeypatch.setenv("REPRO_X", "  7 ")
        assert env_raw("REPRO_X") == "7"


class TestEnvInt:
    def test_parses(self, monkeypatch):
        monkeypatch.setenv("REPRO_X", "42")
        assert env_int("REPRO_X", requirement="an integer") == 42

    def test_unset_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_X", raising=False)
        assert env_int("REPRO_X", requirement="an integer") is None

    def test_error_names_variable_and_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_X", "four")
        with pytest.raises(ValueError, match=r"REPRO_X must be an integer; got 'four'"):
            env_int("REPRO_X", requirement="an integer")

    def test_minimum(self, monkeypatch):
        monkeypatch.setenv("REPRO_X", "-1")
        with pytest.raises(ValueError, match=r"REPRO_X must be.*got -1"):
            env_int("REPRO_X", requirement="an integer >= 0", minimum=0)
        monkeypatch.setenv("REPRO_X", "0")
        assert env_int("REPRO_X", requirement="...", minimum=0) == 0

    def test_exclusive_minimum(self, monkeypatch):
        monkeypatch.setenv("REPRO_X", "0")
        with pytest.raises(ValueError, match="REPRO_X"):
            env_int("REPRO_X", requirement="positive", exclusive_minimum=0)


class TestEnvChoice:
    def test_lowercases_and_matches(self, monkeypatch):
        monkeypatch.setenv("REPRO_X", "  Fused ")
        assert env_choice("REPRO_X", ("reference", "fused")) == "fused"

    def test_strict_rejects_unknown(self, monkeypatch):
        monkeypatch.setenv("REPRO_X", "turbo")
        with pytest.raises(ValueError, match=r"REPRO_X must be one of .*; got 'turbo'"):
            env_choice("REPRO_X", ("reference", "fused"))


class TestAdopters:
    """The REPRO_* switches parse through the shared helper."""

    def test_repro_kernel_tier(self, monkeypatch):
        from repro.kernels import registry as kreg

        monkeypatch.setenv("REPRO_KERNEL_TIER", "turbo")
        kreg._reload_env_defaults()
        try:
            with pytest.raises(ValueError, match=r"REPRO_KERNEL_TIER must be one of"):
                kreg.current_tier()
            monkeypatch.setenv("REPRO_KERNEL_TIER", "Blocked")
            kreg._reload_env_defaults()
            assert kreg.current_tier().name == "blocked"
        finally:
            monkeypatch.delenv("REPRO_KERNEL_TIER", raising=False)
            kreg._reload_env_defaults()

    def test_repro_tile_bytes(self, monkeypatch):
        from repro.kernels import registry as kreg

        monkeypatch.setenv("REPRO_TILE_BYTES", "lots")
        kreg._reload_env_defaults()
        try:
            with pytest.raises(ValueError, match="REPRO_TILE_BYTES"):
                kreg.resolve_tile_bytes(None)
            monkeypatch.setenv("REPRO_TILE_BYTES", "0")
            kreg._reload_env_defaults()
            with pytest.raises(ValueError, match="REPRO_TILE_BYTES"):
                kreg.resolve_tile_bytes(None)
            monkeypatch.setenv("REPRO_TILE_BYTES", "4096")
            kreg._reload_env_defaults()
            assert kreg.resolve_tile_bytes(None) == 4096
        finally:
            monkeypatch.delenv("REPRO_TILE_BYTES", raising=False)
            kreg._reload_env_defaults()
