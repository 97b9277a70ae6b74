"""Tests for fault locations, targets and declarative fault specs."""

import pytest

from repro.faults import (
    BitErrorRate,
    FaultLocation,
    FaultSpec,
    FaultTarget,
    effective_class,
)


class TestFaultLocation:
    def test_parse_values(self):
        assert FaultLocation.parse("agent_to_server") == FaultLocation.AGENT_TO_SERVER
        assert FaultLocation.parse("server_to_agent") == FaultLocation.SERVER_TO_AGENT
        assert FaultLocation.parse(FaultLocation.AGENT) == FaultLocation.AGENT

    def test_parse_unknown(self):
        with pytest.raises(KeyError, match="accepted: .*'agent_to_server'"):
            FaultLocation.parse("moon")

    @pytest.mark.parametrize("alias", ["uplink", "downlink", "server-to-agent", "AGENT"])
    def test_aliases_rejected(self, alias):
        with pytest.raises(KeyError):
            FaultLocation.parse(alias)

    def test_effective_class_grouping(self):
        assert effective_class(FaultLocation.AGENT) == "agent"
        assert effective_class(FaultLocation.AGENT_TO_SERVER) == "agent"
        assert effective_class(FaultLocation.SERVER) == "server"
        assert effective_class(FaultLocation.SERVER_TO_AGENT) == "server"


class TestFaultTarget:
    def test_parse_values(self):
        assert FaultTarget.parse("activations") == FaultTarget.ACTIVATIONS
        assert FaultTarget.parse("weights") == FaultTarget.WEIGHTS
        assert FaultTarget.parse("communicated_parameters") == FaultTarget.COMMUNICATED_PARAMETERS

    def test_parse_unknown(self):
        with pytest.raises(KeyError, match="accepted: .*'activations'"):
            FaultTarget.parse("gradients")

    @pytest.mark.parametrize("alias", ["feature_maps", "weight", "communication"])
    def test_aliases_rejected(self, alias):
        with pytest.raises(KeyError):
            FaultTarget.parse(alias)


class TestFaultSpec:
    def test_defaults(self):
        spec = FaultSpec()
        assert spec.location == FaultLocation.SERVER
        assert spec.target == FaultTarget.WEIGHTS
        assert spec.model.name == "transient"
        assert not spec.is_enabled

    def test_string_coercion(self):
        spec = FaultSpec(location="agent", target="activations", bit_error_rate=0.01,
                         model="stuck-at-1")
        assert spec.location == FaultLocation.AGENT
        assert spec.target == FaultTarget.ACTIVATIONS
        assert isinstance(spec.bit_error_rate, BitErrorRate)
        assert spec.is_enabled

    def test_analysis_class(self):
        assert FaultSpec(location="agent_to_server").analysis_class == "agent"
        assert FaultSpec(location="server_to_agent").analysis_class == "server"

    def test_negative_episode_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(injection_episode=-1)

    def test_describe_mentions_location_and_rate(self):
        text = FaultSpec(location="server", bit_error_rate=0.01, injection_episode=3).describe()
        assert "server" in text and "0.01" in text and "episode 3" in text
