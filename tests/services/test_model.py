"""Unit tests for the service model primitives."""

import pytest

from repro.core.qos import QoSVector
from repro.core.resources import ResourceVector
from repro.services.model import AbstractServicePath
from tests.services.reference_catalog import instance_group, make_instance

NAMES = ("cpu", "memory")


def inst(iid, service):
    return make_instance(
        iid, service, QoSVector(), QoSVector(),
        ResourceVector(NAMES, [1, 1]), 10.0,
    )


class TestServiceInstance:
    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            make_instance(
                "x/0", "x", QoSVector(), QoSVector(),
                ResourceVector(NAMES, [1, 1]), -1.0,
            )

    def test_frozen(self):
        i = inst("x/0", "x")
        with pytest.raises(Exception):
            i.bandwidth = 5.0


class TestAbstractServicePath:
    def test_flow_order_accessors(self):
        p = AbstractServicePath("vod", ("server", "transcoder", "player"))
        assert len(p) == 3
        assert list(p) == ["server", "transcoder", "player"]

    def test_reversed_is_selection_order(self):
        p = AbstractServicePath("vod", ("server", "player"))
        assert p.reversed() == ("player", "server")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AbstractServicePath("x", ())

    def test_duplicate_service_rejected(self):
        with pytest.raises(ValueError):
            AbstractServicePath("x", ("a", "b", "a"))

    def test_single_hop_path(self):
        p = AbstractServicePath("retrieval", ("store",))
        assert list(p) == ["store"] and len(p) == 1


class TestInstanceGroup:
    def test_groups_by_service(self):
        instances = [inst("a/0", "a"), inst("a/1", "a"), inst("b/0", "b")]
        groups = instance_group(instances)
        assert {i.instance_id for i in groups["a"]} == {"a/0", "a/1"}
        assert {i.instance_id for i in groups["b"]} == {"b/0"}

    def test_empty(self):
        assert instance_group([]) == {}
