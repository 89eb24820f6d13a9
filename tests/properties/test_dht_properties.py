"""Model-based property tests for the DHT substrates.

Random sequences of join / leave / put / get are executed against both
DHTs and checked against a plain-dict reference model: whatever was put
and not overwritten must be retrievable from any member, regardless of
the membership churn in between.  This is the property the registry
relies on for discovery correctness under topological variation.
"""

from hypothesis import given, settings, strategies as st

from repro.lookup.chord import ChordRing
from tests.lookup.can import CanNetwork
from tests.lookup.reference_fingers import records

ops = st.lists(
    st.one_of(
        st.tuples(st.just("join"), st.integers(0, 200)),
        st.tuples(st.just("leave"), st.integers(0, 200)),
        st.tuples(st.just("put"), st.integers(0, 30)),
        st.tuples(st.just("get"), st.integers(0, 30)),
    ),
    min_size=5,
    max_size=60,
)


def run_model(dht, schedule, initial_members):
    members = set(initial_members)
    reference = {}
    version = 0
    for op, arg in schedule:
        if op == "join":
            if arg not in members:
                dht.join(arg)
                members.add(arg)
        elif op == "leave":
            if arg in members and len(members) > 1:
                dht.leave(arg)
                members.discard(arg)
        elif op == "put":
            version += 1
            dht.put(f"key-{arg}", version)
            reference[f"key-{arg}"] = version
        else:  # get
            reader = sorted(members)[0]
            value, hops = dht.get(f"key-{arg}", from_peer=reader)
            assert value == reference.get(f"key-{arg}")
            assert hops >= 0
    # Final sweep: every key readable from every surviving member class.
    reader = sorted(members)[-1]
    for key, expected in reference.items():
        value, _ = dht.get(key, from_peer=reader)
        assert value == expected


@settings(max_examples=30, deadline=None)
@given(ops)
def test_chord_consistent_with_dict_model(schedule):
    ring = ChordRing(bits=16, seed=1)
    initial = range(300, 310)
    for pid in initial:
        ring.join(pid)
    run_model(ring, schedule, initial)


@settings(max_examples=30, deadline=None)
@given(ops)
def test_can_consistent_with_dict_model(schedule):
    net = CanNetwork(dimensions=2, seed=1)
    initial = range(300, 310)
    for pid in initial:
        net.join(pid)
    run_model(net, schedule, initial)


@settings(max_examples=20, deadline=None)
@given(ops)
def test_can_volume_invariant_under_schedule(schedule):
    net = CanNetwork(dimensions=2, seed=2)
    members = set(range(300, 306))
    for pid in members:
        net.join(pid)
    for op, arg in schedule:
        if op == "join" and arg not in members:
            net.join(arg)
            members.add(arg)
        elif op == "leave" and arg in members and len(members) > 1:
            net.leave(arg)
            members.discard(arg)
        assert abs(net.total_volume() - 1.0) < 1e-9


@settings(max_examples=20, deadline=None)
@given(ops)
def test_chord_storage_partition_is_exact(schedule):
    """Every stored key lives on exactly one node."""
    ring = ChordRing(bits=16, seed=3)
    members = set(range(300, 306))
    for pid in members:
        ring.join(pid)
    keys = set()
    for op, arg in schedule:
        if op == "join" and arg not in members:
            ring.join(arg)
            members.add(arg)
        elif op == "leave" and arg in members and len(members) > 1:
            ring.leave(arg)
            members.discard(arg)
        elif op == "put":
            ring.put(f"key-{arg}", arg)
            keys.add(f"key-{arg}")
        holders = {
            k: sum(1 for pid in ring.peers() if k in records(ring, pid))
            for k in keys
        }
        assert all(count == 1 for count in holders.values()), holders
