"""The departure draw on the prefix table against the draw from scratch.

``ChurnProcess`` keeps one unnormalised prefix table of departure
weights per ``(sim.now, directory.generation)`` and edits it for its own
arrivals and departures (``repro/network/churn.py``).  Every pick must
still return the id -- and leave the generator in the state -- that the
weight expression evaluated from scratch on a model gives
(``_reference_pick`` of ``test_alive_set.py``, on a cloned generator).

Hypothesis drives one process through bursts of arrivals, departures and
bare picks at one ``now``, with tied uptimes, uptimes from 1e-9 to 1e12
(so removing the heavy peers leaves a remaining total far below the
table's, the cancellation the error margin is sized against), bias 0.5,
1 and 2, a ``min_alive`` floor it runs into, departures made behind the
process's back (which must drop the table) and clock ticks.  A second
test forces draws onto the boundaries of the reference CDF and their
``nextafter`` neighbours: those are inside the error margin, so each
must take the reference path and still agree with it.
"""

import copy

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.resources import ResourceVector
from repro.network.churn import ChurnConfig, ChurnProcess
from repro.network.soa import SoAPeerDirectory
from repro.sim import Simulator
from tests.network.test_alive_set import _reference_pick

NAMES = ("cpu", "memory")
CAPACITY = ResourceVector(NAMES, np.array([4.0, 8.0]))

#: Uptimes with many exact ties and six decades of spread either side.
_uptimes = st.one_of(
    st.sampled_from((0.0, 1e-9, 1.0, 2.0, 120.0, 1e6, 1e12)),
    st.floats(min_value=1e-9, max_value=1e12),
)

_steps = st.lists(
    st.one_of(
        st.tuples(st.just("arrive"), _uptimes),
        st.tuples(st.just("depart"), st.just(0.0)),
        st.tuples(st.just("pick"), st.just(0.0)),
        # An outside departure, as a fraction of the alive sequence.
        st.tuples(st.just("outside"), st.floats(min_value=0.0, max_value=1.0)),
        # The process's own departure, during which its callback departs
        # another peer and creates one (no net change in the count).
        st.tuples(st.just("swap"), st.floats(min_value=0.0, max_value=1.0)),
        st.tuples(st.just("tick"), st.sampled_from((0.5, 1.0))),
    ),
    min_size=1,
    max_size=80,
)


class _Model:
    """A churn process over a fresh directory, plus the dict model."""

    def __init__(self, uptimes, bias, min_alive, rng, rate=5.0):
        self.sim = Simulator()
        self.directory = SoAPeerDirectory(NAMES, initial_rows=1)
        self.joined = {}
        self.alive = []
        self.pending = 0.0  # uptime of the next arrival
        self.swap = None    # see _on_departure
        for uptime in uptimes:
            self._create(-uptime)
        self.churn = ChurnProcess(
            self.sim, self.directory,
            ChurnConfig(rate, departure_bias=bias, min_alive=min_alive),
            spawn_peer=lambda now: self._create(now - self.pending),
            on_departure=self._on_departure,
            rng=rng,
        )

    def _on_departure(self, pid):
        """With ``swap`` set, replace another alive peer behind the
        process's back while its own departure is under way."""
        others = [other for other in self.alive if other != pid]
        if self.swap is None or not others:
            return
        other = others[min(int(self.swap * len(others)), len(others) - 1)]
        self.alive.remove(other)
        self.directory.depart(other, self.sim.now)
        self._create(self.sim.now - self.pending)

    def _create(self, joined_at):
        pid = self.directory.create_peer(CAPACITY, 1e5, joined_at=joined_at)
        self.joined[pid] = self.directory[pid].joined_at
        self.alive.append(pid)
        return pid

    def reference(self, rng):
        config = self.churn.config
        return _reference_pick(
            self.alive, self.joined, self.sim.now, config.departure_bias,
            rng, config.min_alive,
        )


@settings(max_examples=200, deadline=None)
@given(
    uptimes=st.lists(_uptimes, min_size=1, max_size=40),
    steps=_steps,
    bias=st.sampled_from((0.5, 1.0, 2.0)),
    min_alive=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_table_draw_matches_the_draw_from_scratch(
    uptimes, steps, bias, min_alive, seed
):
    rng = np.random.default_rng(seed)
    model = _Model(uptimes, bias, min_alive, rng)
    churn, directory = model.churn, model.directory
    for op, arg in steps:
        if op == "arrive":
            model.pending = arg
            churn.arrive()
        elif op == "tick":
            model.sim.run(until=model.sim.now + arg)
        elif op == "outside":
            if model.alive:
                at = min(int(arg * len(model.alive)), len(model.alive) - 1)
                pid = model.alive.pop(at)
                directory.depart(pid, model.sim.now)
        else:
            clone = copy.deepcopy(rng)
            want = model.reference(clone)
            model.swap = arg if op == "swap" else None
            got = churn.pick_departing_peer() if op == "pick" else churn.depart()
            assert got == want
            assert type(got) is type(want)
            assert rng.bit_generator.state == clone.bit_generator.state
            if op != "pick" and got is not None:
                model.alive.remove(got)
        assert directory.alive_ids == model.alive


class _Draws:
    """A generator stub: ``random()`` returns the queued draws in order."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


def _reference_cdf(model):
    """The reference computation's normalised CDF over the alive peers."""
    uptimes, _ = model.directory.uptimes(model.sim.now)
    weights = (1.0 + uptimes) ** (-model.churn.config.departure_bias)
    weights /= weights.sum()
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return cdf


@settings(max_examples=60, deadline=None)
@given(
    uptimes=st.lists(_uptimes, min_size=4, max_size=40),
    arrivals=st.lists(_uptimes, max_size=4),
    departures=st.integers(min_value=0, max_value=2),
    bias=st.sampled_from((0.5, 1.0, 2.0)),
    at=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_boundary_draws_take_the_reference_path(
    uptimes, arrivals, departures, bias, at, seed
):
    source = np.random.default_rng(seed)
    model = _Model(uptimes, bias, 0, _Draws(source.random(departures)))
    churn = model.churn
    # Edit the table first, so the boundaries are those of an edited one.
    for _ in range(departures):
        model.alive.remove(churn.depart())
    for uptime in arrivals:
        model.pending = uptime
        churn.arrive()
    cdf = _reference_cdf(model)
    edge = float(cdf[min(int(at * (len(cdf) - 1)), len(cdf) - 2)])
    draws = [edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0)]
    for draw in (float(d) for d in draws if d < 1.0):  # random() < 1
        fallbacks = churn.n_exact_fallbacks
        churn.rng = _Draws([draw])
        want = model.alive[int(cdf.searchsorted(draw, side="right"))]
        assert churn.pick_departing_peer() == want
        assert churn.n_exact_fallbacks == fallbacks + 1


def test_one_table_per_churn_minute(monkeypatch):
    """A churned minute builds its table once and decides on it."""
    builds = []
    build = ChurnProcess._build
    monkeypatch.setattr(
        ChurnProcess, "_build",
        lambda self, now: builds.append(now) or build(self, now),
    )
    model = _Model(
        np.linspace(0.0, 120.0, 500).tolist(), 1.0, 2,
        np.random.default_rng(3), rate=40.0,
    )
    churn = model.churn
    churn.start()
    model.sim.run(until=30.5)
    assert churn.n_departures > 400
    assert churn.n_exact_fallbacks == 0
    # One build per minute with a departure, none per event.
    assert len(builds) == len(set(builds)) <= 30
