"""The departure draw evaluated from scratch: the oracle for the table.

``ChurnProcess.pick_departing_peer`` decides a draw on a prefix table
kept across one churn minute (``repro/network/churn.py``).  This is the
body it had before that table, verbatim: three O(N) passes over the
alive peers per departure.  :func:`patch_pick` installs it in place of
the production method, which is how the whole-run differential
(``tests/perf/test_departure_draw_differential.py``) runs a grid on it.
"""

from repro.network.churn import ChurnProcess


def reference_pick_departing_peer(self):
    """Weighted draw over alive peers; ``None`` if at the floor."""
    ids = self.directory.alive_ids
    if len(ids) <= self.config.min_alive:
        return None
    uptimes, ids = self.directory.uptimes(self.sim.now)
    if self.config.departure_bias == 0.0:
        idx = int(self.rng.integers(len(ids)))
    else:
        # Scalar-draw spelling of rng.choice(len(ids), p=weights): the
        # same single random() over the same cdf, minus choice's
        # per-call validation of p.
        weights = (1.0 + uptimes) ** (-self.config.departure_bias)
        weights /= weights.sum()
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        idx = int(cdf.searchsorted(self.rng.random(), side="right"))
    return ids[idx]


def patch_pick(monkeypatch):
    """Run every :class:`ChurnProcess` on the reference draw."""
    monkeypatch.setattr(
        ChurnProcess, "pick_departing_peer", reference_pick_departing_peer
    )
