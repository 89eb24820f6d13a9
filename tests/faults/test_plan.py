"""FaultPlan / FaultSpec: validation, windows and JSON round-trips."""

import json

import pytest

from repro.faults import FAULT_KINDS, FaultPlan, FaultSpec


def plan_to_json(plan: FaultPlan, indent: int = 2) -> str:
    """The JSON ``FaultPlan.from_json`` reads, each spec's defaults
    omitted (what ``FaultPlan.to_json`` wrote)."""
    defaults = {
        "rate": 0.0, "start": 0.0, "end": None,
        "delay": 0.0, "staleness": 0.0, "fraction": 0.5,
    }
    faults = []
    for spec in plan.faults:
        out = {"kind": spec.kind}
        out.update((k, getattr(spec, k)) for k, d in defaults.items()
                   if getattr(spec, k) != d)
        faults.append(out)
    doc = {"faults": faults, **({"name": plan.name} if plan.name else {})}
    return json.dumps(doc, indent=indent, sort_keys=True)


class TestFaultSpecValidation:
    def test_every_kind_constructs(self):
        kwargs = {
            "probe_delay": {"delay": 1.0},
            "stale_state": {"staleness": 2.0},
        }
        for kind in FAULT_KINDS:
            FaultSpec(kind=kind, rate=0.5, **kwargs.get(kind, {}))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="cosmic_ray")

    @pytest.mark.parametrize("rate", [-0.1, 1.01])
    def test_rate_bounds(self, rate):
        with pytest.raises(ValueError, match="rate"):
            FaultSpec(kind="probe_loss", rate=rate)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="empty fault window"):
            FaultSpec(kind="probe_loss", rate=0.1, start=5.0, end=5.0)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="start"):
            FaultSpec(kind="probe_loss", rate=0.1, start=-1.0)

    def test_probe_delay_needs_mean(self):
        with pytest.raises(ValueError, match="positive mean delay"):
            FaultSpec(kind="probe_delay", rate=0.1)

    def test_stale_state_needs_staleness(self):
        with pytest.raises(ValueError, match="positive staleness"):
            FaultSpec(kind="stale_state", rate=0.1)

    @pytest.mark.parametrize("fraction", [0.0, 1.0])
    def test_partition_fraction_open_interval(self, fraction):
        with pytest.raises(ValueError, match="fraction"):
            FaultSpec(kind="partition", fraction=fraction)

    def test_window_activity(self):
        spec = FaultSpec(kind="probe_loss", rate=0.1, start=2.0, end=4.0)
        assert not spec.active(1.9)
        assert spec.active(2.0)
        assert spec.active(3.9)
        assert not spec.active(4.0)
        open_ended = FaultSpec(kind="probe_loss", rate=0.1, start=2.0)
        assert open_ended.active(1e9)


class TestFaultPlan:
    def test_empty_plan_is_inactive(self):
        assert not FaultPlan().active
        assert FaultPlan((FaultSpec(kind="probe_loss", rate=0.1),)).active

    def test_specs_filters_by_kind_in_order(self):
        a = FaultSpec(kind="probe_loss", rate=0.1)
        b = FaultSpec(kind="lookup_failure", rate=0.2)
        c = FaultSpec(kind="probe_loss", rate=0.3)
        plan = FaultPlan((a, b, c))
        assert plan.specs("probe_loss") == (a, c)
        assert plan.specs("partition") == ()
        with pytest.raises(ValueError, match="unknown fault kind"):
            plan.specs("nope")

    def test_json_round_trip(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(kind="probe_loss", rate=0.2),
                FaultSpec(kind="probe_delay", rate=0.1, delay=0.5),
                FaultSpec(kind="stale_state", rate=0.5, staleness=3.0),
                FaultSpec(kind="partition", start=10.0, end=20.0,
                          fraction=0.3),
            ),
            name="round-trip",
        )
        assert FaultPlan.from_json(plan_to_json(plan)) == plan

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(
            '{"name": "file", "faults": ['
            '{"kind": "probe_loss", "rate": 0.25},'
            '{"kind": "partition", "start": 1, "end": 2, "fraction": 0.4}'
            "]}"
        )
        plan = FaultPlan.load(str(path))
        assert plan.name == "file"
        assert len(plan.faults) == 2
        assert plan.faults[0].rate == 0.25

    def test_from_dict_rejects_malformed(self):
        with pytest.raises(ValueError, match="must be an object"):
            FaultPlan.from_dict([])
        with pytest.raises(ValueError, match="must be a list"):
            FaultPlan.from_dict({"faults": 3})
        with pytest.raises(ValueError, match="missing 'kind'"):
            FaultPlan.from_dict({"faults": [{"rate": 0.5}]})
        with pytest.raises(ValueError, match="unknown fields"):
            FaultPlan.from_dict(
                {"faults": [{"kind": "probe_loss", "severity": 9}]}
            )

    def test_str_mentions_kinds_and_windows(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(kind="probe_loss", rate=0.2),
                FaultSpec(kind="partition", start=1.0, end=2.0,
                          fraction=0.3),
            ),
            name="lossy",
        )
        text = str(plan)
        assert "lossy" in text
        assert "probe_loss(rate=0.2)" in text
        assert "partition(fraction=0.3)" in text
        assert "(empty)" in str(FaultPlan())
