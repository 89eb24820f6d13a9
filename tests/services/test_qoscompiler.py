"""Unit tests for the request front end (QoS compiler)."""

import numpy as np
import pytest

from repro.core.qos import Interval
from repro.services.applications import default_applications
from repro.services.qoscompiler import QoSCompiler, UserRequest


def make_request(**kw):
    defaults = dict(
        request_id=0,
        peer_id=1,
        application="video-on-demand",
        qos_level="high",
        session_duration=10.0,
        arrival_time=0.0,
    )
    defaults.update(kw)
    return UserRequest(**defaults)


@pytest.fixture()
def compiler():
    return QoSCompiler.from_templates(
        default_applications(), np.random.default_rng(0)
    )


class TestUserRequest:
    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            make_request(qos_level="ultra")

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            make_request(session_duration=0.0)


class TestCompile:
    def test_path_matches_template(self, compiler):
        path, _ = compiler.compile(make_request())
        assert path.application == "video-on-demand"
        assert path.services == ("video-server", "transcoder", "video-player")

    def test_quality_requirement_from_level(self, compiler):
        for level, floor in (("low", 1), ("average", 2), ("high", 3)):
            _, qos = compiler.compile(make_request(qos_level=level))
            assert qos["quality"] == Interval(floor, 3)

    def test_format_drawn_from_user_vocabulary(self, compiler):
        app = {a.name: a for a in default_applications()}["video-on-demand"]
        drawn = {compiler.compile(make_request())[1]["format"]
                 for _ in range(40)}
        assert drawn == set(app.user_formats())

    @pytest.mark.parametrize("vocabulary", [1, 3, 8])
    def test_format_draw_is_rng_choice_by_index(self, vocabulary):
        """``compile`` draws the format as ``fmts[rng.integers(n)]``:
        the format ``rng.choice(fmts)`` picks and the generator state
        it leaves, one draw call per request."""
        apps = default_applications(formats_per_interface=vocabulary)
        app = apps[0]
        fmts = app.user_formats()
        assert len(fmts) == vocabulary
        by_choice = np.random.default_rng(vocabulary)
        compiler = QoSCompiler.from_templates(
            apps, np.random.default_rng(vocabulary)
        )
        request = make_request(application=app.name)
        for _ in range(20_000):
            want = str(by_choice.choice(fmts))
            assert compiler.compile(request)[1]["format"] == want
        assert (
            compiler.rng.bit_generator.state
            == by_choice.bit_generator.state
        )

    def test_explicit_format_respected(self, compiler):
        app = {a.name: a for a in default_applications()}["video-on-demand"]
        fmt = app.user_formats()[1]
        _, qos = compiler.compile(make_request(out_format=fmt))
        assert qos["format"] == fmt

    def test_foreign_format_rejected(self, compiler):
        with pytest.raises(ValueError):
            compiler.compile(make_request(out_format="bogus-format"))

    def test_no_rng_and_no_format_rejected(self):
        compiler = QoSCompiler.from_templates(default_applications())
        with pytest.raises(ValueError):
            compiler.compile(make_request())

    def test_unknown_application_rejected(self, compiler):
        with pytest.raises(KeyError):
            compiler.compile(make_request(application="no-such-app"))
