"""Both catalog generators draw from the configured §4.1 distribution.

``generate_catalog`` draws each column as one block per service; the
scalar generator kept in ``reference_catalog`` draws instance by
instance.  Their catalogs are different realizations, so nothing here
compares them draw for draw.  Instead each is held, over seeds 0-19
pooled, to the configured distribution with the same assertions:

* every categorical marginal -- instances per service, quality, input
  and output format per interface, replica count -- puts each category's
  pooled share within ``Z`` binomial standard errors ``sqrt(p(1-p)/N)``
  of its configured probability ``p``;
* each (quality, output format) share is within ``Z`` SE of the product
  of the two configured marginals, which are drawn independently;
* ``R`` and ``b`` lie inside their per-quality envelopes and their means
  are within ``Z`` SE (``range / sqrt(12 N)``) of the envelope midpoint;
* every replica set is distinct, ascending and drawn from ``peer_ids``,
  and the pooled per-peer hosting counts pass a chi-square test against
  uniform at ``p > P_MIN``.

The thresholds are fixed in advance, not fitted to either generator;
the scalar oracle passing the same assertions shows they are calibrated.
The third configuration has fewer peers than most replica counts, so it
covers the ``min(k, n_peers)`` clip and the many-collision redraws.
"""

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from math import sqrt
from typing import Dict, List, Tuple

import numpy as np
import pytest
from scipy.stats import chi2

from repro.services.applications import ApplicationTemplate, default_applications
from repro.services.catalog import CatalogConfig, generate_catalog
from repro.services.translator import AnalyticTranslator
from tests.services import reference_catalog

#: Standard errors a pooled share or mean may sit from its expectation.
Z = 4.0
#: Smallest chi-square p-value the pooled hosting counts may have.
P_MIN = 1e-4
SEEDS = range(20)

COLD_APPS = tuple(
    ApplicationTemplate(
        f"cold{a:03d}",
        tuple(f"cold{a:03d}-s{k}" for k in range(5)),
        formats_per_interface=8,
    )
    for a in range(20)
)

#: name -> (applications, peer ids, catalog config)
CONFIGS = {
    "default": (default_applications(), tuple(range(1000)), CatalogConfig()),
    "compose-cold": (
        COLD_APPS,
        tuple(range(1000)),
        CatalogConfig(instances_per_service=(60, 70), replicas_per_instance=(3, 6)),
    ),
    "clipped": (
        default_applications(),
        tuple(range(50)),
        CatalogConfig(replicas_per_instance=(40, 80)),
    ),
}

GENERATORS = {
    "blocks": generate_catalog,
    "oracle": reference_catalog.generate_catalog,
}

#: The scalar oracle takes ~10 s over 20 compose-cold-shaped catalogs, so
#: that one control case runs in the full suite only.
SLOW = {("oracle", "compose-cold")}

CASES = [
    pytest.param(
        generator,
        config,
        id=f"{generator}-{config}",
        marks=[pytest.mark.slow] if (generator, config) in SLOW else [],
    )
    for generator in GENERATORS
    for config in CONFIGS
]


@dataclass
class Pooled:
    """What the assertions read from 20 seeds' catalogs of one case."""

    instances_per_service: Counter = field(default_factory=Counter)
    quality: Counter = field(default_factory=Counter)
    #: ("in" | "out", application, interface) -> format counts
    formats: Dict[Tuple[str, str, int], Counter] = field(default_factory=dict)
    #: (application, output interface) -> (quality, format) counts
    joint: Dict[Tuple[str, int], Counter] = field(default_factory=dict)
    replica_count: Counter = field(default_factory=Counter)
    #: quality -> R rows / b values of the instances at that quality
    resources: Dict[int, List[np.ndarray]] = field(default_factory=dict)
    bandwidth: Dict[int, List[float]] = field(default_factory=dict)
    host_records: List[Tuple[int, ...]] = field(default_factory=list)
    hosting: Counter = field(default_factory=Counter)


@lru_cache(maxsize=None)
def pooled(generator: str, config: str) -> Pooled:
    applications, peers, catalog_config = CONFIGS[config]
    out = Pooled()
    for seed in SEEDS:
        catalog = GENERATORS[generator](
            applications, peers, np.random.default_rng(seed), catalog_config
        )
        for app in applications:
            for k, service in enumerate(app.services):
                candidates = catalog.by_service.get(service, [])
                out.instances_per_service[len(candidates)] += 1
                ins = out.formats.setdefault(("in", app.name, k - 1), Counter())
                outs = out.formats.setdefault(("out", app.name, k), Counter())
                joint = out.joint.setdefault((app.name, k), Counter())
                for inst in candidates:
                    quality = inst.qout["quality"]
                    out.quality[quality] += 1
                    ins[inst.qin["format"]] += 1
                    outs[inst.qout["format"]] += 1
                    joint[quality, inst.qout["format"]] += 1
                    out.resources.setdefault(quality, []).append(
                        inst.resources.values
                    )
                    out.bandwidth.setdefault(quality, []).append(inst.bandwidth)
                    hosts = catalog.hosts(inst.instance_id)
                    out.replica_count[len(hosts)] += 1
                    out.host_records.append(hosts)
                    out.hosting.update(hosts)
    return out


def assert_shares(observed: Counter, expected: Dict, what: str) -> None:
    """Each category's share within ``Z`` binomial SE of its probability."""
    n = sum(observed.values())
    stray = set(observed) - set(expected)
    assert not stray, f"{what}: {sorted(stray)} outside the support"
    for category, p in expected.items():
        share = observed[category] / n
        bound = Z * sqrt(p * (1 - p) / n)
        assert abs(share - p) <= bound, (
            f"{what} {category!r}: share {share:.4f} vs p {p:.4f} "
            f"(N={n}, bound {bound:.4f})"
        )


def uniform(values) -> Dict:
    values = list(values)
    return {v: 1 / len(values) for v in values}


@pytest.mark.parametrize("generator, config", CASES)
def test_instances_per_service(generator, config):
    lo, hi = CONFIGS[config][2].instances_per_service
    assert_shares(
        pooled(generator, config).instances_per_service,
        uniform(range(lo, hi + 1)),
        "instances per service",
    )


@pytest.mark.parametrize("generator, config", CASES)
def test_quality(generator, config):
    catalog_config = CONFIGS[config][2]
    assert_shares(
        pooled(generator, config).quality,
        dict(zip(catalog_config.quality_levels, catalog_config.quality_weights)),
        "quality",
    )


@pytest.mark.parametrize("generator, config", CASES)
def test_formats_per_interface(generator, config):
    apps = {app.name: app for app in CONFIGS[config][0]}
    for (side, name, k), counts in pooled(generator, config).formats.items():
        assert_shares(
            counts,
            uniform(apps[name].interface_formats(k)),
            f"{side}put format of {name} interface {k}",
        )


@pytest.mark.parametrize("generator, config", CASES)
def test_quality_and_output_format_independent(generator, config):
    applications, _, catalog_config = CONFIGS[config]
    weights = dict(zip(catalog_config.quality_levels, catalog_config.quality_weights))
    apps = {app.name: app for app in applications}
    for (name, k), counts in pooled(generator, config).joint.items():
        formats = apps[name].interface_formats(k)
        expected = {
            (q, f): w / len(formats) for q, w in weights.items() for f in formats
        }
        assert_shares(counts, expected, f"(quality, format) of {name} interface {k}")


@pytest.mark.parametrize("generator, config", CASES)
def test_resources_and_bandwidth_per_quality(generator, config):
    translator = AnalyticTranslator()
    draws = pooled(generator, config)
    lo, hi = translator.base_demand
    for quality, rows in draws.resources.items():
        scale = translator.quality_scale(quality)
        block = np.array(rows)
        assert (block >= lo * scale).all() and (block <= hi * scale).all()
        bound = Z * (hi - lo) * scale / sqrt(12 * len(block))
        assert np.all(np.abs(block.mean(axis=0) - (lo + hi) / 2 * scale) <= bound)
    for quality, values in draws.bandwidth.items():
        b_lo, b_hi = translator.bandwidth_ranges[quality]
        values = np.array(values)
        assert (values >= b_lo).all() and (values <= b_hi).all()
        bound = Z * (b_hi - b_lo) / sqrt(12 * len(values))
        assert abs(values.mean() - (b_lo + b_hi) / 2) <= bound


@pytest.mark.parametrize("generator, config", CASES)
def test_replica_count(generator, config):
    _, peers, catalog_config = CONFIGS[config]
    lo, hi = catalog_config.replicas_per_instance
    expected: Counter = Counter()
    for k in range(lo, hi + 1):
        expected[min(k, len(peers))] += 1 / (hi - lo + 1)
    assert_shares(pooled(generator, config).replica_count, expected, "replicas")


@pytest.mark.parametrize("generator, config", CASES)
def test_replica_sets_uniform(generator, config):
    peers = CONFIGS[config][1]
    draws = pooled(generator, config)
    peer_set = set(peers)
    for hosts in draws.host_records:
        assert all(a < b for a, b in zip(hosts, hosts[1:])), hosts
        assert peer_set.issuperset(hosts), hosts
    observed = np.array([draws.hosting[p] for p in peers], dtype=float)
    expected = observed.sum() / len(peers)
    statistic = ((observed - expected) ** 2 / expected).sum()
    assert chi2.sf(statistic, len(peers) - 1) > P_MIN
