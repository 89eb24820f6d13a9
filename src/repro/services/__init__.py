"""Application service model, catalogs and front-end translators.

This package provides the *inputs* to the QSA model:

* :mod:`~repro.services.model` -- abstract services, service instances
  ``(Qin, Qout, R, b)`` as views over one instance table, and abstract
  service paths (paper §2.1).
* :mod:`~repro.services.applications` -- the distributed application
  templates (video-on-demand, content retrieval, ...) used by the paper's
  workload (§4.1: 10 applications, path lengths 2-5).
* :mod:`~repro.services.catalog` -- random catalog generation with
  controlled QoS compatibility (10-20 instances per service, 40-80
  replica peers per instance).
* :mod:`~repro.services.qoscompiler` -- maps a named user request +
  QoS level onto an abstract service path and end-to-end QoS vector
  (the paper's "QoS compiler [14] or other translators").
* :mod:`~repro.services.translator` -- analytic QoS -> resource
  requirement translation (the paper's assumption 2, refs [3,13,21]).
"""

from repro.services.model import (
    AbstractServicePath,
    InstanceTable,
    ServiceInstance,
)
from repro.services.applications import ApplicationTemplate, default_applications
from repro.services.catalog import CatalogConfig, ServiceCatalog, generate_catalog
from repro.services.qoscompiler import QoSCompiler, UserRequest
from repro.services.translator import AnalyticTranslator

__all__ = [
    "AbstractServicePath",
    "AnalyticTranslator",
    "ApplicationTemplate",
    "CatalogConfig",
    "InstanceTable",
    "QoSCompiler",
    "ServiceCatalog",
    "ServiceInstance",
    "UserRequest",
    "default_applications",
    "generate_catalog",
]
