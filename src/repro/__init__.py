"""repro — reproduction of "Divide and Conquer Frontend Bottleneck" (ISCA 2020).

The package implements the paper's SN4L+Dis+BTB frontend prefetcher, the
baselines it is compared against (NXL family, conventional discontinuity,
Confluence/SHIFT, Boomerang, Shotgun), and the full substrate they run on:
a synthetic ISA with a real byte-level pre-decoder, synthetic server
workloads generated from control-flow graphs, a memory hierarchy with a
dynamically-virtualized LLC, BTB organisations, and a trace-driven
cycle-approximate frontend simulator.

Quickstart::

    from repro.experiments import run_scheme

    base = run_scheme("web_apache", "baseline")
    result = run_scheme("web_apache", "sn4l_dis_btb")
    print(result.stats.speedup_over(base.stats))

Package names resolve on first access (:mod:`repro._lazy`), so
importing ``repro`` or reading a stored result loads no simulator.
"""

from typing import TYPE_CHECKING

from ._lazy import lazy_exports

if TYPE_CHECKING:
    from .workloads import get_trace, workload_names

__version__ = "1.0.0"

__all__ = ["get_trace", "workload_names", "__version__"]

__getattr__ = lazy_exports(__name__, {
    ".workloads": ("get_trace", "workload_names"),
})
