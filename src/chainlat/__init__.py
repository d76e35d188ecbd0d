"""Static end-to-end latency analysis for cause-effect chains sharing a cache.

The toolkit bounds the maximum end-to-end latency of chains partitioned over
multicore platforms with a shared second-level cache: abstract-interpretation
cache classification, block-level execution windows, hierarchical overlap
detection, interference-driven refinement, and a concrete-execution simulator
acting as the safety oracle.  The submodules (``chainlat.latency``,
``chainlat.sim`` and the rest) stay importable for the finer-grained API.
"""

__version__ = "0.1.0"

from .ingest import generate_workload
from .latency import AnalysisOptions, analyze_bundle
from .model import Interval

__all__ = [
    "AnalysisOptions",
    "Interval",
    "__version__",
    "analyze_bundle",
    "generate_workload",
]
