"""logevo: online semantic clustering of error logs with evolution scoring."""

from .clustering import AssignmentOutcome, Cluster, ClusterState, HyperParams
from .metrics import BatchReport, EvolutionScore, silhouette_batch
from .metrics import score_C, score_LCE, score_R, score_S
from .records import Batch, BatchPlan, Level, LineFormat, LogRecord, plan_batches, scrub
from .textnorm import TokenSeq, normalize

__all__ = [
    "AssignmentOutcome",
    "Batch",
    "BatchPlan",
    "BatchReport",
    "Cluster",
    "ClusterState",
    "EvolutionScore",
    "HyperParams",
    "Level",
    "LineFormat",
    "LogRecord",
    "TokenSeq",
    "normalize",
    "plan_batches",
    "score_C",
    "score_LCE",
    "score_R",
    "score_S",
    "scrub",
    "silhouette_batch",
]

__version__ = "0.1.0"
