"""gmkit: group membership verification with sparse ternary group codes.

The library learns a projection, per-signature ternary hash codes, group
assignments and ternary group representations jointly, evaluates the
verification / identification / reconstruction trade-offs, and runs a
three-message homomorphic protocol that verifies membership.  The protocol
hides the query code from the server, but the server learns the query's
distance to every group and the querying user sees one masked value per
group (README, "Security scale").
"""

from .core import (
    CodeMatrix,
    ModelConfig,
    ProjectionMatrix,
    SignatureMatrix,
    TernaryCode,
    correlation,
    embed,
    squared_distance,
    ternarize,
    ternarize_columns,
)
from .data import Dataset, SyntheticSpec, generate, load_dataset, load_matrix, save_dataset, save_matrix
from .errors import GmkitError
from .evaluation import (
    IdentificationReport,
    QuerySet,
    RocCurve,
    SecurityReport,
    fit_beta,
    identification_report,
    identification_sweep,
    identify,
    pfn_at_pfp,
    query_set_from_dataset,
    reconstruct,
    security_report,
    threshold_at_pfp,
    verification_sweep,
    verify,
)
from .learning import (
    AssignmentMatrix,
    Model,
    ObjectiveBreakdown,
    e_step,
    embedding_cost,
    kmeans,
    objective,
    ry_step,
    scatter_traces,
    train,
    train_random_assignment_baseline,
    w_step,
)
from .modelio import load_model, save_model
from .protocol import ProtocolDecision, ProtocolKeys, ProtocolTranscript, SecurityParams, run_protocol

__version__ = "0.1.0"

__all__ = [
    "AssignmentMatrix",
    "CodeMatrix",
    "Dataset",
    "GmkitError",
    "IdentificationReport",
    "Model",
    "ModelConfig",
    "ObjectiveBreakdown",
    "ProjectionMatrix",
    "ProtocolDecision",
    "ProtocolKeys",
    "ProtocolTranscript",
    "QuerySet",
    "RocCurve",
    "SecurityParams",
    "SecurityReport",
    "SignatureMatrix",
    "SyntheticSpec",
    "TernaryCode",
    "correlation",
    "e_step",
    "embed",
    "embedding_cost",
    "fit_beta",
    "generate",
    "identification_report",
    "identification_sweep",
    "identify",
    "kmeans",
    "load_dataset",
    "load_matrix",
    "load_model",
    "objective",
    "pfn_at_pfp",
    "query_set_from_dataset",
    "reconstruct",
    "run_protocol",
    "ry_step",
    "save_dataset",
    "save_matrix",
    "save_model",
    "scatter_traces",
    "security_report",
    "squared_distance",
    "ternarize",
    "ternarize_columns",
    "threshold_at_pfp",
    "train",
    "train_random_assignment_baseline",
    "verification_sweep",
    "verify",
    "w_step",
]
