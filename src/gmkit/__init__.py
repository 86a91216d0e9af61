"""gmkit: group membership verification with sparse ternary group codes.

The library learns a projection, per-signature ternary hash codes, group
assignments and ternary group representations jointly, evaluates the
verification / identification / reconstruction trade-offs, and runs a
three-message homomorphic protocol that verifies membership.  The protocol
does not hide the query from the server: the server learns the query's
distance to every group, d_g = 2S - 2 p.r_g, and so R^T p, from which it
recovers the whole query code p when R has rank l (which needs M >= l).
The querying user sees one masked value per group (README, "Security
scale").
"""

from .core import (
    CodeMatrix,
    ModelConfig,
    ProjectionMatrix,
    SignatureMatrix,
    embed,
    ternarize_columns,
)
from .data import Dataset, SyntheticSpec, generate, load_dataset, save_dataset
from .errors import GmkitError
from .evaluation import (
    IdentificationReport,
    QuerySet,
    RocCurve,
    SecurityReport,
    identification_report,
    identification_sweep,
    pfn_at_pfp,
    query_set_from_dataset,
    security_report,
    threshold_at_pfp,
    verification_sweep,
)
from .learning import (
    AssignmentMatrix,
    Model,
    ObjectiveBreakdown,
    e_step,
    kmeans,
    objective,
    ry_step,
    train,
    train_random_assignment_baseline,
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
    "e_step",
    "embed",
    "generate",
    "identification_report",
    "identification_sweep",
    "kmeans",
    "load_dataset",
    "load_model",
    "objective",
    "pfn_at_pfp",
    "query_set_from_dataset",
    "run_protocol",
    "ry_step",
    "save_dataset",
    "save_model",
    "security_report",
    "ternarize_columns",
    "threshold_at_pfp",
    "train",
    "train_random_assignment_baseline",
    "verification_sweep",
]
