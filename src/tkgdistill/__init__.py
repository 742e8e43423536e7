"""Cross-lingual temporal knowledge graph completion by teacher/student
distillation: a teacher trained on a complete source graph guides a student
on an incomplete target graph through an alignment module, with
pseudo-alignment generation and temporal event transfer paced over training.
"""

__version__ = "0.1.0"

from .alignment import AlignParams, init_align_params
from .encoder import NetworkParams, init_network_params
from .evaluation import (
    DiagnosticConfig,
    MetricsReport,
    evaluate,
    metrics_from_ranks,
    nce_deviation_sweep,
    transfer_ratio,
)
from .distill import (
    PseudoGenConfig,
    TransferRecord,
    generate_pseudo_alignments,
    transfer_events,
)
from .numerics import AdamState, GradCheckReport, adam_step, grad_check
from .scoring import NegativeSamplerConfig
from .tkg import (
    AlignmentPair,
    AlignmentSet,
    GeneratorConfig,
    Quadruple,
    SplitSpec,
    TemporalKG,
    Vocabulary,
    generate_synthetic_pair,
    inject_alignment_noise,
    load_quadruples,
    split_by_time,
    subsample_events,
)
from .trainer import (
    TrainConfig,
    TrainState,
    init_student_from_teacher,
    pretrain_teacher,
    train_mpkd,
)

__all__ = [name for name in dir() if not name.startswith("_")]
