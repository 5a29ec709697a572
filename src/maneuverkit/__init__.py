"""maneuverkit: anticipating driving maneuvers from multi-sensory time series.

The package couples two model families behind one streaming prediction
interface: a two-stream LSTM network with a learned sensory-fusion layer and
an exponentially time-weighted anticipation loss, and an ensemble of
autoregressive input-output HMMs fitted by EM, one per maneuver.  A seeded
scenario generator, the threshold-based anticipation protocol, and both
precision/recall accounting schemes round out the toolkit.
"""

from .aiohmm import AioHmmEnsemble, AioHmmModel, EmConfig, fit_em
from .anticipation import (
    AioHmmPredictor,
    AnticipationResult,
    FusionRnnPredictor,
    anticipate,
    run_session,
)
from .events import EVENTS, STRAIGHT
from .fusion_rnn import FusionRnnModel, init_fusion_model, param_count
from .metrics import (
    EvalReport,
    OutcomeCounts,
    cross_validate,
    evaluate_dataset,
    macro_precision_recall,
    precision_recall,
    threshold_sweep,
)
from .synth import ScenarioConfig, SequenceSample, generate, split_folds
from .training import TrainConfig, anticipation_loss, augment, gradient_check, train

__version__ = "0.1.0"

__all__ = [
    "AioHmmEnsemble",
    "AioHmmModel",
    "AioHmmPredictor",
    "AnticipationResult",
    "EVENTS",
    "EmConfig",
    "EvalReport",
    "FusionRnnModel",
    "FusionRnnPredictor",
    "OutcomeCounts",
    "STRAIGHT",
    "ScenarioConfig",
    "SequenceSample",
    "TrainConfig",
    "anticipate",
    "anticipation_loss",
    "augment",
    "cross_validate",
    "evaluate_dataset",
    "fit_em",
    "generate",
    "gradient_check",
    "init_fusion_model",
    "macro_precision_recall",
    "param_count",
    "precision_recall",
    "run_session",
    "split_folds",
    "threshold_sweep",
    "train",
]
