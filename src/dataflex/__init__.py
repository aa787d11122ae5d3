"""Dynamic data selection, mixing, and reweighting around a small analytic LM."""

from .core import (
    Corpus,
    MetricsRecord,
    MixtureWeights,
    ModelCfg,
    OptimCfg,
    RunConfig,
    Sample,
    Schedule,
    empirical_proportions,
    id_set_digest,
    invocation_steps,
    validate_config,
)
from .data import DomainSpec, build_domain_specs, generate_corpus, make_validation
from .evaluation import EvalResult, eval_per_domain
from .mixers import (
    DoremiParams,
    OdmParams,
    OdmState,
    doremi_update,
    excess_loss,
    odm_init,
    odm_update,
    run_doremi_pipeline,
    sample_batch,
)
from .model import (
    Checkpoint,
    ModelState,
    OptimizerState,
    adam_precondition,
    embed,
    init_model,
    init_optimizer,
    per_sample_gradient,
    per_sample_loss,
    restore,
    snapshot,
    train_step,
    zero_model,
)
from .selectors import (
    InfluenceParams,
    ScoreVector,
    TsdsParams,
    score_delta_loss,
    score_influence,
    score_knn,
    score_loss,
    score_probe,
    score_tsds,
    select,
)
from .trainers import (
    DEFAULT_REGISTRY,
    ComponentRegistry,
    RunResult,
    run_training,
)
from .weighters import WeightStrategy, compute_weights

__version__ = "0.1.0"
