"""Structured binary prediction with abstention around the Lovasz hinge."""

from .setfn import (
    Label,
    PolymatroidCollection,
    SetFunction,
    check_condition1,
    make_concave_card,
    make_jaccard,
    make_modular,
    make_sqrt_card,
    make_zero_one,
    mean_value,
    random_collection,
    random_polymatroid,
    validate_polymatroid,
)
from .lovasz import (
    clip,
    expected_hinge,
    hinge,
    hinge_subgradient,
    lovasz_extension,
)
from .targets import (
    AbstainReport,
    abs_set,
    enumerate_reports,
    mis,
    target_abstain,
    target_plain,
)
from .links import (
    LinkConfig,
    envelope,
    envelope_oracle,
    naive_threshold_link,
    threshold_abstain_link,
    trim_single_abstain,
)
from .oracle import (
    VerificationReport,
    counterexample_asymmetric,
    counterexample_symmetric,
    flip,
    grid_distributions,
    mix,
    point_mass,
    uniform,
    verify_embedding,
    verify_representative,
    verify_tightness,
)
from .multiclass import (
    BlockCodec,
    ClassCosts,
    ClassLabel,
    MulticlassReport,
    bep_loss,
    bep_ova_incompatibility,
    encode_bep,
    lift_polymatroid,
    multiclass_surrogate,
    multiclass_target,
    onehot_lift,
    trimmed_link,
    verify_block_domination,
)
from .bench import TrainConfig, counts, metrics, synth_data, tau_sweep, train

__version__ = "0.1.0"
