"""dflab: decoherence functionals as concrete matrices.

A library and batch CLI for building decoherence functionals over finite
history spaces, checking their axioms computationally (hermiticity,
normalization, positivity over binary vectors, positive semidefiniteness,
partition decoherence), composing them by the tensor-product rule, and
running the two headline experiments: the bounded-composability family whose
n-fold power is fine while the (n+1)-fold power is not, and the quantum
partner construction that breaks the composition of any non-PSD functional.
"""

from .axioms import (
    DecoherenceReport,
    PositivityReport,
    SpectralReport,
    Strategy,
    ValidationReport,
    Verdict,
    check_hermiticity,
    check_normalization,
    check_partition_decoherence,
    check_strong_positivity,
    check_weak_positivity,
    validate_df,
)
from .bell import (
    Behavior,
    ConsistencyReport,
    adaptive_partition,
    bell_history_space,
    check_behavior_consistency,
    fixed_setting_partition,
    scenario_partitions,
)
from .compose import (
    ComposabilityReport,
    check_composability,
    detect_blocks,
    singleton_df,
    tensor,
    tensor_power,
)
from .core import (
    BudgetExceededError,
    DecoherenceFunctional,
    DflabError,
    DimensionCapError,
    Event,
    HistorySpace,
    Partition,
    TOL_EQ,
    TOL_POS,
    UndecidableBlockError,
    ValidationLevel,
    df_evaluate,
    df_from_matrix,
    make_space,
    single_property_partition,
    space_product,
)
from .lemma1 import (
    Lemma1Params,
    Lemma1Report,
    find_lambda,
    lemma1_df,
    lemma1_epsilon,
    lemma1_experiment,
    lemma1_witness,
    lemma1_witness_value,
    lemma1_witness_value_numeric,
    norm_bound,
    witness_is_negative,
)
from .maximality import (
    Lemma2Report,
    PnnViolation,
    is_nonneg_hermitian,
    min_eig_witness,
    pnn_violation_search,
    random_weakly_positive_nonsp,
    verify_lemma2,
)
from .quantum import (
    ProjectorFamily,
    QuantumModel,
    behavior_table,
    dv_family,
    quantum_df,
    random_tensor_model,
)

__version__ = "0.1.0"
