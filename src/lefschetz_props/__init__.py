"""Exact-arithmetic deciders for Weak and Strong Lefschetz properties of
artinian monomial and form ideals, with exhaustive desk-scale verification
campaigns for the sharp Hilbert-function lower bounds.

Every rank is computed in pure Python by one policy (``_kernels.rank_rows``):
a GF(2) or word-prime certificate of maximal rank, else exact fraction-free
elimination.
"""

from .classify import forces_slp, forces_wlp, is_o_sequence, t_index
from .combinatorics import (
    BinomialExpansion,
    Monomial,
    macaulay_expansion,
    macaulay_growth,
    macaulay_lower,
    monomial_basis,
    multinomial,
)
from .duality import (
    DualElement,
    contract,
    contraction_matrix,
    dual_ideal_from_support,
    ell_power_contract,
    extremal_dual,
    kernel_witness,
)
from .errors import BudgetExceededError, CapExceededError, NotArtinianError
from .exactlinalg import ExactMatrix, rank, row_reduce
from .harness import (
    SearchSpec,
    crosscheck_lemmas,
    enumerate_equigenerated,
    min_kernel_support,
    monomial_complete_intersection,
    named_examples,
    random_form_ideal,
    theorem1_bound,
    theorem2_bound,
    verify_thm1,
    verify_thm2,
    verify_thm37,
    wiebe_initial_ideal_check,
)
from .ideals import (
    FormIdeal,
    MonomialIdeal,
    hilbert_function,
    initial_ideal_degreewise,
    is_artinian,
    minimalize,
    socle_degree,
)
from .lefschetz import (
    LinearForm,
    check_power,
    check_power_shortcut,
    check_slp,
    check_slp_shortcut,
    check_wlp,
    has_maximal_rank,
    mult_map_matrix,
    ones_form,
    random_linear_form,
)
from .reporting import SCHEMA_ID, LefschetzReport, PairRecord, VerificationReport

__version__ = "0.1.0"

# There is one rank lane.  campaign_bench/worker.py records this name in each
# result; drop it with the next change to the benchmark.
kernel_backend = "pure"
