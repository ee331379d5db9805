"""Exact arithmetic for mixed-radix missing-digit sets.

Quotient rules define place values g_0 = 1, g_{k+1} = g_k * d_k; digit
constraints forbid per-position digit sets; block counts, membership
counts, densities, and reciprocal-sum brackets are all computed in exact
integer/rational arithmetic and cross-checked by an independent
brute-force oracle.  Convergence and divergence of the reciprocal series
are decided only from symbolically certified hypotheses.
"""

from .constraints import (
    FINITE,
    INFINITE,
    BlockCount,
    DigitConstraint,
    block_count_exact,
    count_upto,
    enumerate_block,
    fixed_bits,
    is_finite_set,
    is_member,
    make_constraint,
)
from .errors import (
    BitOutOfRange,
    BudgetExceeded,
    ConfigInvalid,
    DigitOutOfRange,
    EmptyExplicitList,
    EmptyForbiddenSet,
    ForbiddenSetNotProper,
    InputOutOfRange,
    KempnerLabError,
    MissingBoundHint,
    NonPositiveInput,
    OverrideOutsideIndexSet,
    QuotientTooSmall,
    RangeTooLarge,
    SetIsFinite,
    ZeroLeadingDigit,
)
from .gadic import (
    Numeral,
    QuotientSequence,
    base_value,
    constant,
    digit_count,
    explicit,
    factorial,
    from_digits,
    power,
    to_digits,
)
from .harmonic import (
    CONVERGENT,
    DIVERGENT,
    FINITE_SET,
    INCONCLUSIVE,
    RULE_FINITE,
    RULE_INDEX_GROWTH,
    RULE_INDEX_SPARSITY,
    RULE_RATIO_TAIL,
    BlockReport,
    Classification,
    Margin,
    PartialSum,
    block_bracket,
    block_reports,
    classify,
    convergence_by_bounded_quotients,
    density,
    divergence_by_unbounded_quotients,
    partial_sum_exact,
    tail_lower_estimate,
    tail_upper_estimate,
    weierstrass_lower,
)
from .indexsets import (
    AllIndices,
    ArithmeticIndices,
    ComplementIndices,
    ExplicitIndices,
    IndexSet,
    PowerIndices,
)
from .oracle import OracleReport, oracle_members, oracle_report, oracle_sum

__all__ = [name for name in dir() if not name.startswith("_")]
