"""Hypercomplex numbers (reals through octonions) and the orthogonal
decomposition of triple products into anticommutator, cross product and
associator, with an identity-checking DSL and CLI."""

from types import ModuleType as _ModuleType

from .core import (
    ABS_TOL,
    BINARY64,
    DIMS,
    EXACT,
    REL_TOL,
    DigitsError,
    HNum,
    add,
    allclose,
    basis,
    coeff_str,
    coerce_scalar,
    conj,
    embed,
    hnum,
    imaginary_part,
    inner,
    mul,
    negate,
    norm_sq,
    real_coeff,
    scalar_close,
    scalar_str,
    scale,
    sub,
    unit,
    zero,
)
from .decomp import (
    PairDecomposition,
    TripleDecomposition,
    acomm2,
    acomm3,
    acomm3_closed,
    assoc3,
    cross2,
    cross3,
    cross3_closed,
    decompose_pair,
    decompose_triple,
    expand_product2,
    mirror_product,
    norm_sq_acomm3,
    norm_sq_assoc3,
    norm_sq_cross3,
    okubo_rhs,
)
from .dsl import (
    CheckReport,
    EvalError,
    Identity,
    ParseError,
    check_identities,
    check_identity,
    check_identity_basis,
    evaluate,
    parse,
    pretty,
)
from .oracle import (
    GramMatrix,
    StructureTable,
    build_table,
    det3,
    format_table,
    gram,
    gram_im,
    mul_table,
)
from .suite import builtin_lines

# Every name imported above; not the submodules those imports bind.
__all__ = sorted(name for name, value in list(globals().items())
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
