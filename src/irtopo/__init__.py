"""irtopo: finite topological spaces with one-way paths and homotopies.

A finite space is encoded by its reachability relation (reach(x, y)
holds when y lies in the closure of {x}).  On top of that the package
provides the directed path and homotopy calculus, exact covering
category and dimension, prime spectra as finite spaces and exact-rational
interval models.  ``irtopo.verifier``, not imported here, machine-checks
the package's structural claims on every finite space up to a size budget.
"""

from .core import (
    EmptySpace,
    FiniteSpace,
    IrtopoError,
    NotATopology,
    ReachNotPreorder,
    SearchBudgetExceeded,
    from_open_sets,
    from_pairs,
    from_reach,
    mask_of,
    points_of,
    product,
)
from .homotopy import (
    ContinuousMap,
    MapMismatch,
    NotContinuous,
    ir_co,
    ir_homotopic,
    ir_homotopy_equivalent,
    ir_path,
    is_ir_path_connected,
)
from .category import (
    CoverReport,
    DimensionReport,
    NotACover,
    SubcoverNotFound,
    covering_dimension,
    ir_cat,
)
from .spectra import (
    InvalidModulus,
    NotAPartialOrder,
    check_theorem8,
    factorize,
    spec_from_poset,
    spec_zn,
)
from .intervals import (
    ArityMismatch,
    Ball,
    OutOfRange,
    ball,
    chain_space,
    d_ir,
    grid_subspace,
)

__version__ = "0.1.0"
