"""Pseudorandom streams from the polygonal binormal-flow reduction.

At rational times the tangent evolution of a regular polygon under the
binormal flow turns into exact number theory: quadratic Gauss sums fix the
corner rotations, and the resulting triple/scalar products collapse to a
modular inverse.  This package computes both sides of that reduction,
verifies them against each other, and exposes the resulting sequences as
statistically tested pseudorandom streams.
"""

from .errors import DomainError
from .filament import (
    CornerAngle,
    PolygonConfig,
    RationalTime,
    build_polygon,
    circle_row,
    closure_residual,
    corner_angle,
    corner_products,
    rotation_stack,
    z_qm_closed,
)
from .gauss import (
    gauss_direct_row,
    gauss_magnitude,
    theta_sequence,
)
from .modular import (
    euler_totient,
    factor_pow2,
    jacobi,
    mod_inverse,
    phi_p,
)
from .prng import (
    Stream,
    StreamKind,
    StreamSpec,
    compound_stream,
    eicg_pow2_stream,
    eicg_stream,
    lcg_stream,
    randu_preset,
    vfe_unit_samples,
)
from .stattest import (
    DiscrepancyReport,
    TupleCloud,
    chi_square_uniformity,
    make_tuples,
    randu_plane_count,
    serial_test,
    star_discrepancy,
    theorem2_upper,
    theorem3_lower,
)
from .verify import (
    SuiteResult,
    verify_closure,
    verify_compound,
    verify_gauss,
    verify_theorem1,
)

__version__ = "0.1.0"
