"""starbundle: exact star products, local line bundles, index pairings,
and a Toeplitz/Berezin matrix sandbox."""

__version__ = "0.1.0"

from .scalar import CScalar, Scalar, parse_scalar
from .chartfn import ChartFunction, ChartSpace
from .manifold import EuclideanChart, Sphere2, Torus
from .forms import DifferentialForm
from .report import CheckReport

__all__ = [
    "CScalar",
    "Scalar",
    "parse_scalar",
    "ChartFunction",
    "ChartSpace",
    "EuclideanChart",
    "Sphere2",
    "Torus",
    "DifferentialForm",
    "CheckReport",
]
