"""Low-frequency scattering by inhomogeneous planar slabs.

Closed-form first- and second-order scattering amplitudes in two and three
dimensions, an independent operator-kernel evaluation path, the exactly
solvable one-sided profile ex1, bilayer invisibility-cloak design, and a 1D
transfer-matrix series.

The usual entry points are re-exported here; the implementation lives in

* :mod:`slabscat.numerics`  - quadrature, numeric Fourier transforms, errors
* :mod:`slabscat.profiles`  - permittivity profiles and their moments
* :mod:`slabscat.amp2d`     - 2D amplitude coefficients f1, f2
* :mod:`slabscat.amp3d`     - 3D amplitude coefficients and cross sections
* :mod:`slabscat.exactborn` - the exactly solvable one-sided profile ex1
* :mod:`slabscat.kernels`   - discretized operator-kernel cross-check route
* :mod:`slabscat.cloak`     - bilayer coating design and verification
* :mod:`slabscat.dyson1d`   - 1D transfer matrix as an ordered series
* :mod:`slabscat.cli`       - ``slabscat`` command-line front end
"""

from .amp2d import (
    AmplitudeResult,
    ScatteringConfig2D,
    amplitude_2d,
    f1_2d,
    f2_2d,
)
from .amp3d import (
    Direction3D,
    ScatteringConfig3D,
    amplitude_3d,
    f1_3d,
    f2_3d,
    normalized_cross_section,
)
from .cloak import (
    BilayerGeometry,
    CoatingMaterials,
    SlabMomentPair,
    design_geometry,
    export_geometry,
    verify_invisibility,
)
from .dyson1d import (
    Profile1D,
    TransferMatrix1D,
    constant_slab_1d,
    dyson_terms,
    scattering_1d,
    transfer_matrix_1d,
)
from .exactborn import (
    Ex1Params,
    ex1_exact,
    ex1_f1,
)
from .kernels import amplitude_from_kernels, momentum_grid
from .numerics import (
    AccuracyError,
    DomainError,
    QuadratureSpec,
    SlabscatError,
    TruncationError,
)
from .profiles import (
    Profile2D,
    Profile3D,
    coated_profile,
    ex1_profile,
    gaussian_slab_2d,
    gaussian_slab_3d,
    moment_2d,
    moment_3d,
    profile_from_dict,
    spatial_moment_y,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors and numeric controls
    "SlabscatError",
    "AccuracyError",
    "DomainError",
    "TruncationError",
    "QuadratureSpec",
    # profiles
    "Profile2D",
    "Profile3D",
    "ex1_profile",
    "gaussian_slab_2d",
    "gaussian_slab_3d",
    "coated_profile",
    "profile_from_dict",
    "moment_2d",
    "moment_3d",
    "spatial_moment_y",
    # 2D and 3D amplitudes
    "AmplitudeResult",
    "ScatteringConfig2D",
    "f1_2d",
    "f2_2d",
    "amplitude_2d",
    "ScatteringConfig3D",
    "Direction3D",
    "f1_3d",
    "f2_3d",
    "amplitude_3d",
    "normalized_cross_section",
    # the exactly solvable profile ex1
    "Ex1Params",
    "ex1_exact",
    "ex1_f1",
    # kernel route
    "momentum_grid",
    "amplitude_from_kernels",
    # cloak design
    "CoatingMaterials",
    "SlabMomentPair",
    "BilayerGeometry",
    "design_geometry",
    "verify_invisibility",
    "export_geometry",
    # 1D series
    "Profile1D",
    "TransferMatrix1D",
    "constant_slab_1d",
    "dyson_terms",
    "transfer_matrix_1d",
    "scattering_1d",
]
