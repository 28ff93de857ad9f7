"""Proximity-approximation interactions between curved, modulated, and rough surfaces.

The library evaluates the interaction (near-field radiative heat transfer,
Casimir-type energies) between gently curved bodies through the height
distribution function f(s) of their local separations: canonical
distributions (sphere, dome and pyramid tilings, truncated-Gaussian
roughness), their exact or numeric convolution for multi-scale surfaces,
the area integral of the plate-plate power-law kernel, the leading
gradient correction, and the small-separation scaling laws (constant,
logarithmic, or power law, selected by the case number against the kernel
exponent).  Heightmap utilities extract the same quantities from measured
or synthetic surface grids.

Units: lengths in nm, powers in nW.
"""

__version__ = "0.1.0"

from .asymptotics import (
    AsymptoticLaw,
    LawForm,
    VerificationReport,
    compose_cases,
    fit_scaling,
    predict,
    smallest_decade,
    verify,
)
from .distributions import (
    CaseReport,
    HeightDistribution,
    case_number,
    convolve,
    dome_distribution,
    evaluate,
    projected_area,
    pyramid_distribution,
    read_distribution,
    sphere_distribution,
    to_sampled,
    truncated_gaussian_distribution,
    truncated_gaussian_norm,
    write_distribution,
)
from .errors import (
    ConfigError,
    FitError,
    InvalidParameterError,
    NumericError,
    ParseError,
    UnclassifiableError,
)
from .heightmap import (
    GaussianFit,
    Heightmap,
    Histogram,
    compose_gradient,
    distribution_from_histogram,
    empirical_distribution,
    fit_gaussian,
    gradient_distribution,
    load_heightmap,
    save_heightmap,
    shift_to_contact,
    synthesize_surface,
)
from .interaction import (
    DiagnosticResult,
    InteractionCurve,
    Kernel,
    casimir_ideal_kernel,
    curve_from_csv,
    curve_to_csv,
    exactness_diagnostic,
    far_field_subtracted,
    heat_sio2_kernel,
    pa_interaction,
    plate_plate,
    sweep,
)

__all__ = [
    "__version__",
    # distributions
    "HeightDistribution", "CaseReport",
    "sphere_distribution", "dome_distribution", "pyramid_distribution",
    "truncated_gaussian_distribution", "truncated_gaussian_norm",
    "convolve", "case_number", "evaluate", "projected_area", "to_sampled",
    "write_distribution", "read_distribution",
    # interaction
    "Kernel", "InteractionCurve", "DiagnosticResult",
    "heat_sio2_kernel", "casimir_ideal_kernel", "plate_plate",
    "pa_interaction", "far_field_subtracted",
    "exactness_diagnostic", "sweep",
    "curve_to_csv", "curve_from_csv",
    # asymptotics
    "LawForm", "AsymptoticLaw", "VerificationReport",
    "predict", "fit_scaling", "verify", "compose_cases", "smallest_decade",
    # heightmap
    "Heightmap", "Histogram", "GaussianFit",
    "load_heightmap", "save_heightmap", "shift_to_contact",
    "empirical_distribution", "gradient_distribution", "fit_gaussian",
    "synthesize_surface", "distribution_from_histogram", "compose_gradient",
    # errors
    "InvalidParameterError", "ParseError", "ConfigError",
    "NumericError", "FitError", "UnclassifiableError",
]
