"""The public API: ``proxint.__all__`` is pinned, so adding or removing a name
is a deliberate edit of this file."""

import proxint

PUBLIC = {
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
}


def test_all_is_pinned():
    assert len(proxint.__all__) == len(set(proxint.__all__))
    assert set(proxint.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in proxint.__all__:
        assert getattr(proxint, name) is not None, name

