"""Interleaved-ADC mismatch simulation, calibration, wideband filter-bank
correction, and dynamic performance metrics."""

from tiadc.model import (
    Capture,
    MismatchProfile,
    PredictedLine,
    TiadcConfig,
    TiadcError,
    Tone,
    ToneSpec,
    channel_response,
    fold_frequency,
    load_capture,
    make_reference_profile,
    midtread_quantize,
    predict_output_spectrum,
    read_profile_csv,
    save_capture,
    simulate_capture,
    write_profile_csv,
)
from tiadc.calibration import (
    DegenerateInputError,
    MismatchMeasurement,
    SineFitResult,
    UnreliableMeasurementError,
    build_profile,
    constant_profile,
    estimate_mismatch_at,
    run_calibration,
    sine_fit,
)
from tiadc.design import (
    DesignSpec,
    FilterBank,
    PRResidualReport,
    SingularDesignError,
    design_filter_bank,
    k_set,
    pr_residual,
    read_bank_csv,
    solve_pr_at,
    write_bank_csv,
)
from tiadc.correction import correct, correct_offsets
from tiadc.metrics import (
    SpectrumReport,
    SpurEntry,
    coherent_bin,
    dynamic_metrics,
    enob_from_sinad,
    image_spur_levels,
    spectrum,
)

__version__ = "0.1.0"
KERNEL_BACKEND = "numpy"  # the only kernel; kept for run records that stamp it
