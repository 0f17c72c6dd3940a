"""Time-frequency analysis on finite abelian groups.

Finite models Z_N1 x ... x Z_Nd carry the whole duality apparatus exactly:
sampling against periodization, Poisson summation, Dirac-comb transforms,
STFT concentration norms, Gabor frames with canonical dual windows, and
computable surrogates for weak-star convergence of distributions.

The package is a lazy namespace (PEP 562): ``import mildspec`` loads no
submodule and no NumPy.  Each public name is looked up in its home module,
which is imported the first time one of its names is read, so a process
compiles only the modules it uses (``from mildspec import dft`` loads
fourier, groups, signals and errors, not gabor or mild).  The name is not
cached in this module's namespace: every read returns what the home module
holds at that moment, so a function patched in its home module and later
restored (as a tracer or ``monkeypatch`` does) is never left behind here.
Submodules become attributes once imported, as in any package.
"""

import os as _os

# MILDSPEC_THREADS caps BLAS/FFT worker pools; must land before numpy loads
_threads = _os.environ.get("MILDSPEC_THREADS")
if _threads and _threads.isdigit():
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)
del _os, _threads

from importlib import import_module as _import_module

__version__ = "0.1.0"

# public name -> its home module
_HOMES = {
    name: module
    for module, names in {
        "approx": ("BUPU", "BUPU_SHAPES", "QuasiResult", "SamplingBound", "make_bupu",
                   "quasi_interpolate", "sampling_bound", "semidiscrete_extension",
                   "tensor_extension"),
        "errors": ("DomainError", "GroupMismatchError", "NotAFrame", "NotPeriodic",
                   "SchemaError", "SupportViolation"),
        "fourier": ("DualityResult", "PoissonResult", "adjoint_restriction", "comb_ft", "dft",
                    "dft_quotient", "dft_subgroup", "duality_sampling_periodization", "idft",
                    "pair", "poisson_check", "restriction", "weil_map"),
        "gabor": ("FRAME_TOL", "CoefficientArray", "GaborSystem", "TFLattice",
                  "gabor_coefficients", "gabor_synthesis", "s0_norm", "s0prime_norm", "stft"),
        "groups": ("GroupSpec", "QuotientSpec", "Subgroup", "all_subgroups", "annihilator",
                   "character", "character_vector", "grid_subgroup", "quotient",
                   "subgroup_generated"),
        "mild": ("ConvergenceReport", "DistributionSequence", "PeriodicReport",
                 "convergence_report", "default_probes", "mild_deviation_coeff",
                 "mild_deviation_pairing", "mild_deviation_stft", "periodize_analysis",
                 "refining_comb_sequence", "support"),
        "signals": ("QuotientSignal", "Signal", "SubgroupSignal", "dirac", "dirac_comb",
                    "finite_gaussian", "modulate", "pure_frequency", "random_signal",
                    "signal_to_comb", "tf_shift", "translate"),
    }.items()
    for name in names
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # read through, never bound here: see the module docstring
    return getattr(_import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
