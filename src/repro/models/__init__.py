"""The paper's performance models as first-class objects.

Figure 1 gives each MPI-3 RMA operation an abstract cost-function input
domain (data size s, process count p, neighbor count k, operation o);
Section 3 fills in the measured parametrized forms for foMPI on Blue
Waters.  This package encodes both:

* :mod:`repro.models.perfmodel` -- model classes with declared input
  domains and evaluation,
* :mod:`repro.models.params_fompi` -- the paper's measured constants,
* :mod:`repro.models.fitting` -- least-squares fitting of (simulated or
  measured) series back onto the model forms, used by the test suite to
  verify the simulator is calibrated and by EXPERIMENTS.md to report
  fitted-vs-paper constants.
"""

from repro.models.fitting import fit_affine, fit_log_linear, relative_error
from repro.models.params_fompi import PAPER_MODELS, paper_model
from repro.models.perfmodel import (
    AffineBytesModel,
    ConstantModel,
    LinearNeighborsModel,
    LogProcsModel,
    PerfModel,
)

__all__ = [
    "PerfModel",
    "AffineBytesModel",
    "ConstantModel",
    "LogProcsModel",
    "LinearNeighborsModel",
    "PAPER_MODELS",
    "paper_model",
    "fit_affine",
    "fit_log_linear",
    "relative_error",
]
