"""Digital twin of an opto-magnetic perceptron.

Simulates helicity-dependent pulse writing of magnetic synapses, crossed
analyzer Faraday readout into a linear camera, background-referenced weight
extraction, and supervised perceptron training with stochastic learning
rates, both as an abstract simulation and against an emulated bench.
"""

__version__ = "0.1.0"

from .errors import ConfigurationError, DegenerateBackgroundError
from .patterns import Dataset, Pattern, build_dataset
from .synapse import Helicity, InhomogeneityParams, SynapseSite, response_curve
from .optics import CameraConfig, OpticalConstants, Roi, SpotGeometry
from .weights import WeightState, extract_threshold, extract_weight
from .trainer import Action, TrainerConfig, TrainingTrace, train
from .rig import EnergyLedger, Rig, RigBackend, ShutterModel

__all__ = [
    "Action",
    "CameraConfig",
    "ConfigurationError",
    "Dataset",
    "DegenerateBackgroundError",
    "EnergyLedger",
    "Helicity",
    "InhomogeneityParams",
    "OpticalConstants",
    "Pattern",
    "Rig",
    "RigBackend",
    "Roi",
    "ShutterModel",
    "SpotGeometry",
    "SynapseSite",
    "TrainerConfig",
    "TrainingTrace",
    "WeightState",
    "build_dataset",
    "extract_threshold",
    "extract_weight",
    "response_curve",
    "train",
    "__version__",
]
