"""Traveling-wave rotary ultrasonic motor simulator.

Stator ring eigenanalysis, two-phase traveling-wave drive, penalty/Coulomb
stator-rotor contact transients, preload and COF parametric sweeps, and
areal surface-roughness metrology.
"""

from .config import RunConfig, load_config
from .contact import ContactConfig, evaluate_contact
from .dynamics import (MotorTimeSeries, RotorConfig, detect_steady_state,
                       envelope_average, mean_speed, simulate, simulate_batch)
from .materials import builtin_library, lookup
from .metrology import areal_params, level_mean_plane, load_height_map
from .stator import (StatorGeometry, StatorModel, piezo_modal_force, ring_modes,
                     select_mode_pair)
from .sweep import SweepSpec, find_peak, grams_to_newtons, run_sweep
from .wave import DriveConfig, ideal_no_slip_speed, steady_wave_response

__version__ = "0.1.0"
