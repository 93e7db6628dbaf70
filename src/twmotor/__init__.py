"""Traveling-wave rotary ultrasonic motor simulator.

Stator ring eigenanalysis, two-phase traveling-wave drive, penalty/Coulomb
stator-rotor contact transients, preload and COF parametric sweeps, and
areal surface-roughness metrology.
"""

__version__ = "0.1.0"
