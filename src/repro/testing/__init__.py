"""Fault-injection utilities shared by the durability layer and tests."""

from . import faults
from .faults import FaultError, SimulatedCrash

__all__ = ["faults", "FaultError", "SimulatedCrash"]
