"""Division-based receiver-agnostic RF fingerprint extraction for
WiFi-style OFDM preambles: waveform generation, impairment and channel
simulation, acquisition, three division extractors, reference selection,
classification, and an experiment harness.

Importing the package loads only `signals`; each submodule loads when it
is imported, so a command loads the modules it runs and no others."""

__version__ = "0.1.0"

from .signals import ComplexSignal  # noqa: F401
