"""Secure-degrees-of-freedom toolkit.

Construction, exact verification, and simulation of alignment-based
cooperative-jamming schemes for the wiretap channel with helpers, the
multiple access wiretap channel, and the interference channel with an
external eavesdropper, all without eavesdropper channel knowledge at the
transmitters.
"""

from .channel import (ChannelRealization, GainDistribution, HelperModel,
                      InterferenceModel, MacModel, MacPartialModel,
                      sample_channel)
from .interference_sets import DimensionSet
from .monomial import Monomial

__version__ = "0.1.0"

__all__ = [
    "ChannelRealization",
    "DimensionSet",
    "GainDistribution",
    "HelperModel",
    "InterferenceModel",
    "MacModel",
    "MacPartialModel",
    "Monomial",
    "sample_channel",
    "__version__",
]
