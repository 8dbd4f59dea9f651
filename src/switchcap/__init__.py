"""Quantum SWITCH of depolarizing channels: simulation and Holevo capacity.

Import from the submodules: ``qmat``, ``channels``, ``switch``, ``capacity``,
``oracle`` and ``cli``.
"""

__version__ = "0.1.0"
