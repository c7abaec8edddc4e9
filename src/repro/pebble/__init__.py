"""The existential k-pebble game (the polynomial relaxation of homomorphism)."""

from .game import (
    pebble_game_winner,
    reference_pebble_game_winner,
)
from .kernel import ConsistencyKernel

__all__ = [
    "pebble_game_winner",
    "reference_pebble_game_winner",
    "ConsistencyKernel",
]
