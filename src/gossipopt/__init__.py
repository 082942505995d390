"""Decentralized optimization over time-varying gossip networks.

Simulates gossip communication on changing graphs, runs an accelerated
primal solver with optional multi-round consensus, certifies its geometric
convergence through a Lyapunov monitor, and replays the worst-case
star-cycle construction whose communication floor matches the solver's
complexity.

Names are imported from their modules (``from gossipopt import solver``);
the package root holds only ``__version__``.
"""

__version__ = "0.1.0"
