"""Meta-structure discovery for heterogeneous information networks.

Encodes typed-DAG structures as natural-language sentences, explores their
one-step neighborhoods with agent-guided mutation, and evolves a population
against a deterministic sparse-linear-algebra fitness function.
"""

__version__ = "0.1.0"
