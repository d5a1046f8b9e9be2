"""LWE to Massart-halfspace reduction toolkit.

Samplers for lattice Gaussians, LWE batch generation with the
discrete-to-continuous massaging chain, the rejection-sampling core that
maps torus LWE to labeled halfspace/PTF learning instances, and the
statistical verifiers that check every distributional claim at desk scale.
The API lives in the submodules (gaussians, intervals, lwe, rejection,
instances, verify, cli); the package itself re-exports nothing.
"""

__version__ = "0.1.0"
