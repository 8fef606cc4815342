"""Attribute codec for dynamic point clouds.

Inter-frames are predicted through w (L + wI)^{-1} applied to motion-
corresponded reference attributes and the residual is coded in the
eigenbasis of L + wI; intra-frames use the normal-weighted graph
transform.  L and L + wI share their eigenvectors, so one eigenbasis per
cluster serves both modes and the predictor.  Mode selection is
Lagrangian with a fixed, offline-trained power-law lambda(Q) model, and
the temporal precision w(Q) is fixed and trained offline the same way.

Import each name from the module that defines it, for example
`from pgft.codec import encode_sequence`; this package re-exports
nothing.
"""

__version__ = "0.1.0"
