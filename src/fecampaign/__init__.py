"""Simulated ensemble free-energy campaigns.

Building blocks for thermodynamic-integration campaigns: protocol
definitions compiled to pipelines of stages, a discrete-event pilot execution
engine with overhead accounting, adaptive lambda-window placement and
adaptive termination, and synthetic dU/dlambda data with known ground
truth for end-to-end experiments.
"""
