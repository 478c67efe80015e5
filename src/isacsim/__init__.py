"""Simulation and closed-form evaluation of joint sensing/communication links.

Downlink and uplink communication rate, outage probability, sensing rate,
high-SNR asymptotes, and communication-sensing rate regions, with
bandwidth-split baselines for comparison.
"""

__version__ = "0.1.0"
